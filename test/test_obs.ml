(* The observability subsystem: registry exactness (including under domain
   concurrency), Prometheus exposition shape, Chrome trace-event JSON
   validity, deterministic sampling, and the core guarantee that turning
   tracing/metrics on changes no verdict bit and no model byte. *)

module SG = Scaguard
module Obs = Scaguard.Obs

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

(* Every test leaves the global switches off and the global state clean,
   whatever happens. *)
let with_obs ~tracing ~metrics f =
  Obs.reset ();
  Obs.set_tracing tracing;
  Obs.set_metrics metrics;
  Fun.protect
    ~finally:(fun () ->
      Obs.set_tracing false;
      Obs.set_metrics false;
      Obs.set_span_sample_rate 1.0;
      Obs.reset ())
    f

(* -- clock ------------------------------------------------------------------ *)

let test_clock_monotone () =
  let prev = ref (Obs.Clock.now_ns ()) in
  for _ = 1 to 1000 do
    let t = Obs.Clock.now_ns () in
    check_bool "clock never goes backwards" true (Int64.compare t !prev >= 0);
    prev := t
  done;
  check_bool "elapsed is non-negative" true
    (Obs.Clock.elapsed_s ~since:(Obs.Clock.now_ns ()) >= 0.0)

(* -- registry --------------------------------------------------------------- *)

let find_value name snap =
  match
    List.find_opt (fun e -> e.Obs.Registry.entry_name = name) snap
  with
  | Some e -> e.Obs.Registry.entry_value
  | None -> Alcotest.failf "metric %s not in snapshot" name

let test_counter_exact () =
  let r = Obs.Registry.create () in
  let c = Obs.Registry.counter r ~help:"h" "c_total" in
  Obs.Registry.incr c;
  Obs.Registry.add c 41;
  (match find_value "c_total" (Obs.Registry.snapshot r) with
  | Obs.Registry.Counter_value v -> check_int "counter sums" 42 v
  | _ -> Alcotest.fail "expected a counter");
  (* create-or-get: the same (name, labels) pair is the same metric *)
  let c' = Obs.Registry.counter r "c_total" in
  Obs.Registry.incr c';
  (match find_value "c_total" (Obs.Registry.snapshot r) with
  | Obs.Registry.Counter_value v -> check_int "same handle" 43 v
  | _ -> Alcotest.fail "expected a counter");
  (* distinct labels are a distinct series *)
  let cl = Obs.Registry.counter r ~labels:[ ("k", "v") ] "c_total" in
  Obs.Registry.add cl 7;
  let labelled =
    List.filter (fun e -> e.Obs.Registry.entry_name = "c_total")
      (Obs.Registry.snapshot r)
  in
  check_int "two series" 2 (List.length labelled);
  (* kind clash is a programming error *)
  Alcotest.check_raises "kind clash raises"
    (Invalid_argument
       "Obs.Registry: metric \"c_total\" already registered as a non-gauge")
    (fun () -> ignore (Obs.Registry.gauge r "c_total"))

let test_gauge_and_reset () =
  let r = Obs.Registry.create () in
  let g = Obs.Registry.gauge r "g" in
  Obs.Registry.set_gauge g 2.5;
  (match find_value "g" (Obs.Registry.snapshot r) with
  | Obs.Registry.Gauge_value v -> Alcotest.(check (float 0.0)) "gauge" 2.5 v
  | _ -> Alcotest.fail "expected a gauge");
  Obs.Registry.reset r;
  match find_value "g" (Obs.Registry.snapshot r) with
  | Obs.Registry.Gauge_value v -> Alcotest.(check (float 0.0)) "reset" 0.0 v
  | _ -> Alcotest.fail "expected a gauge"

let test_histogram_exact () =
  let r = Obs.Registry.create () in
  let h =
    Obs.Registry.histogram r ~buckets:[| 0.1; 1.0; 10.0 |] "h_seconds"
  in
  (* one per bucket: edge values land in the bucket they bound (le) *)
  List.iter (Obs.Registry.observe h) [ 0.05; 0.1; 0.5; 10.0; 11.0 ];
  (match find_value "h_seconds" (Obs.Registry.snapshot r) with
  | Obs.Registry.Histogram_value hs ->
    Alcotest.(check (array int)) "bucket counts" [| 2; 1; 1; 1 |]
      hs.Obs.Registry.counts;
    check_int "count" 5 hs.Obs.Registry.count;
    check_bool "sum (fixed-point 1e-9) is close" true
      (Float.abs (hs.Obs.Registry.sum -. 21.65) < 1e-6)
  | _ -> Alcotest.fail "expected a histogram");
  Alcotest.check_raises "bad ladder raises"
    (Invalid_argument
       "Obs.Registry.histogram: buckets must be finite and strictly ascending")
    (fun () ->
      ignore (Obs.Registry.histogram r ~buckets:[| 1.0; 1.0 |] "h2"))

(* N domains hammering the same counter and histogram: the sharded cells
   must merge to exact totals — no lost updates. *)
let test_concurrent_exact () =
  let r = Obs.Registry.create () in
  let c = Obs.Registry.counter r "hammer_total" in
  let h = Obs.Registry.histogram r ~buckets:[| 0.5 |] "hammer_seconds" in
  let domains = 6 and per_domain = 20_000 in
  let workers =
    List.init domains (fun _ ->
        Domain.spawn (fun () ->
            for i = 1 to per_domain do
              Obs.Registry.incr c;
              Obs.Registry.observe h (if i mod 2 = 0 then 0.25 else 0.75)
            done))
  in
  List.iter Domain.join workers;
  (match find_value "hammer_total" (Obs.Registry.snapshot r) with
  | Obs.Registry.Counter_value v ->
    check_int "no lost counter updates" (domains * per_domain) v
  | _ -> Alcotest.fail "expected a counter");
  match find_value "hammer_seconds" (Obs.Registry.snapshot r) with
  | Obs.Registry.Histogram_value hs ->
    check_int "no lost observations" (domains * per_domain)
      hs.Obs.Registry.count;
    Alcotest.(check (array int))
      "buckets split exactly"
      [| domains * per_domain / 2; domains * per_domain / 2 |]
      hs.Obs.Registry.counts
  | _ -> Alcotest.fail "expected a histogram"

(* -- Prometheus exposition -------------------------------------------------- *)

let test_prometheus_format () =
  let r = Obs.Registry.create () in
  let c = Obs.Registry.counter r ~help:"a counter" "x_total" in
  Obs.Registry.add c 3;
  let h =
    Obs.Registry.histogram r ~labels:[ ("stage", "build") ]
      ~buckets:[| 0.5; 1.0 |] "lat_seconds"
  in
  Obs.Registry.observe h 0.25;
  Obs.Registry.observe h 0.75;
  Obs.Registry.observe h 2.0;
  let text = Obs.Registry.to_prometheus (Obs.Registry.snapshot r) in
  let has line =
    List.mem line (String.split_on_char '\n' text)
  in
  check_bool "HELP line" true (has "# HELP x_total a counter");
  check_bool "TYPE line" true (has "# TYPE x_total counter");
  check_bool "counter sample" true (has "x_total 3");
  check_bool "histogram TYPE" true (has "# TYPE lat_seconds histogram");
  (* buckets are cumulative, +Inf covers everything *)
  check_bool "le=0.5" true (has "lat_seconds_bucket{stage=\"build\",le=\"0.5\"} 1");
  check_bool "le=1" true (has "lat_seconds_bucket{stage=\"build\",le=\"1\"} 2");
  check_bool "le=+Inf" true
    (has "lat_seconds_bucket{stage=\"build\",le=\"+Inf\"} 3");
  check_bool "count" true (has "lat_seconds_count{stage=\"build\"} 3");
  check_bool "sum" true (has "lat_seconds_sum{stage=\"build\"} 3")

(* Conformance details a real scraper depends on: the label-value escape
   set (backslash, double quote, line feed), the smaller HELP escape set
   (no quote), the metric/label name charsets, and HELP/TYPE emitted once
   per family, before its samples. *)

let test_prometheus_escaping () =
  let r = Obs.Registry.create () in
  let c =
    Obs.Registry.counter r
      ~help:"backslash \\ quote \" newline\nhelp"
      ~labels:[ ("v", "a\\b\"c\nd") ]
      "esc_total"
  in
  Obs.Registry.incr c;
  let lines =
    String.split_on_char '\n'
      (Obs.Registry.to_prometheus (Obs.Registry.snapshot r))
  in
  let has line = List.mem line lines in
  check_bool "label value escapes \\ \" and newline" true
    (has "esc_total{v=\"a\\\\b\\\"c\\nd\"} 1");
  check_bool "HELP escapes \\ and newline, keeps the quote literal" true
    (has "# HELP esc_total backslash \\\\ quote \" newline\\nhelp")

let test_prometheus_name_charset () =
  let metric_ok n =
    let first = function 'a' .. 'z' | 'A' .. 'Z' | '_' | ':' -> true | _ -> false in
    let rest = function
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | ':' -> true
      | _ -> false
    in
    String.length n > 0 && first n.[0] && String.for_all rest n
  in
  let label_ok n =
    (* label names additionally exclude the colon *)
    metric_ok n && not (String.contains n ':')
  in
  with_obs ~tracing:false ~metrics:true (fun () ->
      (* make sure the full stock metric set (identity gauges included) is
         registered before sweeping it *)
      Obs.export_build_info ~version:"1.2.3" ~format_version:"2"
        ~start_ns:(Obs.Clock.now_ns ()) ();
      let snap = Obs.snapshot () in
      check_bool "snapshot is non-trivial" true (List.length snap > 3);
      List.iter
        (fun e ->
          let n = e.Obs.Registry.entry_name in
          check_bool (Printf.sprintf "metric name %S is legal" n) true
            (metric_ok n);
          List.iter
            (fun (k, _) ->
              check_bool (Printf.sprintf "label name %S is legal" k) true
                (label_ok k))
            e.Obs.Registry.entry_labels)
        snap)

let test_prometheus_header_ordering () =
  let r = Obs.Registry.create () in
  let series stage =
    Obs.Registry.histogram r ~help:"latency" ~labels:[ ("stage", stage) ]
      ~buckets:[| 1.0 |] "multi_seconds"
  in
  Obs.Registry.observe (series "a") 0.5;
  Obs.Registry.observe (series "b") 2.0;
  Obs.Registry.incr (Obs.Registry.counter r ~help:"c" "after_total");
  let lines =
    List.filter
      (fun l -> l <> "")
      (String.split_on_char '\n'
         (Obs.Registry.to_prometheus (Obs.Registry.snapshot r)))
  in
  let indexed = List.mapi (fun i l -> (i, l)) lines in
  let starts p l =
    String.length l >= String.length p && String.sub l 0 (String.length p) = p
  in
  let only p =
    match List.filter (fun (_, l) -> starts p l) indexed with
    | [ (i, _) ] -> i
    | hits -> Alcotest.failf "%S appears %d times, want 1" p (List.length hits)
  in
  (* one header pair per family even with two label series, HELP first *)
  let help_i = only "# HELP multi_seconds " in
  let type_i = only "# TYPE multi_seconds " in
  check_bool "HELP precedes TYPE" true (help_i < type_i);
  let samples =
    List.filter_map
      (fun (i, l) -> if starts "multi_seconds_" l then Some i else None)
      indexed
  in
  check_int "2 series x (2 buckets + sum + count)" 8 (List.length samples);
  List.iter
    (fun i -> check_bool "samples follow their header" true (i > type_i))
    samples

let test_build_info_export () =
  with_obs ~tracing:false ~metrics:true (fun () ->
      Obs.export_build_info ~version:"9.9.9" ~format_version:"7"
        ~start_ns:(Int64.sub (Obs.Clock.now_ns ()) 1_500_000_000L)
        ();
      let lines =
        String.split_on_char '\n'
          (Obs.Registry.to_prometheus (Obs.snapshot ()))
      in
      check_bool "identity gauge is 1" true
        (List.mem
           "scaguard_build_info{version=\"9.9.9\",format_version=\"7\"} 1"
           lines);
      let prefix = "scaguard_uptime_seconds " in
      match
        List.find_opt
          (fun l ->
            String.length l > String.length prefix
            && String.sub l 0 (String.length prefix) = prefix)
          lines
      with
      | None -> Alcotest.fail "scaguard_uptime_seconds not exposed"
      | Some l ->
        let v =
          float_of_string
            (String.sub l (String.length prefix)
               (String.length l - String.length prefix))
        in
        check_bool "uptime counts from start_ns" true (v >= 1.0 && v < 120.0))

(* -- sampling --------------------------------------------------------------- *)

let test_sampling () =
  with_obs ~tracing:true ~metrics:false (fun () ->
      Obs.set_span_sample_rate 1.0;
      check_bool "rate 1 keeps everything" true
        (List.for_all Obs.sampled [ 0; 1; 2; 3 ]);
      Obs.set_span_sample_rate 0.25;
      let kept = List.filter Obs.sampled (List.init 100 Fun.id) in
      check_int "rate 0.25 keeps 1 in 4, deterministically" 25
        (List.length kept);
      check_bool "stride pattern" true (List.mem 0 kept && List.mem 4 kept);
      Obs.set_span_sample_rate 0.0;
      check_bool "rate 0 keeps nothing" true
        (not (List.exists Obs.sampled (List.init 100 Fun.id)));
      Obs.set_span_sample_rate 1.0;
      Obs.set_tracing false;
      check_bool "tracing off keeps nothing" true (not (Obs.sampled 0)));
  Alcotest.check_raises "rate outside [0,1] raises"
    (Invalid_argument "Obs.set_span_sample_rate: rate must be in [0, 1]")
    (fun () -> Obs.set_span_sample_rate 1.5)

(* -- spans ------------------------------------------------------------------ *)

let test_spans () =
  with_obs ~tracing:false ~metrics:false (fun () ->
      Obs.emit_span ~name:"ignored" ~ts_ns:0L ~dur_ns:1L ();
      check_int "tracing off records nothing" 0 (List.length (Obs.spans ())));
  with_obs ~tracing:true ~metrics:false (fun () ->
      let v = Obs.with_span "outer" (fun () -> 42) in
      check_int "with_span is transparent" 42 v;
      Obs.emit_span ~cat:"c" ~tid:7 ~args:[ ("k", "v") ] ~name:"manual"
        ~ts_ns:5L ~dur_ns:2L ();
      let spans = Obs.spans () in
      check_int "both spans recorded" 2 (List.length spans);
      let first = List.hd spans in
      check_string "sorted by start time" "manual" first.Obs.name;
      check_int "tid kept" 7 first.Obs.tid)

(* -- trace JSON validity ---------------------------------------------------- *)

(* The trace must be well-formed JSON with the Chrome trace-event shape; it
   is read back with the strict parser every other artifact uses. *)
let test_trace_json () =
  let module J = SG.Json in
  with_obs ~tracing:true ~metrics:false (fun () ->
      Obs.with_span ~cat:"stage" "stage:one" (fun () -> ());
      Obs.emit_span ~cat:"engine" ~tid:3
        ~args:[ ("target", "FR \"quoted\"\n") ]
        ~name:"engine:classify"
        ~ts_ns:(Obs.Clock.now_ns ()) ~dur_ns:1234L ();
      let json = Obs.Trace_writer.to_json (Obs.spans ()) in
      let v =
        match J.parse json with
        | Ok v -> v
        | Error m -> Alcotest.failf "trace is not valid JSON: %s" m
      in
      let events =
        match J.member "traceEvents" v with
        | Some (J.List evs) -> evs
        | _ -> Alcotest.fail "no traceEvents array"
      in
      check_int "both spans exported" 2 (List.length events);
      List.iter
        (fun ev ->
          let num k =
            match J.member k ev with
            | Some (J.Num x) -> x
            | _ -> Alcotest.failf "event field %s missing" k
          in
          check_bool "ts is non-negative" true (num "ts" >= 0.0);
          check_bool "dur is non-negative" true (num "dur" >= 0.0);
          check_bool "ph is X" true (J.member "ph" ev = Some (J.Str "X")))
        events;
      check_bool "escaped arg reads back" true
        (List.exists
           (fun ev ->
             Option.bind (J.member "args" ev) (J.member "target")
             = Some (J.Str "FR \"quoted\"\n"))
           events))

(* -- observation never changes results -------------------------------------- *)

let obs_jobs () =
  let job_of (spec : Workloads.Attacks.spec) =
    SG.Pipeline.job ?settings:spec.Workloads.Attacks.settings
      ~init:spec.Workloads.Attacks.init ?victim:spec.Workloads.Attacks.victim
      ~name:(Isa.Program.name spec.Workloads.Attacks.program)
      spec.Workloads.Attacks.program
  in
  [|
    job_of (Workloads.Attacks.flush_reload ~style:Workloads.Attacks.Iaik ());
    job_of (Workloads.Attacks.prime_probe ~style:Workloads.Attacks.Jzhang ());
    job_of (Workloads.Attacks.flush_flush ());
  |]

(* QCheck property: for any switch combination, sample rate and engine
   knobs, observability leaves models byte-identical and verdicts
   bit-identical.  The baseline runs with everything off; the probe run
   with the drawn switches. *)
let prop_observation_is_pure =
  QCheck.Test.make ~name:"tracing/metrics leave models and verdicts identical"
    ~count:12
    QCheck.(
      quad bool bool
        (float_range 0.0 1.0)
        (pair bool (int_range 1 4)))
    (fun (tracing, metrics, rate, (prune, domains)) ->
      let jobs = obs_jobs () in
      let rng = Sutil.Rng.create 77 in
      let repo =
        SG.Detector.prepare
          (Experiments.Common.repository ~rng
             [ Workloads.Label.Fr_family; Workloads.Label.Pp_family ])
      in
      let baseline_models =
        with_obs ~tracing:false ~metrics:false (fun () ->
            SG.Pipeline.build_models_batch ~domains jobs)
      in
      let baseline_verdicts, _, _ =
        with_obs ~tracing:false ~metrics:false (fun () ->
            SG.Engine.classify_batch ~prune ~domains repo baseline_models)
      in
      let models, verdicts =
        with_obs ~tracing ~metrics (fun () ->
            Obs.set_span_sample_rate rate;
            let models = SG.Pipeline.build_models_batch ~domains jobs in
            let verdicts, _, _ =
              SG.Engine.classify_batch ~prune ~domains repo models
            in
            (models, verdicts))
      in
      let bytes = Array.map SG.Persist.model_to_string in
      if bytes models <> bytes baseline_models then
        QCheck.Test.fail_report "models changed under observation";
      if verdicts <> baseline_verdicts then
        QCheck.Test.fail_report "verdicts changed under observation";
      true)

let test_service_metrics_snapshot () =
  let jobs = obs_jobs () in
  let baseline =
    with_obs ~tracing:false ~metrics:false (fun () ->
        let models, report = Result.get_ok (SG.Service.build SG.Config.default jobs) in
        check_bool "metrics absent when disabled" true
          (report.SG.Service.metrics = None);
        models)
  in
  with_obs ~tracing:true ~metrics:true (fun () ->
      let models, report =
        Result.get_ok (SG.Service.build SG.Config.default jobs)
      in
      check_bool "models identical under full observability" true
        (Array.map SG.Persist.model_to_string models
        = Array.map SG.Persist.model_to_string baseline);
      match report.SG.Service.metrics with
      | None -> Alcotest.fail "metrics enabled but snapshot missing"
      | Some snap ->
        (match find_value "scaguard_models_built_total" snap with
        | Obs.Registry.Counter_value v ->
          check_int "build counter covers the jobs" (Array.length jobs) v
        | _ -> Alcotest.fail "expected a counter");
        check_bool "stage timing recorded" true
          (List.exists
             (fun e ->
               e.Obs.Registry.entry_name = "scaguard_stage_seconds"
               && e.Obs.Registry.entry_labels = [ ("stage", "build") ])
             snap);
        check_bool "spans recorded" true (Obs.spans () <> []))

let () =
  Alcotest.run "obs"
    [
      ( "clock",
        [ Alcotest.test_case "monotone" `Quick test_clock_monotone ] );
      ( "registry",
        [
          Alcotest.test_case "counter" `Quick test_counter_exact;
          Alcotest.test_case "gauge+reset" `Quick test_gauge_and_reset;
          Alcotest.test_case "histogram" `Quick test_histogram_exact;
          Alcotest.test_case "concurrent exactness" `Quick
            test_concurrent_exact;
          Alcotest.test_case "prometheus format" `Quick test_prometheus_format;
          Alcotest.test_case "prometheus escaping" `Quick
            test_prometheus_escaping;
          Alcotest.test_case "prometheus name charset" `Quick
            test_prometheus_name_charset;
          Alcotest.test_case "prometheus header ordering" `Quick
            test_prometheus_header_ordering;
          Alcotest.test_case "build info export" `Quick test_build_info_export;
        ] );
      ( "tracing",
        [
          Alcotest.test_case "sampling" `Quick test_sampling;
          Alcotest.test_case "spans" `Quick test_spans;
          Alcotest.test_case "trace JSON" `Quick test_trace_json;
        ] );
      ( "purity",
        [
          QCheck_alcotest.to_alcotest prop_observation_is_pure;
          Alcotest.test_case "service metrics snapshot" `Quick
            test_service_metrics_snapshot;
        ] );
    ]
