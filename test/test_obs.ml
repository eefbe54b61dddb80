(* The observability subsystem: latency histogram placement, Prometheus
   exposition shape, Chrome trace-event JSON validity, deterministic
   sampling, the core guarantee that turning tracing/metrics on changes no
   verdict bit and no model byte, that a report's series describe its own
   run, and that two runs in flight at once never stamp each other's trace
   id or count each other's work. *)

module SG = Scaguard
module Obs = Scaguard.Obs

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

(* Every test runs under a fresh value of its own. *)
let with_obs ?sample_rate ~tracing ~metrics f =
  f (Obs.create ~tracing ~metrics ?sample_rate ())

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

(* -- latency histograms ----------------------------------------------------- *)

let test_histogram_exact () =
  let h = Obs.Hist.create () in
  (* edge values land in the bucket they bound (le): 1us and below in the
     first, just above 1us in the second, 10s in the last finite bucket,
     anything above it in +Inf *)
  List.iter (Obs.Hist.observe_ns h) [ 500; 1_000; 1_001; 10_000_000_000 ];
  Obs.Hist.observe_s h 11.0;
  let v = Obs.Hist.value h in
  let expect = Array.make 23 0 in
  expect.(0) <- 2;
  expect.(1) <- 1;
  expect.(21) <- 1;
  expect.(22) <- 1;
  Alcotest.(check (array int)) "bucket counts" expect v.Obs.Prom.counts;
  check_int "count" 5 v.Obs.Prom.count;
  check_int "count reads the record" 5 (Obs.Hist.count h);
  check_bool "sum in seconds" true
    (Float.abs (v.Obs.Prom.sum -. 21.000002501) < 1e-9);
  check_int "22 finite edges" 22 (Array.length v.Obs.Prom.bounds);
  (* per-worker records add up to the whole *)
  let into = Obs.Hist.create () in
  Obs.Hist.add ~into h;
  Obs.Hist.add ~into h;
  check_int "merged count" 10 (Obs.Hist.count into);
  check_int "merged +Inf bucket" 2 (Obs.Hist.value into).Obs.Prom.counts.(22)

(* -- Prometheus exposition -------------------------------------------------- *)

let test_prometheus_format () =
  let text =
    Obs.Prom.to_prometheus
      [
        Obs.Prom.series ~labels:[] ~help:"a counter" "x_total" (Counter 3);
        Obs.Prom.series
          ~labels:[ ("stage", "build") ]
          ~help:"" "lat_seconds"
          (Histogram
             { bounds = [| 0.5; 1.0 |]; counts = [| 1; 1; 1 |]; sum = 3.0; count = 3 });
      ]
  in
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
  let lines =
    String.split_on_char '\n'
      (Obs.Prom.to_prometheus
         [
           Obs.Prom.series
             ~labels:[ ("v", "a\\b\"c\nd") ]
             ~help:"backslash \\ quote \" newline\nhelp" "esc_total" (Counter 1);
         ])
  in
  let has line = List.mem line lines in
  check_bool "label value escapes \\ \" and newline" true
    (has "esc_total{v=\"a\\\\b\\\"c\\nd\"} 1");
  check_bool "HELP escapes \\ and newline, keeps the quote literal" true
    (has "# HELP esc_total backslash \\\\ quote \" newline\\nhelp")

(* The full stock series set — a daemon's exposition after a detect, a
   parse reject and a bad request, so every family and label is present —
   carries only legal metric and label names. *)
let two_family_repo =
  lazy
    (Experiments.Common.repository ~rng:(Sutil.Rng.create 77)
       [ Workloads.Label.Fr_family; Workloads.Label.Pp_family ])

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
  let resolve ~seed:_ _ =
    Ok
      (SG.Pipeline.job ~name:"FF"
         (Workloads.Attacks.flush_flush ()).Workloads.Attacks.program)
  in
  let server =
    Result.get_ok
      (SG.Server.create ~obs:(Obs.create ~metrics:true ())
         ~config:SG.Config.default ~resolve
         ~prepared:(SG.Detector.prepare (Lazy.force two_family_repo))
         ())
  in
  let conn = SG.Server.connect server ~emit:ignore in
  SG.Server.feed server conn
    "{\"id\":1,\"op\":\"detect\",\"targets\":[\"ff\"]}\nnot json\n{\"id\":2,\"op\":\"nope\"}\n";
  ignore (SG.Server.drain server);
  let samples =
    List.filter
      (fun l -> l <> "" && l.[0] <> '#')
      (String.split_on_char '\n' (SG.Server.exposition server))
  in
  check_bool "exposition is non-trivial" true (List.length samples > 20);
  List.iter
    (fun line ->
      let series = List.hd (String.split_on_char ' ' line) in
      let name, labels =
        match String.index_opt series '{' with
        | None -> (series, [])
        | Some i ->
          ( String.sub series 0 i,
            List.map
              (fun kv -> List.hd (String.split_on_char '=' kv))
              (String.split_on_char ','
                 (String.sub series (i + 1) (String.length series - i - 2))) )
      in
      check_bool (Printf.sprintf "metric name %S is legal" name) true
        (metric_ok name);
      List.iter
        (fun k ->
          check_bool (Printf.sprintf "label name %S is legal" k) true
            (label_ok k))
        labels)
    samples

let test_prometheus_header_ordering () =
  let series stage v =
    Obs.Prom.series ~labels:[ ("stage", stage) ] ~help:"latency" "multi_seconds"
      (Histogram { bounds = [| 1.0 |]; counts = v; sum = 1.0; count = 1 })
  in
  let lines =
    List.filter
      (fun l -> l <> "")
      (String.split_on_char '\n'
         (Obs.Prom.to_prometheus
            [
              series "a" [| 1; 0 |];
              series "b" [| 0; 1 |];
              Obs.Prom.series ~labels:[] ~help:"c" "after_total" (Counter 1);
            ]))
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
  let lines =
    String.split_on_char '\n'
      (Obs.Prom.to_prometheus (SG.Service.identity ~uptime_s:1.5))
  in
  check_bool "identity gauge is 1" true
    (List.mem
       (Printf.sprintf
          "scaguard_build_info{version=\"%s\",format_version=\"%d\"} 1"
          SG.Service.version SG.Persist.bin_version)
       lines);
  check_bool "uptime is the given seconds" true
    (List.mem "scaguard_uptime_seconds 1.5" lines)

(* -- sampling --------------------------------------------------------------- *)

let test_sampling () =
  let kept sample_rate =
    with_obs ~sample_rate ~tracing:true ~metrics:false (fun obs ->
        List.filter (Obs.sampled obs) (List.init 100 Fun.id))
  in
  check_int "rate 1 keeps everything" 100 (List.length (kept 1.0));
  check_int "rate 0.25 keeps 1 in 4, deterministically" 25
    (List.length (kept 0.25));
  check_bool "stride pattern" true
    (List.mem 0 (kept 0.25) && List.mem 4 (kept 0.25));
  check_bool "rate 0 keeps nothing" true (kept 0.0 = []);
  check_bool "tracing off keeps nothing" true
    (with_obs ~sample_rate:1.0 ~tracing:false ~metrics:false (fun obs ->
         not (Obs.sampled obs 0)));
  Alcotest.check_raises "rate outside [0,1] raises"
    (Invalid_argument "Obs.create: sample_rate must be in [0, 1]")
    (fun () -> ignore (Obs.create ~sample_rate:1.5 ()))

(* -- spans ------------------------------------------------------------------ *)

let test_spans () =
  with_obs ~tracing:false ~metrics:false (fun obs ->
      Obs.emit_span obs ~name:"ignored" ~ts_ns:0L ~dur_ns:1L ();
      check_int "tracing off records nothing" 0 (List.length (Obs.spans obs)));
  with_obs ~tracing:true ~metrics:false (fun obs ->
      let v = Obs.with_span obs "outer" (fun () -> 42) in
      check_int "with_span is transparent" 42 v;
      Obs.emit_span obs ~cat:"c" ~tid:7 ~args:[ ("k", "v") ] ~name:"manual"
        ~ts_ns:5L ~dur_ns:2L ();
      let spans = Obs.spans obs in
      check_int "both spans recorded" 2 (List.length spans);
      let first = List.hd spans in
      check_string "sorted by start time" "manual" first.Obs.name;
      check_int "tid kept" 7 first.Obs.tid;
      check_int "a second value has a sink of its own" 0
        (List.length (Obs.spans (Obs.create ~tracing:true ()))))

(* -- trace JSON validity ---------------------------------------------------- *)

(* The trace must be well-formed JSON with the Chrome trace-event shape; it
   is read back with the strict parser every other artifact uses. *)
let test_trace_json () =
  let module J = SG.Json in
  with_obs ~tracing:true ~metrics:false (fun obs ->
      Obs.with_span obs ~cat:"stage" "stage:one" (fun () -> ());
      Obs.emit_span obs ~cat:"engine" ~tid:3
        ~args:[ ("target", "FR \"quoted\"\n") ]
        ~name:"engine:classify"
        ~ts_ns:(Obs.Clock.now_ns ()) ~dur_ns:1234L ();
      let json = Obs.Trace_writer.to_json (Obs.spans obs) in
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
      let baseline_models, _ = SG.Pipeline.build_models_batch ~domains jobs in
      let baseline_verdicts, _, _ =
        SG.Engine.classify_batch ~prune ~domains repo baseline_models
      in
      let models, verdicts =
        with_obs ~sample_rate:rate ~tracing ~metrics (fun obs ->
            let models, _ = SG.Pipeline.build_models_batch ~obs ~domains jobs in
            let verdicts, _, _ =
              SG.Engine.classify_batch ~obs ~prune ~domains repo models
            in
            (models, verdicts))
      in
      let bytes = Array.map SG.Persist.model_to_string in
      if bytes models <> bytes baseline_models then
        QCheck.Test.fail_report "models changed under observation";
      if verdicts <> baseline_verdicts then
        QCheck.Test.fail_report "verdicts changed under observation";
      true)

(* A series of a report, as its JSON embeds them: a counter's value or a
   histogram's count. *)
let report_series_count ?(labels = []) report name =
  let module J = SG.Json in
  let want =
    match labels with
    | [] -> None
    | ls -> Some (J.Obj (List.map (fun (k, v) -> (k, J.Str v)) ls))
  in
  match J.member "metrics" (SG.Service.report_to_json report) with
  | Some (J.List series) -> (
    match
      List.find_opt
        (fun m -> J.member "name" m = Some (J.Str name) && J.member "labels" m = want)
        series
    with
    | Some m -> (
      match (J.member "value" m, J.member "count" m) with
      | Some (J.Num v), _ | None, Some (J.Num v) -> int_of_float v
      | _ -> Alcotest.failf "series %s has no value" name)
    | None -> Alcotest.failf "report has no series %s" name)
  | _ -> Alcotest.fail "report carries no metrics"

(* QCheck property: two explained runs in flight at once, on two domains,
   each under its own value (its own trace id, tracing, metrics and capture
   on, the mirror off), across engine domain counts and the repository
   index.  Every span and event a value recorded, and every record its run
   returned, carries that run's trace id and no other; both span sinks
   fill; the verdicts are bit-identical to an unobserved
   [screen_prepared]; and each report's series count its own run alone:
   engine counters equal to the unobserved run's, one verdict observation
   per target and one model-build observation per model built. *)
let prop_concurrent_runs_never_cross_stamp =
  QCheck.Test.make ~name:"concurrent runs never cross-stamp" ~count:8
    QCheck.(pair (int_range 1 4) bool)
    (fun (domains, indexed) ->
      let jobs = obs_jobs () in
      let index =
        if indexed then
          Some { SG.Vpindex.default_spec with SG.Vpindex.mode = SG.Vpindex.Force }
        else None
      in
      let prep = SG.Detector.prepare ?index (Lazy.force two_family_repo) in
      let config = { SG.Config.default with SG.Config.domains = Some domains } in
      let _, baseline, baseline_report =
        Result.get_ok (SG.Service.screen_prepared config prep jobs)
      in
      let stats = Option.get baseline_report.SG.Service.engine in
      let work =
        [
          ("scaguard_engine_batches_total", 1);
          ("scaguard_engine_targets_total", stats.SG.Engine.targets);
          ("scaguard_engine_pairs_total", stats.SG.Engine.pairs);
          ("scaguard_engine_dp_cells_total", stats.SG.Engine.cells);
          ("scaguard_engine_pairs_pruned_lb_total", stats.SG.Engine.pairs_pruned_lb);
          ("scaguard_engine_pairs_abandoned_total", stats.SG.Engine.pairs_abandoned);
          ("scaguard_engine_dp_cells_saved_total", stats.SG.Engine.cells_saved);
          ("scaguard_engine_lb_evals_total", stats.SG.Engine.lb_evals);
          ( "scaguard_engine_pairs_pruned_index_total",
            stats.SG.Engine.pairs_pruned_index );
          ( "scaguard_engine_index_nodes_visited_total",
            stats.SG.Engine.nodes_visited );
        ]
      in
      let run trace_id =
        let obs =
          Obs.create ~trace_id ~tracing:true ~metrics:true ~capture:SG.Log.Debug
            ~mirror:None ()
        in
        SG.Log.info ~obs "t.start" "run %s" trace_id;
        let _, verdicts, report, records =
          Result.get_ok (SG.Service.explain ~obs config prep jobs)
        in
        SG.Log.info ~obs "t.done" "run %s" trace_id;
        (obs, verdicts, report, records)
      in
      let other = Domain.spawn (fun () -> run "run-b") in
      let mine = run "run-a" in
      let theirs = Domain.join other in
      let bits = Array.map (fun v -> Int64.bits_of_float v.SG.Detector.best_score) in
      List.iter
        (fun (trace_id, (obs, verdicts, report, records)) ->
          let own = Some trace_id in
          let spans = Obs.spans obs and events = Obs.events obs in
          if spans = [] then QCheck.Test.fail_reportf "%s recorded no span" trace_id;
          List.iter
            (fun sp ->
              if List.assoc_opt "trace_id" sp.Obs.args <> own then
                QCheck.Test.fail_reportf "%s holds span %s of another run"
                  trace_id sp.Obs.name)
            spans;
          if List.map (fun e -> e.Obs.trace_id) events <> [ own; own ] then
            QCheck.Test.fail_reportf "%s holds events of another run" trace_id;
          Array.iter
            (fun r ->
              if r.SG.Provenance.trace_id <> own then
                QCheck.Test.fail_reportf "%s returned a record of another run"
                  trace_id)
            records;
          if verdicts <> baseline || bits verdicts <> bits baseline then
            QCheck.Test.fail_reportf "%s verdicts changed under observation"
              trace_id;
          List.iter
            (fun (name, expected) ->
              let got = report_series_count report name in
              if got <> expected then
                QCheck.Test.fail_reportf "%s: %s is %d, the run did %d" trace_id
                  name got expected)
            (work
            @ [
                ("scaguard_verdict_seconds", Array.length jobs);
                ("scaguard_model_build_seconds", report.SG.Service.built);
                ("scaguard_models_built_total", report.SG.Service.built);
              ]))
        [ ("run-a", mine); ("run-b", theirs) ];
      true)

(* A report's series describe its own run, not the process: under one
   metrics-on value, a repository build and then a screen — the screen's
   series count the screen alone. *)
let test_service_metrics_snapshot () =
  let jobs = obs_jobs () in
  let baseline =
    with_obs ~tracing:false ~metrics:false (fun obs ->
        let models, report =
          Result.get_ok (SG.Service.build ~obs SG.Config.default jobs)
        in
        check_bool "metrics absent when disabled" true
          (report.SG.Service.latency = None
          && SG.Json.member "metrics" (SG.Service.report_to_json report) = None);
        models)
  in
  with_obs ~tracing:true ~metrics:true (fun obs ->
      let models, report =
        Result.get_ok (SG.Service.build ~obs SG.Config.default jobs)
      in
      check_bool "models identical under full observability" true
        (Array.map SG.Persist.model_to_string models
        = Array.map SG.Persist.model_to_string baseline);
      check_int "build counter covers the jobs" (Array.length jobs)
        (report_series_count report "scaguard_models_built_total");
      check_int "stage timing recorded" 1
        (report_series_count ~labels:[ ("stage", "build") ] report
           "scaguard_stage_seconds");
      check_bool "spans recorded" true (Obs.spans obs <> []);
      let repo =
        Array.to_list
          (Array.map (fun model -> { SG.Detector.family = "FR-F"; model }) models)
      in
      let prep = Result.get_ok (SG.Service.prepare SG.Config.default repo) in
      let targets = Array.sub jobs 0 2 in
      let _, _, screen =
        Result.get_ok (SG.Service.screen_prepared ~obs SG.Config.default prep targets)
      in
      check_int "screen: models built = its built" screen.SG.Service.built
        (report_series_count screen "scaguard_models_built_total");
      check_int "screen: targets = its classified" screen.SG.Service.classified
        (report_series_count screen "scaguard_engine_targets_total");
      check_int "screen: one build stage" 1
        (report_series_count ~labels:[ ("stage", "build") ] screen
           "scaguard_stage_seconds");
      check_int "screen: one verdict per target" 2
        (report_series_count screen "scaguard_verdict_seconds"))

let () =
  Alcotest.run "obs"
    [
      ( "clock",
        [ Alcotest.test_case "monotone" `Quick test_clock_monotone ] );
      ( "registry",
        [
          Alcotest.test_case "histogram" `Quick test_histogram_exact;
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
          QCheck_alcotest.to_alcotest prop_concurrent_runs_never_cross_stamp;
          Alcotest.test_case "service metrics snapshot" `Quick
            test_service_metrics_snapshot;
        ] );
    ]
