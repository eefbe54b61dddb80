(* Verdict provenance and the structured event log: builder/record shape,
   the ensemble handoff, the bounded sinks, trace-id stamping, the JSON
   codec's exact round-trip (qcheck), and the core guarantee that turning
   capture on changes no verdict bit and no model byte. *)

module SG = Scaguard
module P = Scaguard.Provenance
module Log = Scaguard.Log

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

(* Every test leaves the global switches off, the sinks empty and the
   stderr mirror restored, whatever happens. *)
let with_capture ?(prov = true) ?(log = false) f =
  let mirror = Log.mirror_level () in
  Log.set_mirror_level None;
  P.clear ();
  Log.clear ();
  P.set_capture prov;
  Log.set_capture log;
  Fun.protect
    ~finally:(fun () ->
      P.set_capture false;
      Log.set_capture false;
      P.set_capacity 16384;
      Log.set_capacity 8192;
      Log.set_level Log.Debug;
      Log.set_mirror_level mirror;
      SG.Obs.set_trace_id None;
      P.clear ();
      Log.clear ())
    f

(* -- builder and record shape ------------------------------------------------ *)

let test_builder_record () =
  with_capture (fun () ->
      SG.Obs.set_trace_id (Some "t-7");
      P.note_ensemble ~screen_z:3.5 ~tau:2.0 ~escalated:true;
      let b = P.start ~target:"fr-iaik" ~threshold:60.0 in
      P.set_path b P.Indexed;
      P.index_event b (P.Node_visited { bound = 12.5; members = 4 });
      P.index_event b (P.Subtree_pruned { bound = 80.0; members = 3 });
      P.candidate b ~poc:"fr" ~family:"FR-F" ~lb:10.0 (P.Scored 84.0);
      P.candidate b ~poc:"pp" ~family:"PP-F" ~lb:75.0 P.Pruned_lb;
      P.finish b
        ~best_matches:[ ("fr", "FR-F", 84.0) ]
        ~best_family:(Some "FR-F") ~best_score:84.0;
      match P.records () with
      | [ r ] ->
        check_string "target" "fr-iaik" r.P.target;
        check_bool "ambient trace id stamped" true (r.P.trace_id = Some "t-7");
        check_bool "path" true (r.P.path = P.Indexed);
        (match r.P.ensemble with
        | Some e ->
          check_bool "ensemble note folded in" true
            (e.P.screen_z = 3.5 && e.P.tau = 2.0 && e.P.escalated)
        | None -> Alcotest.fail "ensemble note lost");
        check_int "index events kept" 2 (List.length r.P.index_events);
        check_bool "index events in traversal order" true
          (match r.P.index_events with
          | P.Node_visited { members = 4; _ } :: P.Subtree_pruned _ :: [] ->
            true
          | _ -> false);
        (match r.P.candidates with
        | [ c1; c2 ] ->
          check_string "first candidate" "fr" c1.P.poc;
          check_bool "first outcome" true (c1.P.outcome = P.Scored 84.0);
          check_bool "second pruned with its bound" true
            (c2.P.lb = Some 75.0 && c2.P.outcome = P.Pruned_lb)
        | cs -> Alcotest.failf "expected 2 candidates, got %d" (List.length cs));
        check_bool "best family" true (r.P.best_family = Some "FR-F");
        check_bool "duration is non-negative" true
          (Int64.compare r.P.duration_ns 0L >= 0)
      | rs -> Alcotest.failf "expected 1 record, got %d" (List.length rs))

let test_fast_reject_record () =
  with_capture (fun () ->
      P.note_ensemble ~screen_z:0.4 ~tau:2.0 ~escalated:false;
      P.emit_fast_reject ~target:"benign-1" ~threshold:60.0;
      match P.records () with
      | [ r ] ->
        check_bool "path" true (r.P.path = P.Fast_rejected);
        check_bool "no candidates" true (r.P.candidates = []);
        check_bool "no matches, no family, score 0" true
          (r.P.best_matches = [] && r.P.best_family = None
         && r.P.best_score = 0.0);
        (match r.P.ensemble with
        | Some e -> check_bool "screen evidence kept" true (not e.P.escalated)
        | None -> Alcotest.fail "ensemble note lost")
      | rs -> Alcotest.failf "expected 1 record, got %d" (List.length rs))

(* The note is take-once: a second record on the same domain must not
   inherit the first record's screen evidence. *)
let test_ensemble_note_is_consumed () =
  with_capture (fun () ->
      P.note_ensemble ~screen_z:9.0 ~tau:2.0 ~escalated:false;
      P.emit_fast_reject ~target:"a" ~threshold:60.0;
      P.emit_fast_reject ~target:"b" ~threshold:60.0;
      match P.records () with
      | [ ra; rb ] ->
        check_bool "first record carries the note" true (ra.P.ensemble <> None);
        check_bool "second record does not" true (rb.P.ensemble = None);
        check_bool "seq orders emissions" true (ra.P.seq < rb.P.seq)
      | rs -> Alcotest.failf "expected 2 records, got %d" (List.length rs))

let test_sink_bound () =
  with_capture (fun () ->
      P.set_capacity 4;
      for i = 1 to 6 do
        P.emit_fast_reject ~target:(Printf.sprintf "t%d" i) ~threshold:60.0
      done;
      check_int "sink is bounded" 4 (List.length (P.records ()));
      check_int "overflow is counted" 2 (P.dropped ());
      P.clear ();
      check_int "clear empties the sink" 0 (List.length (P.records ()));
      check_int "clear resets the drop count" 0 (P.dropped ()))

let test_with_capture_scoped () =
  with_capture ~prov:false (fun () ->
      (* a record emitted outside the scope stays in the outer sink *)
      P.emit_fast_reject ~target:"outside" ~threshold:60.0;
      let v, recs =
        P.with_capture (fun () ->
            check_bool "switch forced on inside" true (P.enabled ());
            P.emit_fast_reject ~target:"inside" ~threshold:60.0;
            42)
      in
      check_int "result threaded through" 42 v;
      (match recs with
      | [ r ] -> check_string "exactly the inner records" "inside" r.P.target
      | rs -> Alcotest.failf "expected 1 captured record, got %d" (List.length rs));
      check_bool "switch restored" false (P.enabled ());
      (match P.records () with
      | [ r ] -> check_string "outer sink restored" "outside" r.P.target
      | rs -> Alcotest.failf "expected 1 outer record, got %d" (List.length rs));
      (* the exception path restores too, re-raising the original *)
      (try
         ignore (P.with_capture (fun () -> failwith "boom"));
         Alcotest.fail "exception swallowed"
       with Failure m -> check_string "re-raised" "boom" m);
      check_bool "switch restored after raise" false (P.enabled ()))

(* -- JSON codec: qcheck exact round-trip ------------------------------------- *)

(* Strings exercise the writer's escapes; floats cover signed zeros,
   subnormal/huge magnitudes and every non-finite value (best_score
   additionally round-trips through its authoritative bits, so raw bit
   patterns go in there). *)
let gen_str =
  QCheck.Gen.(
    string_size ~gen:(oneofl [ 'a'; 'z'; 'Z'; '0'; ' '; '"'; '\\'; '\n'; '\t'; '/' ])
      (0 -- 10))

let gen_float =
  QCheck.Gen.(
    oneof
      [
        oneofl
          [
            0.0; -0.0; 1.0; -1.0; 0.6; 47.95; 1e-300; 1e300; infinity;
            neg_infinity; Float.nan;
          ];
        map (fun (a, b) -> float_of_int a /. (float_of_int b +. 0.5)) (pair int int);
      ])

let gen_bits_float =
  QCheck.Gen.(
    map
      (fun (hi, lo) ->
        Int64.float_of_bits
          (Int64.logor
             (Int64.shift_left (Int64.of_int hi) 32)
             (Int64.logand (Int64.of_int lo) 0xFFFFFFFFL)))
      (pair int int))

let gen_int64 =
  QCheck.Gen.(
    map
      (fun (hi, lo) ->
        Int64.logor
          (Int64.shift_left (Int64.of_int hi) 32)
          (Int64.logand (Int64.of_int lo) 0xFFFFFFFFL))
      (pair int int))

let gen_outcome =
  QCheck.Gen.(
    oneof
      [
        map (fun s -> P.Scored s) gen_float;
        return P.Pruned_lb;
        return P.Abandoned;
        return P.Pruned;
      ])

let gen_candidate =
  QCheck.Gen.(
    map
      (fun ((poc, family), (lb, outcome)) -> { P.poc; family; lb; outcome })
      (pair (pair gen_str gen_str) (pair (opt gen_float) gen_outcome)))

let gen_index_event =
  QCheck.Gen.(
    oneof
      [
        map2
          (fun bound members -> P.Node_visited { bound; members })
          gen_float small_nat;
        map2
          (fun bound members -> P.Subtree_pruned { bound; members })
          gen_float small_nat;
        map (fun bound -> P.Member_pruned { bound }) gen_float;
      ])

let gen_ensemble =
  QCheck.Gen.(
    map
      (fun ((screen_z, tau), escalated) -> { P.screen_z; tau; escalated })
      (pair (pair gen_float gen_float) bool))

let gen_record =
  QCheck.Gen.(
    map
      (fun ( ((seq, target), (trace_id, worker)),
             ((path, ensemble), (index_events, candidates)),
             ((best_matches, best_family), (best_score, (threshold, duration_ns)))
           ) ->
        {
          P.seq;
          target;
          trace_id;
          worker;
          path;
          ensemble;
          index_events;
          candidates;
          best_matches;
          best_family;
          best_score;
          threshold;
          duration_ns;
        })
      (triple
         (pair (pair small_nat gen_str) (pair (opt gen_str) small_nat))
         (pair
            (pair (oneofl [ P.Linear; P.Indexed; P.Fast_rejected ])
               (opt gen_ensemble))
            (pair (list_size (0 -- 5) gen_index_event)
               (list_size (0 -- 5) gen_candidate)))
         (pair
            (pair
               (list_size (0 -- 3) (triple gen_str gen_str gen_float))
               (opt gen_str))
            (pair
               (oneof [ gen_float; gen_bits_float ])
               (pair gen_float gen_int64)))))

let arb_record =
  QCheck.make ~print:(fun r -> SG.Json.to_string (P.to_json r)) gen_record

(* [compare] rather than [=]: a NaN must equal itself for the round-trip
   check (polymorphic compare gives floats a total order). *)
let records_equal a b = compare a b = 0

let prop_codec_roundtrip =
  QCheck.Test.make ~name:"of_json (to_json r) = Ok r, also through JSONL"
    ~count:300 arb_record (fun r ->
      (match P.of_json (P.to_json r) with
      | Ok r' when records_equal r r' -> ()
      | Ok _ -> QCheck.Test.fail_report "decode (encode r) <> r"
      | Error m -> QCheck.Test.fail_reportf "decode failed: %s" m);
      (* through the serialized line, as the artifact on disk rides *)
      let line = String.trim (P.to_jsonl [ r ]) in
      check_bool "one line per record" false (String.contains line '\n');
      match SG.Json.parse line with
      | Error m -> QCheck.Test.fail_reportf "JSONL line does not parse: %s" m
      | Ok j -> (
        match P.of_json j with
        | Ok r' when records_equal r r' -> true
        | Ok _ -> QCheck.Test.fail_report "parse/decode round-trip <> r"
        | Error m -> QCheck.Test.fail_reportf "decode after parse failed: %s" m))

(* -- capture purity ----------------------------------------------------------- *)

let prov_jobs () =
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

let prov_repo () =
  let rng = Sutil.Rng.create 77 in
  Experiments.Common.repository ~rng
    [ Workloads.Label.Fr_family; Workloads.Label.Pp_family ]

(* QCheck property: any combination of provenance/log capture and engine
   knobs leaves models byte-identical and verdicts bit-identical to the
   everything-off baseline. *)
let prop_capture_is_pure =
  QCheck.Test.make
    ~name:"provenance/log capture leaves models and verdicts identical"
    ~count:8
    QCheck.(triple bool bool (pair bool (int_range 1 4)))
    (fun (prov, log, (prune, domains)) ->
      let jobs = prov_jobs () in
      let repo = SG.Detector.prepare (prov_repo ()) in
      let baseline_models, baseline_verdicts =
        with_capture ~prov:false ~log:false (fun () ->
            let models = SG.Pipeline.build_models_batch ~domains jobs in
            let verdicts, _ =
              SG.Engine.classify_batch ~prune ~domains repo models
            in
            (models, verdicts))
      in
      let models, verdicts =
        with_capture ~prov ~log (fun () ->
            let models = SG.Pipeline.build_models_batch ~domains jobs in
            let verdicts, _ =
              SG.Engine.classify_batch ~prune ~domains repo models
            in
            (models, verdicts))
      in
      let bytes = Array.map SG.Persist.model_to_string in
      if bytes models <> bytes baseline_models then
        QCheck.Test.fail_report "models changed under capture";
      if verdicts <> baseline_verdicts then
        QCheck.Test.fail_report "verdicts changed under capture";
      true)

(* [Service.explain] is [screen_prepared] plus records — same bits. *)
let test_service_explain () =
  let jobs = prov_jobs () in
  let repo = prov_repo () in
  let prepared = SG.Detector.prepare repo in
  let config = SG.Config.default in
  let _, base_verdicts, _ =
    Result.get_ok (SG.Service.screen_prepared config prepared jobs)
  in
  let _, verdicts, _, records =
    Result.get_ok (SG.Service.explain config prepared jobs)
  in
  check_bool "verdicts bit-identical to screen_prepared" true
    (verdicts = base_verdicts);
  check_int "one record per target" (Array.length jobs) (List.length records);
  check_bool "capture switch left off" false (P.enabled ());
  List.iter
    (fun (r : P.t) ->
      check_bool
        (Printf.sprintf "record %S names a job" r.P.target)
        true
        (Array.exists (fun j -> j.SG.Pipeline.job_name = r.P.target) jobs);
      (* the record's score agrees bit-for-bit with the verdict *)
      let v =
        match
          Array.find_index (fun j -> j.SG.Pipeline.job_name = r.P.target) jobs
        with
        | Some i -> base_verdicts.(i)
        | None -> Alcotest.failf "no verdict for %s" r.P.target
      in
      check_bool "score bits agree with the verdict" true
        (Int64.bits_of_float v.SG.Detector.best_score
        = Int64.bits_of_float r.P.best_score))
    records

(* -- the event log ------------------------------------------------------------ *)

let test_log_levels_and_shape () =
  with_capture ~prov:false ~log:true (fun () ->
      Log.set_level Log.Info;
      Log.debug "t.debug" "below the capture level";
      Log.info "t.info" ~fields:[ ("n", SG.Json.Num 3.0) ] "hello %d" 7;
      Log.error "t.error" "boom";
      match Log.events () with
      | [ a; b ] ->
        check_string "debug was filtered, info first" "t.info" a.Log.event;
        check_string "printf message" "hello 7" a.Log.message;
        check_bool "typed fields kept" true
          (a.Log.fields = [ ("n", SG.Json.Num 3.0) ]);
        check_bool "error level" true (b.Log.level = Log.Error);
        check_bool "seq orders emissions" true (a.Log.seq < b.Log.seq);
        check_bool "timestamps are monotone" true
          (Int64.compare a.Log.ts_ns b.Log.ts_ns <= 0)
      | evs -> Alcotest.failf "expected 2 events, got %d" (List.length evs))

let test_log_trace_stamping () =
  with_capture ~prov:false ~log:true (fun () ->
      SG.Obs.set_trace_id (Some "amb-1");
      Log.info "t.ambient" "x";
      Log.event ~trace_id:"explicit" Log.Warn "t.explicit" "y";
      SG.Obs.set_trace_id None;
      Log.info "t.bare" "z";
      match Log.events () with
      | [ a; b; c ] ->
        check_bool "ambient trace id stamped by default" true
          (a.Log.trace_id = Some "amb-1");
        check_bool "explicit trace id wins" true
          (b.Log.trace_id = Some "explicit");
        check_bool "no ambient, no stamp" true (c.Log.trace_id = None)
      | evs -> Alcotest.failf "expected 3 events, got %d" (List.length evs))

let test_log_jsonl_bounded () =
  with_capture ~prov:false ~log:true (fun () ->
      Log.set_capacity 2;
      for i = 1 to 4 do
        Log.info "t.flood" "event %d" i
      done;
      let evs = Log.events () in
      check_int "buffer is bounded" 2 (List.length evs);
      check_int "overflow counted" 2 (Log.dropped ());
      let lines =
        List.filter
          (fun l -> l <> "")
          (String.split_on_char '\n' (Log.to_jsonl evs))
      in
      check_int "2 events + the dropped marker" 3 (List.length lines);
      List.iter
        (fun l ->
          match SG.Json.parse l with
          | Ok (SG.Json.Obj _) -> ()
          | Ok _ -> Alcotest.failf "line is not an object: %s" l
          | Error m -> Alcotest.failf "line does not parse (%s): %s" m l)
        lines;
      match SG.Json.parse (List.nth lines 2) with
      | Ok marker ->
        check_bool "marker names the loss" true
          (SG.Json.member "event" marker = Some (SG.Json.Str "log.dropped"))
      | Error m -> Alcotest.failf "marker does not parse: %s" m)

let test_log_err_structured () =
  with_capture ~prov:false ~log:true (fun () ->
      let e = SG.Err.Io { path = "/tmp/x"; msg = "permission denied" } in
      Log.err "t.err" e;
      match Log.events () with
      | [ ev ] ->
        check_bool "error level" true (ev.Log.level = Log.Error);
        check_string "mirror-compatible message"
          (Printf.sprintf "scaguard: %s" (SG.Err.to_string e))
          ev.Log.message;
        check_bool "kind field" true
          (List.assoc_opt "kind" ev.Log.fields = Some (SG.Json.Str "io"));
        check_bool "path field" true
          (List.assoc_opt "path" ev.Log.fields = Some (SG.Json.Str "/tmp/x"))
      | evs -> Alcotest.failf "expected 1 event, got %d" (List.length evs))

let () =
  Alcotest.run "provenance"
    [
      ( "records",
        [
          Alcotest.test_case "builder record" `Quick test_builder_record;
          Alcotest.test_case "fast reject" `Quick test_fast_reject_record;
          Alcotest.test_case "ensemble note is take-once" `Quick
            test_ensemble_note_is_consumed;
          Alcotest.test_case "bounded sink" `Quick test_sink_bound;
          Alcotest.test_case "with_capture scoping" `Quick
            test_with_capture_scoped;
        ] );
      ( "codec",
        [ QCheck_alcotest.to_alcotest ~long:false prop_codec_roundtrip ] );
      ( "purity",
        [
          QCheck_alcotest.to_alcotest ~long:false prop_capture_is_pure;
          Alcotest.test_case "service explain" `Quick test_service_explain;
        ] );
      ( "log",
        [
          Alcotest.test_case "levels and shape" `Quick
            test_log_levels_and_shape;
          Alcotest.test_case "trace stamping" `Quick test_log_trace_stamping;
          Alcotest.test_case "jsonl + bounded buffer" `Quick
            test_log_jsonl_bounded;
          Alcotest.test_case "structured err" `Quick test_log_err_structured;
        ] );
    ]
