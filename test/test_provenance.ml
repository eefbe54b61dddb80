(* Verdict provenance and the structured event log: builder/record shape,
   the encoder pinned by golden strings and a parse-back property, records
   returned one per target in target order (also past 16,384 targets and
   under several domains), the core guarantee that asking for records
   changes no verdict bit, no model byte and no engine work counter, and
   the log's levels, stamping and bounded buffer. *)

module SG = Scaguard
module P = Scaguard.Provenance
module Log = Scaguard.Log

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

(* Every test captures into a fresh value of its own (at [level], into a
   buffer of [capacity]), with the stderr mirror off. *)
let with_log ?(log = true) ?(level = Log.Debug) ?capacity f =
  f
    (SG.Obs.create
       ?capture:(if log then Some level else None)
       ?capacity ~mirror:None ())

let bits v = Int64.bits_of_float v.SG.Detector.best_score

(* -- builder and record shape ------------------------------------------------ *)

let test_builder_record () =
  let b = P.start ~target:"fr-iaik" ~threshold:60.0 in
  P.set_path b P.Indexed;
  P.index_event b (P.Node_visited { bound = 12.5; members = 4 });
  P.index_event b (P.Subtree_pruned { bound = 80.0; members = 3 });
  P.candidate b ~poc:"fr" ~family:"FR-F" ~lb:10.0 (P.Scored 84.0);
  P.candidate b ~poc:"pp" ~family:"PP-F" ~lb:75.0 P.Pruned_lb;
  let r =
    P.finish ~trace_id:"t-7" b ~seq:5
      ~best_matches:[ ("fr", "FR-F", 84.0) ]
      ~best_family:(Some "FR-F") ~best_score:84.0
  in
  check_int "seq is the caller's" 5 r.P.seq;
  check_string "target" "fr-iaik" r.P.target;
  check_bool "the run's trace id stamped" true (r.P.trace_id = Some "t-7");
  check_bool "path" true (r.P.path = P.Indexed);
  check_int "index events kept" 2 (List.length r.P.index_events);
  check_bool "index events in traversal order" true
    (match r.P.index_events with
    | P.Node_visited { members = 4; _ } :: P.Subtree_pruned _ :: [] -> true
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
    (Int64.compare r.P.duration_ns 0L >= 0);
  let bare =
    P.finish (P.start ~target:"t" ~threshold:0.6) ~seq:0 ~best_matches:[]
      ~best_family:None ~best_score:0.0
  in
  check_bool "no trace id, no stamp" true (bare.P.trace_id = None)

(* -- records are return values: one per target, in target order ------------- *)

let job_of (spec : Workloads.Attacks.spec) =
  SG.Pipeline.job ?settings:spec.Workloads.Attacks.settings
    ~init:spec.Workloads.Attacks.init ?victim:spec.Workloads.Attacks.victim
    ~name:(Isa.Program.name spec.Workloads.Attacks.program)
    spec.Workloads.Attacks.program

(* The 4-PoC repository (one PoC per attack family), prepared once. *)
let repo4 =
  lazy
    (SG.Detector.prepare
       (Experiments.Common.repository ~rng:(Sutil.Rng.create 2026)
          Workloads.Label.attack_labels))

(* Seven distinct targets of uneven size, so workers finish out of order. *)
let seven_models =
  lazy
    (let open Workloads.Attacks in
     let quicksort = Workloads.Benign.build "quicksort" (Sutil.Rng.create 7) in
     fst
     @@ SG.Pipeline.build_models_batch ~domains:2
       [|
         job_of (flush_reload ~style:Mastik ());
         job_of (prime_probe ~style:Jzhang ());
         job_of (meltdown_fr ());
         SG.Pipeline.job ~init:quicksort.Workloads.Benign.init
           ~name:quicksort.Workloads.Benign.name
           quicksort.Workloads.Benign.program;
         job_of (spectre_pp ());
         job_of (flush_flush ());
         job_of (evict_reload ());
       |])

let check_aligned what names verdicts records =
  check_int (what ^ ": one record per target") (Array.length names)
    (Array.length records);
  Array.iteri
    (fun i (r : P.t) ->
      if r.P.seq <> i || r.P.target <> names.(i) then
        Alcotest.failf "%s: record %d is seq %d for %s, expected %s" what i
          r.P.seq r.P.target names.(i);
      if Int64.bits_of_float r.P.best_score <> bits verdicts.(i) then
        Alcotest.failf "%s: record %d's score bits differ from its verdict"
          what i)
    records

let test_batch_order_under_domains () =
  let prep = Lazy.force repo4 and models = Lazy.force seven_models in
  let names = Array.map (fun m -> m.SG.Model.name) models in
  for run = 1 to 20 do
    let verdicts, records, _ =
      SG.Engine.classify_batch ~explain:true ~domains:4 prep models
    in
    check_aligned (Printf.sprintf "run %d" run) names verdicts records
  done

(* Nothing caps an explained batch: past 2^14 targets there is still one
   record per target, in target order. *)
let test_no_record_cap () =
  let n = 16_385 in
  let jobs =
    Array.init n (fun i ->
        let name = Printf.sprintf "hlt-%05d" i in
        SG.Pipeline.job ~name
          (Isa.Program.assemble ~name [ Isa.Program.Ins Isa.Instr.Halt ]))
  in
  let _, verdicts, _, records =
    Result.get_ok
      (SG.Service.explain SG.Config.default (Lazy.force repo4) jobs)
  in
  check_aligned "16,385 targets"
    (Array.map (fun j -> j.SG.Pipeline.job_name) jobs)
    verdicts records

(* -- the encoder ------------------------------------------------------------- *)

(* The wire format, byte for byte: one indexed record with every index
   event, every outcome, an infinite bound, a trace id and two tied
   matches, and one linear record. *)
let golden_indexed =
  {
    P.seq = 3;
    target = "fr-mastik";
    trace_id = Some "tr-golden";
    worker = 1;
    path = P.Indexed;
    index_events =
      [
        P.Node_visited { bound = 0.125; members = 4 };
        P.Subtree_pruned { bound = infinity; members = 3 };
        P.Member_pruned { bound = 0.5 };
      ];
    candidates =
      [
        { P.poc = "fr-iaik"; family = "FR-F"; lb = Some 0.0625; outcome = P.Scored 0.9107 };
        { P.poc = "pp-iaik"; family = "PP-F"; lb = Some 0.75; outcome = P.Pruned_lb };
        { P.poc = "ff"; family = "FF-F"; lb = None; outcome = P.Abandoned };
        { P.poc = "er"; family = "ER-F"; lb = None; outcome = P.Pruned };
      ];
    best_matches = [ ("fr-iaik", "FR-F", 0.9107); ("fr-nepoche", "FR-F", 0.9107) ];
    best_family = Some "FR-F";
    best_score = 0.9107;
    threshold = 0.6;
    duration_ns = 123456L;
  }

let golden_linear =
  {
    P.seq = 0;
    target = "quicksort";
    trace_id = None;
    worker = 0;
    path = P.Linear;
    index_events = [];
    candidates =
      [ { P.poc = "fr-iaik"; family = "FR-F"; lb = Some 0.1; outcome = P.Scored 0.31 } ];
    best_matches = [ ("fr-iaik", "FR-F", 0.31) ];
    best_family = None;
    best_score = 0.31;
    threshold = 0.6;
    duration_ns = 42L;
  }

let test_golden_json () =
  check_string "indexed record"
    {|{"seq":3,"target":"fr-mastik","trace_id":"tr-golden","worker":1,"path":"indexed","index":[{"event":"visit","bound":0.125,"members":4},{"event":"prune_subtree","bound":"Infinity","members":3},{"event":"prune_member","bound":0.5}],"candidates":[{"poc":"fr-iaik","family":"FR-F","lb":0.0625,"outcome":"scored","score":0.91069999999999995},{"poc":"pp-iaik","family":"PP-F","lb":0.75,"outcome":"pruned_lb"},{"poc":"ff","family":"FF-F","outcome":"abandoned"},{"poc":"er","family":"ER-F","outcome":"pruned"}],"best":{"matches":[{"poc":"fr-iaik","family":"FR-F","score":0.91069999999999995},{"poc":"fr-nepoche","family":"FR-F","score":0.91069999999999995}],"family":"FR-F","score":0.91069999999999995,"score_bits":"4606378075906569037"},"threshold":0.59999999999999998,"duration_ns":"123456"}|}
    (SG.Json.to_string (P.to_json golden_indexed));
  check_string "linear record"
    {|{"seq":0,"target":"quicksort","worker":0,"path":"linear","candidates":[{"poc":"fr-iaik","family":"FR-F","lb":0.10000000000000001,"outcome":"scored","score":0.31}],"best":{"matches":[{"poc":"fr-iaik","family":"FR-F","score":0.31}],"family":null,"score":0.31,"score_bits":"4599256083455845335"},"threshold":0.59999999999999998,"duration_ns":"42"}|}
    (SG.Json.to_string (P.to_json golden_linear));
  check_string "JSONL: one line per record, in array order"
    (SG.Json.to_string (P.to_json golden_indexed)
    ^ "\n"
    ^ SG.Json.to_string (P.to_json golden_linear)
    ^ "\n")
    (P.to_jsonl [| golden_indexed; golden_linear |])

(* The text rendering [scaguard explain] prints, byte for byte. *)
let test_golden_text () =
  let render r = Format.asprintf "%a@." P.pp r in
  check_string "indexed record"
    "fr-mastik: ATTACK FR-F  (best 91.07% vs threshold 60%) [indexed, 0.123 ms, trace tr-golden]\n\
    \  index: visited 1 nodes (4 models), cut 1 subtrees (3 models), screened out 1 members\n\
    \  candidates (evaluation order):\n\
    \    fr-iaik                (FR-F):  91.07%  (lb 6.25%)\n\
    \    pp-iaik                (PP-F): pruned by lower bound  (lb 75.00%)\n\
    \    ff                     (FF-F): abandoned mid-DP (cutoff)\n\
    \    er                     (ER-F): pruned\n\
    \  best matches: fr-iaik/FR-F 91.07% fr-nepoche/FR-F 91.07%\n"
    (render golden_indexed);
  check_string "linear record"
    "quicksort: benign  (best 31.00% vs threshold 60%) [linear scan, 0.000 ms]\n\
    \  candidates (evaluation order):\n\
    \    fr-iaik                (FR-F):  31.00%  (lb 10.00%)\n\
    \  best matches: fr-iaik/FR-F 31.00%\n"
    (render golden_linear)

(* Strings exercise the writer's escapes; floats cover signed zeros,
   subnormal/huge magnitudes and every non-finite value, and best_score
   takes raw bit patterns, NaN payloads included. *)
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

let gen_record =
  QCheck.Gen.(
    map
      (fun ( ((seq, target), (trace_id, worker)),
             (path, (index_events, candidates)),
             ((best_matches, best_family), (best_score, (threshold, duration_ns)))
           ) ->
        {
          P.seq;
          target;
          trace_id;
          worker;
          path;
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
         (pair (oneofl [ P.Linear; P.Indexed ])
            (pair (list_size (0 -- 5) gen_index_event)
               (list_size (0 -- 5) gen_candidate)))
         (pair
            (pair
               (list_size (0 -- 3) (triple gen_str gen_str gen_float))
               (opt gen_str))
            (pair
               (oneof [ gen_float; map Int64.float_of_bits gen_int64 ])
               (pair gen_float gen_int64)))))

let arb_record =
  QCheck.make ~print:(fun r -> SG.Json.to_string (P.to_json r)) gen_record

(* [compare] rather than [=]: a NaN must equal itself (polymorphic compare
   gives floats a total order). *)
let prop_jsonl_parses_back =
  QCheck.Test.make
    ~name:"line parses to to_json r, exact bits"
    ~count:300 arb_record (fun r ->
      let line = P.to_jsonl [| r |] in
      check_bool "one newline-terminated line per record" true
        (String.index_opt line '\n' = Some (String.length line - 1));
      match SG.Json.parse (String.trim line) with
      | Error m -> QCheck.Test.fail_reportf "JSONL line does not parse: %s" m
      | Ok j ->
        if compare j (P.to_json r) <> 0 then
          QCheck.Test.fail_report "parsed line <> to_json r";
        (match Option.bind (SG.Json.member "best" j) (SG.Json.member "score_bits") with
        | Some (SG.Json.Str s) ->
          Int64.of_string_opt s = Some (Int64.bits_of_float r.P.best_score)
        | _ -> QCheck.Test.fail_report "best.score_bits missing"))

(* -- purity ------------------------------------------------------------------- *)

let prov_jobs () =
  [|
    job_of (Workloads.Attacks.flush_reload ~style:Workloads.Attacks.Iaik ());
    job_of (Workloads.Attacks.prime_probe ~style:Workloads.Attacks.Jzhang ());
    job_of (Workloads.Attacks.flush_flush ());
  |]

let prov_repo () =
  let rng = Sutil.Rng.create 77 in
  Experiments.Common.repository ~rng
    [ Workloads.Label.Fr_family; Workloads.Label.Pp_family ]

let work (s : SG.Engine.stats) =
  SG.Engine.
    [
      s.pairs; s.cells; s.pairs_pruned_lb; s.pairs_abandoned; s.cells_saved;
      s.lb_evals; s.pairs_pruned_index; s.nodes_visited;
    ]

(* QCheck property: asking for records, with log capture toggled, leaves
   models byte-identical, verdicts bit-identical and the engine's work
   counters equal to the run that asks for none — across prune, the
   repository index and 1-4 domains. *)
let prop_explain_is_pure =
  QCheck.Test.make
    ~name:
      "provenance/log capture leaves models and verdicts bit-identical, work \
       counters equal"
    ~count:8
    QCheck.(quad bool bool bool (int_range 1 4))
    (fun (log, prune, indexed, domains) ->
      let jobs = prov_jobs () in
      let index =
        if indexed then
          Some { SG.Vpindex.default_spec with SG.Vpindex.mode = SG.Vpindex.Force }
        else None
      in
      let prep = SG.Detector.prepare ?index (prov_repo ()) in
      let run ~log ~explain =
        with_log ~log (fun obs ->
            let models, _ = SG.Pipeline.build_models_batch ~obs ~domains jobs in
            let verdicts, records, stats =
              SG.Engine.classify_batch ~obs ~prune ~domains ~explain prep
                models
            in
            (models, verdicts, records, stats))
      in
      let base_models, base_verdicts, base_records, base_stats =
        run ~log:false ~explain:false
      in
      let models, verdicts, records, stats = run ~log ~explain:true in
      let bytes = Array.map SG.Persist.model_to_string in
      if bytes models <> bytes base_models then
        QCheck.Test.fail_report "models changed under capture";
      if verdicts <> base_verdicts || Array.map bits verdicts <> Array.map bits base_verdicts
      then QCheck.Test.fail_report "verdicts changed under explain";
      if work stats <> work base_stats then
        QCheck.Test.fail_report "engine work counters changed under explain";
      Array.length base_records = 0 && Array.length records = Array.length jobs)

(* [Service.explain] is [screen_prepared] plus records — same bits, one
   record per job, in job order. *)
let test_service_explain () =
  let jobs = prov_jobs () in
  let prepared = SG.Detector.prepare (prov_repo ()) in
  let config = SG.Config.default in
  let _, base_verdicts, _ =
    Result.get_ok (SG.Service.screen_prepared config prepared jobs)
  in
  let _, verdicts, _, records =
    Result.get_ok (SG.Service.explain config prepared jobs)
  in
  check_bool "verdicts bit-identical to screen_prepared" true
    (verdicts = base_verdicts
    && Array.map bits verdicts = Array.map bits base_verdicts);
  check_aligned "service explain"
    (Array.map (fun j -> j.SG.Pipeline.job_name) jobs)
    base_verdicts records

(* -- the event log ------------------------------------------------------------ *)

let test_log_levels_and_shape () =
  with_log ~level:Log.Info (fun obs ->
      Log.debug ~obs "t.debug" "below the capture level";
      Log.info ~obs "t.info" ~fields:[ ("n", SG.Json.Num 3.0) ] "hello %d" 7;
      Log.error ~obs "t.error" "boom";
      match SG.Obs.events obs with
      | [ a; b ] ->
        check_string "debug was filtered, info first" "t.info" a.SG.Obs.event;
        check_string "printf message" "hello 7" a.SG.Obs.message;
        check_bool "typed fields kept" true
          (a.SG.Obs.fields = [ ("n", SG.Json.Num 3.0) ]);
        check_bool "error level" true (b.SG.Obs.level = Log.Error);
        check_bool "seq orders emissions" true (a.SG.Obs.seq < b.SG.Obs.seq);
        check_bool "timestamps are monotone" true
          (Int64.compare a.SG.Obs.ts_ns b.SG.Obs.ts_ns <= 0)
      | evs -> Alcotest.failf "expected 2 events, got %d" (List.length evs))

(* A value derived with [Obs.with_trace_id] shares its parent's capture but
   stamps its own trace id. *)
let test_log_trace_stamping () =
  with_log (fun obs ->
      let traced = SG.Obs.with_trace_id obs (Some "amb-1") in
      Log.info ~obs:traced "t.ambient" "x";
      Log.event
        ~obs:(SG.Obs.with_trace_id traced (Some "explicit"))
        Log.Warn "t.explicit" "y";
      Log.info ~obs "t.bare" "z";
      match SG.Obs.events obs with
      | [ a; b; c ] ->
        check_bool "the value's trace id stamped" true
          (a.SG.Obs.trace_id = Some "amb-1");
        check_bool "a derived trace id wins" true
          (b.SG.Obs.trace_id = Some "explicit");
        check_bool "no trace id, no stamp" true (c.SG.Obs.trace_id = None)
      | evs -> Alcotest.failf "expected 3 events, got %d" (List.length evs))

let test_log_jsonl_bounded () =
  with_log ~capacity:2 (fun obs ->
      for i = 1 to 4 do
        Log.info ~obs "t.flood" "event %d" i
      done;
      let evs = SG.Obs.events obs in
      check_int "buffer is bounded" 2 (List.length evs);
      check_int "overflow counted" 2 (SG.Obs.dropped obs);
      let lines =
        List.filter
          (fun l -> l <> "")
          (String.split_on_char '\n' (Log.to_jsonl obs))
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
  with_log (fun obs ->
      let e = SG.Err.Io { path = "/tmp/x"; msg = "permission denied" } in
      Log.err ~obs "t.err" e;
      match SG.Obs.events obs with
      | [ ev ] ->
        check_bool "error level" true (ev.SG.Obs.level = Log.Error);
        check_string "mirror-compatible message"
          (Printf.sprintf "scaguard: %s" (SG.Err.to_string e))
          ev.SG.Obs.message;
        check_bool "kind field" true
          (List.assoc_opt "kind" ev.SG.Obs.fields = Some (SG.Json.Str "io"));
        check_bool "path field" true
          (List.assoc_opt "path" ev.SG.Obs.fields = Some (SG.Json.Str "/tmp/x"))
      | evs -> Alcotest.failf "expected 1 event, got %d" (List.length evs))

let () =
  Alcotest.run "provenance"
    [
      ( "records",
        [
          Alcotest.test_case "builder record" `Quick test_builder_record;
          Alcotest.test_case "target order under 4 domains" `Quick
            test_batch_order_under_domains;
          Alcotest.test_case "16,385 targets, 16,385 records" `Slow
            test_no_record_cap;
        ] );
      ( "codec",
        [
          Alcotest.test_case "golden to_json" `Quick test_golden_json;
          Alcotest.test_case "golden text" `Quick test_golden_text;
          QCheck_alcotest.to_alcotest ~long:false prop_jsonl_parses_back;
        ] );
      ( "purity",
        [
          QCheck_alcotest.to_alcotest ~long:false prop_explain_is_pure;
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
