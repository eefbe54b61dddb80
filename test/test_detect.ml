(* Tests for the unified detector layer (lib/detect): the adapters must be
   prediction-identical to the entry points they wrap, the registry-driven
   Table VI / Fig. 5 drivers must render byte-identical tables to the
   pre-refactor evaluation logic, and the two-tier ensemble at screening
   threshold 0 must be verdict-bit-identical to pure SCAGuard. *)

module L = Workloads.Label
module D = Workloads.Dataset
module E = Experiments
module T6 = E.Table6

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

(* ---- shared small dataset ----------------------------------------------- *)

let small_pairs ~rng ~per_family =
  let samples =
    List.concat_map
      (fun l -> D.mutated_attacks ~rng ~count:per_family l)
      L.attack_labels
    @ D.benign_samples ~rng ~count:(2 * per_family)
  in
  List.map (fun r -> (r, Detect.Run.label r)) (Detect.Run.execute_all samples)

(* ---- registry ------------------------------------------------------------ *)

let test_registry () =
  let keys = Detect.keys () in
  List.iter
    (fun k ->
      check_bool (k ^ " registered") true (Option.is_some (Detect.find k)))
    [
      "svm-nw"; "lr-nw"; "knn-mlfm"; "scadet"; "scaguard"; "anomaly";
      "phased-guard"; "svm-hpc"; "lr-hpc"; "knn-hpc"; "ensemble";
    ];
  check_int "registry size" 11 (List.length keys);
  check_bool "unknown key rejected" true
    (match Detect.find_exn "no-such-detector" with
    | exception Invalid_argument _ -> true
    | _ -> false)

(* ---- Table VI byte-identity ---------------------------------------------- *)

(* The pre-refactor Table VI evaluation, reproduced inline: SCAGuard via
   Common.scaguard_predict, SCADET via Baselines.Scadet, the learned
   baselines via their own train/predict — exactly the logic the registry
   adapters replaced.  Run both paths from separately-seeded rngs and the
   rendered tables must agree byte for byte. *)

let legacy_scaguard_pairs td =
  List.map
    (fun (run, truth) ->
      ( T6.canonize td (E.Common.scaguard_predict (T6.repository_of td) run),
        truth ))
    (T6.test_runs td)

let legacy_scadet_pairs td =
  let rules_apply =
    List.exists
      (fun (p : Scaguard.Detector.poc) ->
        String.equal p.Scaguard.Detector.family (L.to_string L.Pp_family))
      (T6.repository_of td)
  in
  List.map
    (fun ((run : Detect.Run.t), truth) ->
      let prediction =
        if not rules_apply then L.Benign
        else
          match
            Baselines.Scadet.classify run.Detect.Run.sample.D.program
              run.Detect.Run.result
          with
          | Some f -> Option.value ~default:L.Benign (L.of_string f)
          | None -> L.Benign
      in
      (T6.canonize td prediction, truth))
    (T6.test_runs td)

let legacy_learned_pairs ~rng td approach =
  let train_data =
    List.map
      (fun ((run : Detect.Run.t), l) ->
        (run.Detect.Run.result, Detect.label_to_int l))
      (T6.train_runs td)
  in
  let predict =
    match approach with
    | T6.Svm_nw ->
      let m =
        Baselines.Nights_watch.train ~variant:Baselines.Nights_watch.Svm_nw
          ~rng train_data
      in
      Baselines.Nights_watch.predict m
    | T6.Lr_nw ->
      let m =
        Baselines.Nights_watch.train ~variant:Baselines.Nights_watch.Lr_nw
          ~rng train_data
      in
      Baselines.Nights_watch.predict m
    | T6.Knn_mlfm ->
      let m = Baselines.Mlfm.train train_data in
      Baselines.Mlfm.predict m
    | T6.Scadet | T6.Scaguard -> invalid_arg "legacy_learned_pairs"
  in
  List.map
    (fun ((run : Detect.Run.t), truth) ->
      ( T6.canonize td (Detect.label_of_int (predict run.Detect.Run.result)),
        truth ))
    (T6.test_runs td)

let legacy_evaluate_all ~rng ~per_family =
  List.map
    (fun task ->
      let td = T6.prepare ~rng ~per_family task in
      ( task,
        List.map
          (fun a ->
            let pairs =
              match a with
              | T6.Scaguard -> legacy_scaguard_pairs td
              | T6.Scadet -> legacy_scadet_pairs td
              | T6.Svm_nw | T6.Lr_nw | T6.Knn_mlfm ->
                legacy_learned_pairs ~rng td a
            in
            (a, E.Common.metrics ~classes:(T6.classes_of td) pairs))
          T6.approaches ))
    T6.tasks

let test_table6_byte_identical () =
  let per_family = 3 in
  let refactored = T6.evaluate_all ~rng:(Sutil.Rng.create 411) ~per_family in
  let legacy = legacy_evaluate_all ~rng:(Sutil.Rng.create 411) ~per_family in
  check_string "Table VI byte-identical"
    (Sutil.Table.render (T6.to_table legacy))
    (Sutil.Table.render (T6.to_table refactored))

(* ---- Fig. 5 byte-identity -------------------------------------------------- *)

let legacy_fig5 ~rng ~per_family ~thresholds =
  let td = T6.prepare ~rng ~per_family T6.E1 in
  let repo = T6.repository_of td in
  let scored =
    List.map
      (fun (run, truth) ->
        let v =
          Scaguard.Detector.classify ~threshold:0.0 repo (Detect.Run.model run)
        in
        let best =
          match v.Scaguard.Detector.best_matches with
          | (_, family, _) :: _ -> Some (family, v.Scaguard.Detector.best_score)
          | [] -> None
        in
        (best, truth))
      (T6.test_runs td)
  in
  List.map
    (fun threshold ->
      let pairs =
        List.map
          (fun (best, truth) ->
            let prediction =
              match best with
              | Some (family, score) when score >= threshold ->
                Option.value ~default:L.Benign (L.of_string family)
              | Some _ | None -> L.Benign
            in
            (prediction, truth))
          scored
      in
      let s = E.Common.metrics ~classes:L.all pairs in
      {
        E.Fig5.threshold;
        precision = s.Ml.Metrics.precision;
        recall = s.Ml.Metrics.recall;
        f1 = s.Ml.Metrics.f1;
      })
    thresholds

let test_fig5_byte_identical () =
  let per_family = 3 in
  let thresholds = [ 0.1; 0.4; 0.6; 0.9 ] in
  let refactored =
    E.Fig5.evaluate ~rng:(Sutil.Rng.create 412) ~per_family ~thresholds ()
  in
  let legacy = legacy_fig5 ~rng:(Sutil.Rng.create 412) ~per_family ~thresholds in
  check_string "Fig. 5 byte-identical"
    (Sutil.Table.render (E.Fig5.to_table legacy))
    (Sutil.Table.render (E.Fig5.to_table refactored))

(* ---- adapter identity (qcheck) -------------------------------------------- *)

(* Every adapter must predict exactly what its wrapped entry point predicts,
   run for run — the adapters are shims, not reimplementations.  Stateful
   trainers (SVM-NW, LR-NW, Phased-Guard) consume the context rng in
   training order, so the direct path replays the same order from an
   identically-seeded rng. *)
let adapter_identity_prop =
  QCheck.Test.make ~name:"adapters identical to direct entry points" ~count:4
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let pairs = small_pairs ~rng:(Sutil.Rng.create seed) ~per_family:2 in
      let repo =
        E.Common.repository ~rng:(Sutil.Rng.create (seed + 1)) L.attack_labels
      in
      let ctx =
        Detect.make_ctx
          ~rng:(Sutil.Rng.create (seed + 2))
          ~repository:repo ~known_families:L.attack_labels ()
      in
      let drng = Sutil.Rng.create (seed + 2) in
      let int_pairs =
        List.map
          (fun (r, l) -> (Detect.Run.result r, Detect.label_to_int l))
          pairs
      in
      let agree name adapter direct =
        List.iter
          (fun (r, _) ->
            if not (L.equal (adapter r) (direct r)) then
              QCheck.Test.fail_reportf "%s diverges on %s" name
                r.Detect.Run.sample.D.name)
          pairs
      in
      (* same training order on both rngs: svm-nw, lr-nw, phased-guard *)
      let svm = Detect.Svm_nw.train ctx pairs in
      let lr = Detect.Lr_nw.train ctx pairs in
      let pg = Detect.Phased_guard.train ctx pairs in
      let svm_d =
        Baselines.Nights_watch.train ~variant:Baselines.Nights_watch.Svm_nw
          ~rng:drng int_pairs
      in
      let lr_d =
        Baselines.Nights_watch.train ~variant:Baselines.Nights_watch.Lr_nw
          ~rng:drng int_pairs
      in
      let pg_d =
        Baselines.Phased_guard.train ~rng:drng
          ~benign:
            (List.filter_map
               (fun (x, l) ->
                 if l = Detect.label_to_int L.Benign then Some x else None)
               int_pairs)
          ~attacks:
            (List.filter
               (fun (_, l) -> l <> Detect.label_to_int L.Benign)
               int_pairs)
          ~benign_label:(Detect.label_to_int L.Benign)
      in
      agree "svm-nw" (Detect.Svm_nw.predict svm) (fun r ->
          Detect.label_of_int
            (Baselines.Nights_watch.predict svm_d (Detect.Run.result r)));
      agree "lr-nw" (Detect.Lr_nw.predict lr) (fun r ->
          Detect.label_of_int
            (Baselines.Nights_watch.predict lr_d (Detect.Run.result r)));
      agree "phased-guard" (Detect.Phased_guard.predict pg) (fun r ->
          Detect.label_of_int
            (Baselines.Phased_guard.predict pg_d (Detect.Run.result r)));
      let knn = Detect.Knn_mlfm.train ctx pairs in
      let knn_d = Baselines.Mlfm.train int_pairs in
      agree "knn-mlfm" (Detect.Knn_mlfm.predict knn) (fun r ->
          Detect.label_of_int
            (Baselines.Mlfm.predict knn_d (Detect.Run.result r)));
      let sd = Detect.Scadet.train ctx pairs in
      agree "scadet" (Detect.Scadet.predict sd) (fun r ->
          match
            Baselines.Scadet.classify (Detect.Run.program r)
              (Detect.Run.result r)
          with
          | Some f -> Option.value ~default:L.Benign (L.of_string f)
          | None -> L.Benign);
      let sg = Detect.Scaguard_dtw.train ctx pairs in
      agree "scaguard" (Detect.Scaguard_dtw.predict sg) (fun r ->
          E.Common.scaguard_predict repo r);
      let an = Detect.Anomaly.train ctx pairs in
      let an_d =
        Baselines.Anomaly.train
          (List.filter_map
             (fun (x, l) ->
               if l = Detect.label_to_int L.Benign then Some x else None)
             int_pairs)
      in
      agree "anomaly" (Detect.Anomaly.predict an) (fun r ->
          if Baselines.Anomaly.is_attack an_d (Detect.Run.result r) then
            L.Fr_family
          else L.Benign);
      true)

(* ---- ensemble: tau = 0 bit-identity (qcheck) -------------------------------- *)

let float_bits_equal a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let verdicts_bit_identical (a : Scaguard.Detector.verdict)
    (b : Scaguard.Detector.verdict) =
  Option.equal String.equal a.Scaguard.Detector.best_family
    b.Scaguard.Detector.best_family
  && float_bits_equal a.Scaguard.Detector.best_score
       b.Scaguard.Detector.best_score
  && List.length a.Scaguard.Detector.best_matches
     = List.length b.Scaguard.Detector.best_matches
  && List.for_all2
       (fun (n1, f1, s1) (n2, f2, s2) ->
         String.equal n1 n2 && String.equal f1 f2 && float_bits_equal s1 s2)
       a.Scaguard.Detector.best_matches b.Scaguard.Detector.best_matches

(* Anomaly z-scores are >= 0, so a screening threshold of 0 never fast-
   rejects: the ensemble must then be bit-identical to pure SCAGuard on
   every run — same verdict record, same score bits. *)
let ensemble_tau0_prop =
  QCheck.Test.make ~name:"ensemble at tau 0 bit-identical to scaguard" ~count:4
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let pairs = small_pairs ~rng:(Sutil.Rng.create seed) ~per_family:2 in
      let repo =
        E.Common.repository ~rng:(Sutil.Rng.create (seed + 1)) L.attack_labels
      in
      let ctx =
        Detect.make_ctx
          ~rng:(Sutil.Rng.create (seed + 2))
          ~repository:repo ~known_families:L.attack_labels ~ensemble_tau:0.0 ()
      in
      let en = Detect.Ensemble.train ctx pairs in
      let sg = Detect.Scaguard_dtw.train ctx pairs in
      Detect.Ensemble.reset_stats ();
      List.iter
        (fun (r, _) ->
          let ve = Detect.Ensemble.classify en r in
          let vs = Detect.Scaguard_dtw.classify sg r in
          if not (verdicts_bit_identical ve vs) then
            QCheck.Test.fail_reportf "verdict diverges on %s"
              r.Detect.Run.sample.D.name;
          if
            not
              (L.equal (Detect.Ensemble.predict en r)
                 (Detect.Scaguard_dtw.predict sg r))
          then
            QCheck.Test.fail_reportf "prediction diverges on %s"
              r.Detect.Run.sample.D.name;
          if Detect.Ensemble.binary_detect en r
             <> Detect.Scaguard_dtw.binary_detect sg r
          then
            QCheck.Test.fail_reportf "detection bit diverges on %s"
              r.Detect.Run.sample.D.name)
        pairs;
      let s = Detect.Ensemble.stats () in
      (* tau 0: everything escalates, nothing is fast-rejected *)
      s.Detect.Ensemble.fast_rejects = 0)

(* ---- ensemble counter accounting -------------------------------------------- *)

let test_ensemble_counters () =
  let pairs = small_pairs ~rng:(Sutil.Rng.create 413) ~per_family:2 in
  let repo = E.Common.repository ~rng:(Sutil.Rng.create 414) L.attack_labels in
  let ctx =
    Detect.make_ctx
      ~rng:(Sutil.Rng.create 415)
      ~repository:repo ~known_families:L.attack_labels ~ensemble_tau:2.0 ()
  in
  let en = Detect.Ensemble.train ctx pairs in
  Detect.Ensemble.reset_stats ();
  let n = List.length pairs in
  List.iter (fun (r, _) -> ignore (Detect.Ensemble.predict en r)) pairs;
  let s = Detect.Ensemble.stats () in
  check_int "every run screened" n s.Detect.Ensemble.screened;
  check_int "screened = rejects + escalations" s.Detect.Ensemble.screened
    (s.Detect.Ensemble.fast_rejects + s.Detect.Ensemble.slow_path);
  check_bool "confirms only on the slow path" true
    (s.Detect.Ensemble.slow_confirms <= s.Detect.Ensemble.slow_path);
  let rate = Detect.Ensemble.slow_path_rate s in
  check_bool "slow-path rate in [0,1]" true (rate >= 0.0 && rate <= 1.0);
  (* the attack-heavy dataset must keep escalating some runs *)
  check_bool "some runs escalate" true (s.Detect.Ensemble.slow_path > 0)

(* ---- showdown smoke ----------------------------------------------------------- *)

let showdown =
  lazy
    (E.Showdown.evaluate ~rng:(Sutil.Rng.create 416) ~per_family:2 ~tau:2.0
       ~detectors:[ "scaguard"; "ensemble" ] ())

let test_showdown_shape () =
  let t = Lazy.force showdown in
  check_int "two rows" 2 (List.length t.E.Showdown.rows);
  let en =
    List.find (fun r -> r.E.Showdown.key = "ensemble") t.E.Showdown.rows
  in
  check_bool "ensemble carries stats" true (Option.is_some en.E.Showdown.ensemble);
  check_bool "table renders" true
    (String.length (Sutil.Table.render (E.Showdown.to_table t)) > 0);
  check_bool "json non-empty" true
    (String.length (Scaguard.Json.to_string (E.Showdown.to_json t)) > 0)

(* The JSON artifact reads back exactly: every float field of the parsed
   text has the bits of the record it was printed from. *)
let test_showdown_json_exact () =
  let module J = Scaguard.Json in
  let t = Lazy.force showdown in
  let doc =
    match J.parse (J.to_string (E.Showdown.to_json t)) with
    | Ok d -> d
    | Error m -> Alcotest.failf "showdown JSON does not parse: %s" m
  in
  let get k o =
    match J.member k o with
    | Some v -> v
    | None -> Alcotest.failf "showdown JSON lacks %S" k
  in
  let bits what k o x =
    match get k o with
    | J.Num y ->
      check_bool
        (Printf.sprintf "%s.%s bit-identical" what k)
        true
        (Int64.bits_of_float x = Int64.bits_of_float y)
    | _ -> Alcotest.failf "%s.%s is not a number" what k
  in
  let scores what o (s : Ml.Metrics.scores) =
    bits what "precision" o s.Ml.Metrics.precision;
    bits what "recall" o s.Ml.Metrics.recall;
    bits what "f1" o s.Ml.Metrics.f1;
    bits what "accuracy" o s.Ml.Metrics.accuracy
  in
  bits "showdown" "tau" doc t.E.Showdown.tau;
  bits "showdown" "prep_s" doc t.E.Showdown.prep_s;
  let rows =
    match get "detectors" doc with
    | J.List l -> l
    | _ -> Alcotest.fail "detectors is not a list"
  in
  check_int "one object per row" (List.length t.E.Showdown.rows)
    (List.length rows);
  List.iter2
    (fun (r : E.Showdown.row) o ->
      let what = r.E.Showdown.key in
      scores (what ^ ".scores") (get "scores" o) r.E.Showdown.scores;
      scores (what ^ ".detection") (get "detection" o) r.E.Showdown.detection;
      bits what "train_s" o r.E.Showdown.train_s;
      bits what "predict_s" o r.E.Showdown.predict_s;
      bits what "throughput" o r.E.Showdown.throughput;
      (match get "per_class" o with
      | J.List cs ->
        List.iter2
          (fun (c : Ml.Metrics.class_scores) co ->
            let what = what ^ ".per_class" in
            bits what "precision" co c.Ml.Metrics.c_precision;
            bits what "recall" co c.Ml.Metrics.c_recall;
            bits what "f1" co c.Ml.Metrics.c_f1)
          r.E.Showdown.per_class cs
      | _ -> Alcotest.fail "per_class is not a list");
      match r.E.Showdown.ensemble with
      | None -> check_bool (what ^ ".ensemble is null") true (get "ensemble" o = J.Null)
      | Some s ->
        bits (what ^ ".ensemble") "slow_path_rate" (get "ensemble" o)
          (Detect.Ensemble.slow_path_rate s))
    t.E.Showdown.rows rows

let () =
  Alcotest.run "detect"
    [
      ("registry", [ Alcotest.test_case "keys" `Quick test_registry ]);
      ( "byte-identity",
        [
          Alcotest.test_case "table6" `Slow test_table6_byte_identical;
          Alcotest.test_case "fig5" `Slow test_fig5_byte_identical;
        ] );
      ( "adapters",
        [ QCheck_alcotest.to_alcotest ~long:true adapter_identity_prop ] );
      ( "ensemble",
        [
          QCheck_alcotest.to_alcotest ~long:true ensemble_tau0_prop;
          Alcotest.test_case "counters" `Quick test_ensemble_counters;
        ] );
      ( "showdown",
        [
          Alcotest.test_case "shape" `Slow test_showdown_shape;
          Alcotest.test_case "json floats read back exactly" `Slow
            test_showdown_json_exact;
        ] );
    ]
