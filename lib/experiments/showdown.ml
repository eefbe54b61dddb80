module D = Workloads.Dataset
module L = Workloads.Label

type row = {
  key : string;
  name : string;
  scores : Ml.Metrics.scores;
  per_class : Ml.Metrics.class_scores list;
  detection : Ml.Metrics.scores;
  train_s : float;
  predict_s : float;
  tested : int;
  throughput : float;
  ensemble : Detect.Ensemble.stats option;
}

type t = {
  rows : row list;
  per_family : int;
  train_size : int;
  test_size : int;
  tau : float;
  prep_s : float;
  repeats : int;
}

(* Compiler-shaped benign traffic: every MinC benign kernel, compiled
   unoptimized into the training split and optimized into the test split —
   "the same program through a different compiler", which is exactly the
   variation a deployed screen sees. *)
let minc_samples ~optimize =
  List.map
    (fun (name, src) ->
      {
        D.name = Printf.sprintf "minc-%s-O%d" name (if optimize then 1 else 0);
        label = L.Benign;
        program = Minc.Codegen.compile_source ~optimize ~name src;
        init = (fun _ -> ());
        victim = None;
        settings = None;
      })
    Minc.Programs.benign_sources

let dataset ~rng ~per_family =
  let attack_splits =
    List.map
      (fun l -> Common.split_half (D.mutated_attacks ~rng ~count:per_family l))
      L.attack_labels
  in
  let benign_train, benign_test =
    Common.split_half (D.benign_samples ~rng ~count:(2 * per_family))
  in
  let train =
    List.concat_map fst attack_splits @ benign_train @ minc_samples ~optimize:false
  in
  let test =
    List.concat_map snd attack_splits @ benign_test @ minc_samples ~optimize:true
  in
  (train, test)

let label_runs runs = List.map (fun r -> (r, Detect.Run.label r)) runs

let binarize_pairs pairs =
  List.map (fun (p, a) -> (Common.binarize p, Common.binarize a)) pairs

let classes_int = List.map Detect.label_to_int L.all

(* The throughput comparison the ensemble's contract rests on is a median
   over this many timed predict phases per detector. *)
let repeats = 7

let evaluate ?detectors ?tau ~rng ~per_family () =
  let detectors = match detectors with Some ks -> ks | None -> Detect.keys () in
  let tau =
    Option.value tau
      ~default:Scaguard.Config.default.Scaguard.Config.ensemble_tau
  in
  let train_samples, test_samples = dataset ~rng ~per_family in
  let train = label_runs (Detect.Run.execute_all train_samples) in
  let test = label_runs (Detect.Run.execute_all test_samples) in
  let repo = Common.repository ~rng L.attack_labels in
  (* Force every test model up front: the shared lazy analyses are charged
     to dataset preparation, so each detector's predict time is its own
     inference cost — and the ensemble's edge over SCAGuard is purely the
     DTW it skips, not modeling it happens to inherit. *)
  let (), prep_s =
    Detect.timed (fun () ->
        List.iter (fun (r, _) -> ignore (Detect.Run.model r)) test)
  in
  let ctx =
    Detect.make_ctx ~rng ~repository:repo ~known_families:L.attack_labels
      ~classes:L.all ~ensemble_tau:tau ()
  in
  let scored =
    List.map
      (fun key ->
        let entry = Detect.find_exn key in
        let module Dm = (val entry.Detect.detector) in
        Detect.Ensemble.reset_stats ();
        let m, train_s = Detect.timed (fun () -> Dm.train ctx train) in
        (* each timed phase starts from a collected heap, so one phase does
           not pay for the garbage of the phase before it *)
        let timed_predict () =
          Gc.full_major ();
          Detect.timed (fun () -> List.map (fun (r, _) -> Dm.predict m r) test)
        in
        let preds, predict_s = timed_predict () in
        let pairs = List.map2 (fun p (_, truth) -> (p, truth)) preds test in
        let int_pairs =
          List.map
            (fun (p, a) -> (Detect.label_to_int p, Detect.label_to_int a))
            pairs
        in
        let tested = List.length pairs in
        ( (fun () -> snd (timed_predict ())),
          {
            key;
            name = entry.Detect.label;
            scores = Common.metrics ~classes:L.all pairs;
            per_class = Ml.Metrics.per_class ~classes:classes_int int_pairs;
            detection =
              Common.metrics
                ~classes:[ L.Fr_family; L.Benign ]
                (binarize_pairs pairs);
            train_s;
            predict_s;
            tested;
            throughput = float_of_int tested /. Float.max predict_s 1e-9;
            ensemble =
              (if key = "ensemble" then Some (Detect.Ensemble.stats ())
               else None);
          } ))
      detectors
  in
  (* The first predict phase scored each row; [repeats - 1] more run
     round-robin over the trained detectors, and each row reports the
     median, so one load spike cannot decide a throughput comparison. *)
  let rounds =
    List.init (repeats - 1) (fun _ -> List.map (fun (again, _) -> again ()) scored)
  in
  let rows =
    List.mapi
      (fun i (_, r) ->
        let predict_s =
          Sutil.Stats.median (r.predict_s :: List.map (fun t -> List.nth t i) rounds)
        in
        { r with predict_s; throughput = float_of_int r.tested /. Float.max predict_s 1e-9 })
      scored
  in
  {
    rows;
    repeats;
    per_family;
    train_size = List.length train;
    test_size = List.length test;
    tau;
    prep_s;
  }

let to_table t =
  let tbl =
    Sutil.Table.create
      ~title:
        (Printf.sprintf
           "Detector showdown: %d train / %d test runs, screening tau %g"
           t.train_size t.test_size t.tau)
      [
        "Detector";
        "Accuracy";
        "Precision";
        "Recall";
        "F1";
        "Detect-F1";
        "Train (s)";
        "Predict (s)";
        "Runs/s";
        "Slow path";
      ]
  in
  List.iter
    (fun r ->
      Sutil.Table.add_row tbl
        [
          r.name;
          Sutil.Table.pct r.scores.Ml.Metrics.accuracy;
          Sutil.Table.pct r.scores.Ml.Metrics.precision;
          Sutil.Table.pct r.scores.Ml.Metrics.recall;
          Sutil.Table.pct r.scores.Ml.Metrics.f1;
          Sutil.Table.pct r.detection.Ml.Metrics.f1;
          Printf.sprintf "%.3f" r.train_s;
          Printf.sprintf "%.3f" r.predict_s;
          Printf.sprintf "%.1f" r.throughput;
          (match r.ensemble with
          | Some s ->
            Printf.sprintf "%d/%d (%s)" s.Detect.Ensemble.slow_path
              s.Detect.Ensemble.screened
              (Sutil.Table.pct (Detect.Ensemble.slow_path_rate s))
          | None -> "-");
        ])
    t.rows;
  tbl

let class_name i = L.to_string (Detect.label_of_int i)

let row_to_json r =
  let module J = Scaguard.Json in
  let num f = J.Num f and int n = J.Num (float_of_int n) in
  let scores (s : Ml.Metrics.scores) =
    J.Obj
      [
        ("precision", num s.Ml.Metrics.precision);
        ("recall", num s.Ml.Metrics.recall);
        ("f1", num s.Ml.Metrics.f1);
        ("accuracy", num s.Ml.Metrics.accuracy);
      ]
  in
  let class_scores (c : Ml.Metrics.class_scores) =
    J.Obj
      [
        ("class", J.Str (class_name c.Ml.Metrics.cls));
        ("support", int c.Ml.Metrics.support);
        ("tp", int c.Ml.Metrics.tp);
        ("fp", int c.Ml.Metrics.fp);
        ("fn", int c.Ml.Metrics.fn);
        ("precision", num c.Ml.Metrics.c_precision);
        ("recall", num c.Ml.Metrics.c_recall);
        ("f1", num c.Ml.Metrics.c_f1);
      ]
  in
  let ensemble =
    match r.ensemble with
    | None -> J.Null
    | Some s ->
      J.Obj
        [
          ("screened", int s.Detect.Ensemble.screened);
          ("fast_rejects", int s.Detect.Ensemble.fast_rejects);
          ("slow_path", int s.Detect.Ensemble.slow_path);
          ("slow_confirms", int s.Detect.Ensemble.slow_confirms);
          ("slow_path_rate", num (Detect.Ensemble.slow_path_rate s));
        ]
  in
  J.Obj
    [
      ("key", J.Str r.key);
      ("name", J.Str r.name);
      ("scores", scores r.scores);
      ("per_class", J.List (List.map class_scores r.per_class));
      ("detection", scores r.detection);
      ("train_s", num r.train_s);
      ("predict_s", num r.predict_s);
      ("tested", int r.tested);
      ("throughput", num r.throughput);
      ("ensemble", ensemble);
    ]

let to_json t =
  let module J = Scaguard.Json in
  J.Obj
    [
      ("per_family", J.Num (float_of_int t.per_family));
      ("train", J.Num (float_of_int t.train_size));
      ("test", J.Num (float_of_int t.test_size));
      ("tau", J.Num t.tau);
      ("prep_s", J.Num t.prep_s);
      ("predict_repeats", J.Num (float_of_int t.repeats));
      ("detectors", J.List (List.map row_to_json t.rows));
    ]
