module D = Workloads.Dataset
module L = Workloads.Label

type approach = Svm_nw | Lr_nw | Knn_mlfm | Scadet | Scaguard

let approaches = [ Svm_nw; Lr_nw; Knn_mlfm; Scadet; Scaguard ]

let approach_name = function
  | Svm_nw -> "SVM-NW"
  | Lr_nw -> "LR-NW"
  | Knn_mlfm -> "KNN-MLFM"
  | Scadet -> "SCADET"
  | Scaguard -> "SCAGUARD"

type task = E1 | E2 | E3_pp_from_fr | E3_fr_from_pp | E4

let tasks = [ E1; E2; E3_pp_from_fr; E3_fr_from_pp; E4 ]

let task_name = function
  | E1 -> "E1: Mutated variants"
  | E2 -> "E2: Spectre-like variants"
  | E3_pp_from_fr -> "E3-1: PP-F"
  | E3_fr_from_pp -> "E3-2: FR-F"
  | E4 -> "E4: Obfuscated variants"

type task_data = {
  task : task;
  train : (Detect.Run.t * L.t) list;
  test : (Detect.Run.t * L.t) list;
  classes : L.t list;
  repo_families : L.t list;
  repo : Scaguard.Detector.repository;
  binarized : bool;
}

let runs_of samples = List.map Detect.Run.execute samples

let with_own_label runs = List.map (fun r -> (r, Detect.Run.label r)) runs
let with_label l runs = List.map (fun r -> (r, l)) runs

let prepare ~rng ~per_family task =
  let mutated l n = runs_of (D.mutated_attacks ~rng ~count:n l) in
  let obfuscated l n = runs_of (D.obfuscated_attacks ~rng ~count:n l) in
  let benign n = runs_of (D.benign_samples ~rng ~count:n) in
  let make ~train ~test ~classes ~repo_families ~binarized =
    {
      task;
      train;
      test;
      classes;
      repo_families;
      repo = Common.repository ~rng repo_families;
      binarized;
    }
  in
  match task with
  | E1 ->
    let per_family_splits =
      List.map
        (fun l -> Common.split_half (mutated l per_family))
        L.attack_labels
    in
    let benign_train, benign_test = Common.split_half (benign per_family) in
    make
      ~train:
        (with_own_label (List.concat_map fst per_family_splits)
        @ with_label L.Benign benign_train)
      ~test:
        (with_own_label (List.concat_map snd per_family_splits)
        @ with_label L.Benign benign_test)
      ~classes:L.all ~repo_families:L.attack_labels ~binarized:false
  | E2 ->
    make
      ~train:
        (with_own_label (mutated L.Fr_family per_family)
        @ with_own_label (mutated L.Pp_family per_family)
        @ with_label L.Benign (benign per_family))
      ~test:
        ((* a Spectre variant classified as its non-Spectre counterpart is
            correct *)
         with_label L.Fr_family (mutated L.Spectre_fr per_family)
        @ with_label L.Pp_family (mutated L.Spectre_pp per_family)
        @ with_label L.Benign (benign per_family))
      ~classes:[ L.Fr_family; L.Pp_family; L.Benign ]
      ~repo_families:[ L.Fr_family; L.Pp_family ]
      ~binarized:false
  | E3_pp_from_fr ->
    make
      ~train:
        (with_own_label (mutated L.Fr_family per_family)
        @ with_label L.Benign (benign per_family))
      ~test:
        (with_label L.Fr_family (mutated L.Pp_family per_family)
        @ with_label L.Benign (benign per_family))
      ~classes:[ L.Fr_family; L.Benign ]
      ~repo_families:[ L.Fr_family ] ~binarized:true
  | E3_fr_from_pp ->
    make
      ~train:
        (with_own_label (mutated L.Pp_family per_family)
        @ with_label L.Benign (benign per_family))
      ~test:
        (with_label L.Pp_family (mutated L.Fr_family per_family)
        @ with_label L.Benign (benign per_family))
      ~classes:[ L.Pp_family; L.Benign ]
      ~repo_families:[ L.Pp_family ] ~binarized:true
  | E4 ->
    make
      ~train:
        (with_own_label (mutated L.Fr_family per_family)
        @ with_own_label (mutated L.Pp_family per_family)
        @ with_label L.Benign (benign per_family))
      ~test:
        (with_own_label (obfuscated L.Fr_family per_family)
        @ with_own_label (obfuscated L.Pp_family per_family)
        @ with_label L.Benign (benign per_family))
      ~classes:[ L.Fr_family; L.Pp_family; L.Benign ]
      ~repo_families:[ L.Fr_family; L.Pp_family ]
      ~binarized:false

let test_runs td = td.test
let train_runs td = td.train
let classes_of td = td.classes
let is_binarized td = td.binarized
let repository_of td = td.repo

(* For E3 the scoring is attack-vs-benign: any attack-family prediction
   counts as the (single) attack class of the task. *)
let canon td prediction =
  if td.binarized then
    match prediction with
    | L.Benign -> L.Benign
    | _ -> (match td.classes with c :: _ -> c | [] -> prediction)
  else prediction

let canonize td prediction = canon td prediction

let registry_key = function
  | Svm_nw -> "svm-nw"
  | Lr_nw -> "lr-nw"
  | Knn_mlfm -> "knn-mlfm"
  | Scadet -> "scadet"
  | Scaguard -> "scaguard"

let context ~rng td =
  Detect.make_ctx ~rng ~repository:td.repo ~known_families:td.repo_families
    ~classes:td.classes ()

(* Every approach is one registry entry; the per-approach logic (SCADET's
   rule applicability, SCAGuard's repository-as-model, the learning
   baselines' int labels) lives in the adapters.  Predictions — and the
   rendered table — are byte-identical to the pre-registry per-approach
   code (asserted by the test suite). *)
let evaluate_approach ~rng td approach =
  let entry = Detect.find_exn (registry_key approach) in
  let module Dm = (val entry.Detect.detector) in
  let m = Dm.train (context ~rng td) td.train in
  let pairs =
    List.map (fun (run, truth) -> (canon td (Dm.predict m run), truth)) td.test
  in
  Common.metrics ~classes:td.classes pairs

let evaluate_all ~rng ~per_family =
  List.map
    (fun task ->
      let td = prepare ~rng ~per_family task in
      (task, List.map (fun a -> (a, evaluate_approach ~rng td a)) approaches))
    tasks

let to_table results =
  let t =
    Sutil.Table.create ~title:"Table VI: classification results (E1-E4)"
      [ "Task"; "Approach"; "Precision"; "Recall"; "F1-score" ]
  in
  List.iter
    (fun (task, per_approach) ->
      List.iter
        (fun (a, (s : Ml.Metrics.scores)) ->
          Sutil.Table.add_row t
            [
              task_name task;
              approach_name a;
              Sutil.Table.pct s.Ml.Metrics.precision;
              Sutil.Table.pct s.Ml.Metrics.recall;
              Sutil.Table.pct s.Ml.Metrics.f1;
            ])
        per_approach;
      Sutil.Table.add_separator t)
    results;
  t
