(** Table VI — classification results of SCAGuard and the four baseline
    detection approaches on the tasks E1–E4.

    - E1: classify mutated variants when every family is known;
    - E2: classify Spectre-like variants knowing only their non-Spectre
      counterparts (a Spectre variant classified as its counterpart family
      counts as correct);
    - E3: cross-family generalizability, both directions, scored as
      attack-vs-benign detection;
    - E4: classify polymorphically obfuscated variants knowing only
      non-obfuscated samples. *)

type approach = Svm_nw | Lr_nw | Knn_mlfm | Scadet | Scaguard

val approaches : approach list
val approach_name : approach -> string

type task = E1 | E2 | E3_pp_from_fr | E3_fr_from_pp | E4

val tasks : task list
val task_name : task -> string

type task_data
(** Prepared (executed) train/test runs for one task; build once, evaluate
    every approach on it. *)

val prepare : rng:Sutil.Rng.t -> per_family:int -> task -> task_data

val test_runs : task_data -> (Detect.Run.t * Workloads.Label.t) list
(** The task's test runs with ground-truth labels (exposed for Fig. 5's
    threshold sweep). *)

val train_runs : task_data -> (Detect.Run.t * Workloads.Label.t) list
(** The task's labelled training runs (what the learning approaches see). *)

val classes_of : task_data -> Workloads.Label.t list
val is_binarized : task_data -> bool
val canonize : task_data -> Workloads.Label.t -> Workloads.Label.t
(** Collapse a prediction for scoring (E3's attack-vs-benign view). *)

val repository_of : task_data -> Scaguard.Detector.repository

val registry_key : approach -> string
(** The approach's key in {!Detect.registry} (["svm-nw"] … ["scaguard"]). *)

val context : rng:Sutil.Rng.t -> task_data -> Detect.ctx
(** The task as a detector-training context: its repository, known
    families and class list. *)

val evaluate_approach :
  rng:Sutil.Rng.t -> task_data -> approach -> Ml.Metrics.scores
(** Train-and-score one approach through its {!Detect} registry entry;
    predictions are canonized ({!canonize}) before scoring. *)

val evaluate_all :
  rng:Sutil.Rng.t -> per_family:int ->
  (task * (approach * Ml.Metrics.scores) list) list
(** Every task × approach — the full Table VI. *)

val to_table : (task * (approach * Ml.Metrics.scores) list) list -> Sutil.Table.t
