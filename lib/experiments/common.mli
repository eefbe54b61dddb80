(** Shared experiment machinery: model building, the PoC repository, label
    plumbing and scoring.  Executed samples are {!Detect.Run.t}, and the
    baselines' int labels are {!Detect.label_to_int}'s. *)

val families_of_strings :
  string list -> (Workloads.Label.t list, Scaguard.Err.t) result
(** Map family names ({!Workloads.Label.of_string}) to labels.
    [Error (Invalid_config {field = "families"; _})] naming every unknown
    name (a typo must not silently shrink the repository);
    [Error Empty_repository] on an empty list. *)

val job : Workloads.Dataset.sample -> Scaguard.Pipeline.job
(** The model-building job of a sample: its program with its own exec
    settings, init and victim, and no salt of its own. *)

val repository_service :
  ?obs:Scaguard.Obs.t ->
  config:Scaguard.Config.t ->
  rng:Sutil.Rng.t ->
  Workloads.Label.t list ->
  (Scaguard.Detector.repository * Scaguard.Service.report, Scaguard.Err.t)
  result
(** One harnessed PoC model per requested family (the paper's "only one PoC
    per attack type" repository), built through {!Scaguard.Service.build}
    with [config]'s domains/cache/limits.  Sample construction stays
    sequential (it consumes [rng]); the executions fan out over the service
    — models are byte-identical to a sequential build either way.  The
    harness varies with [rng], so cache users must fold the workload seed
    into [config.salt].  [Error Empty_repository] on an empty family
    list. *)

val repository :
  rng:Sutil.Rng.t -> Workloads.Label.t list -> Scaguard.Detector.repository
(** {!repository_service} under {!Scaguard.Config.default}, for callers
    that need no report: returns the repository (empty for an empty family
    list).
    @raise Invalid_argument if the build fails. *)

val scaguard_predict :
  ?threshold:float -> ?alpha:float ->
  Scaguard.Detector.repository -> Detect.Run.t -> Workloads.Label.t
(** Classify a run with SCAGuard; below-threshold verdicts map to
    [Benign]. *)

val binarize : Workloads.Label.t -> Workloads.Label.t
(** Collapse every attack family to [Fr_family] (used as the generic
    "Attack" class for E3's detection-only scoring). *)

val split_half : 'a list -> 'a list * 'a list
(** The first [length / 2] elements and the rest, in order: a train/test
    split. *)

val metrics :
  classes:Workloads.Label.t list ->
  (Workloads.Label.t * Workloads.Label.t) list ->
  Ml.Metrics.scores
(** [(predicted, actual)] pairs to macro scores. *)
