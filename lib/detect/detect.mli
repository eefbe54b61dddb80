(** The unified detector abstraction: one {!S} interface over executed
    workload samples, an adapter per detection approach (SCAGuard's DTW
    classifier, the five related-work baselines, raw HPC classifiers), the
    two-tier {!Ensemble}, and a {!registry} of first-class modules the
    experiment drivers and the [scaguard compare] showdown iterate over.

    Adapters add {e no} behaviour: each one maps {!Run.t} and
    {!Workloads.Label.t} onto the underlying entry point in [lib/scaguard],
    [lib/baselines] or [lib/ml], so predictions — and the tables rendered
    from them — are identical to calling those entry points directly
    (asserted by the test suite).  See [docs/DETECTORS.md] for the contract
    and a tuning guide. *)

(** An executed workload sample: the raw runtime data every detector reads,
    plus the lazily-built CST-BBS analysis only the DTW-based detectors
    force. *)
module Run : sig
  type t = {
    sample : Workloads.Dataset.sample;
    result : Cpu.Exec.result;
    analysis : Scaguard.Pipeline.analysis Lazy.t;
        (** modeling is lazy: the HPC baselines only need [result], and an
            ensemble fast-path rejection never pays for it *)
  }

  val of_result : sample:Workloads.Dataset.sample -> Cpu.Exec.result -> t
  (** Wrap an already-executed sample (hierarchy sweeps and other custom
      executions); the analysis is built on first force from the sample's
      name and program. *)

  val execute : Workloads.Dataset.sample -> t
  val execute_all : Workloads.Dataset.sample list -> t list

  val model : t -> Scaguard.Model.t
  (** Force the analysis and return its CST-BBS model. *)

  val label : t -> Workloads.Label.t
  (** The sample's ground-truth label. *)

  val program : t -> Isa.Program.t
  val result : t -> Cpu.Exec.result
end

type ctx = {
  rng : Sutil.Rng.t;  (** consumed by the learning adapters' training *)
  repository : Scaguard.Detector.repository;
      (** the PoC repository — SCAGuard's (and the ensemble's) "model" *)
  known_families : Workloads.Label.t list;
      (** families the defender knows (gates SCADET's rule applicability) *)
  classes : Workloads.Label.t list;
      (** the task's label set; binary-only detectors report their positive
          verdict as the first attack class *)
  threshold : float option;  (** SCAGuard similarity threshold override *)
  alpha : float option;  (** SCAGuard DTW weight override *)
  ensemble_tau : float;  (** {!Ensemble} screening threshold *)
}
(** Everything a detector may need to train.  Adapters read only the fields
    they use; unknown knobs cost nothing. *)

val make_ctx :
  ?threshold:float ->
  ?alpha:float ->
  ?ensemble_tau:float ->
  ?repository:Scaguard.Detector.repository ->
  ?known_families:Workloads.Label.t list ->
  ?classes:Workloads.Label.t list ->
  rng:Sutil.Rng.t ->
  unit ->
  ctx
(** Defaults: empty repository/known-families, [classes = Label.all], no
    threshold/alpha overrides, [ensemble_tau] from
    {!Scaguard.Config.default}. *)

val label_to_int : Workloads.Label.t -> int
(** The fixed int encoding the learning baselines train on
    (FR-F=0 … Benign=4). *)

val label_of_int : int -> Workloads.Label.t

(** The detector contract.  [train] may consume [ctx.rng]; everything else
    is pure.  Detectors that need no training data (SCAGuard, SCADET)
    ignore the labelled runs. *)
module type S = sig
  val name : string

  type model

  val train : ctx -> (Run.t * Workloads.Label.t) list -> model

  val predict : model -> Run.t -> Workloads.Label.t
  (** Multi-class verdict; binary-only detectors answer with the context's
      first attack class or [Benign]. *)

  val binary_detect : model -> Run.t -> bool
  (** Attack-vs-benign verdict. *)

  val score : model -> Run.t -> (Workloads.Label.t * float) option
  (** Graded suspicion for threshold sweeps: the best-matching label with a
      detector-specific score (SCAGuard: DTW similarity in [0,1]; anomaly:
      largest |z|), [None] for detectors with no graded view. *)
end

(** {1 Adapters}

    Each adapter's prediction equals the underlying entry point called
    directly; the registry {!key}s below are the CLI/bench spellings. *)

(** ["scaguard"] — DTW similarity against [ctx.repository]
    ({!Scaguard.Detector.classify}); {!S.score} reports the best match at
    threshold 0. *)
module Scaguard_dtw : sig
  include S

  val classify : model -> Run.t -> Scaguard.Detector.verdict
  (** The full verdict record — what the ensemble's bit-identity contract
      is stated against. *)
end

module Scadet : S
(** ["scadet"] — rule-based Prime+Probe detection
    ({!Baselines.Scadet.classify}); rules apply only when [Pp_family] is
    among [ctx.known_families]. *)

module Svm_nw : S
(** ["svm-nw"] — {!Baselines.Nights_watch} (SVM variant); consumes
    [ctx.rng]. *)

module Lr_nw : S
(** ["lr-nw"] — {!Baselines.Nights_watch} (logistic-regression variant);
    consumes [ctx.rng]. *)

module Knn_mlfm : S
(** ["knn-mlfm"] — {!Baselines.Mlfm}. *)

module Anomaly : S
(** ["anomaly"] — {!Baselines.Anomaly}, trained on the benign subset of the
    training runs; predicts the context's first attack class or benign. *)

module Phased_guard : S
(** ["phased-guard"] — {!Baselines.Phased_guard}; consumes [ctx.rng]. *)

module Svm_hpc : S
(** ["svm-hpc"] — raw {!Ml.Svm} one-vs-rest over the standardized whole-run
    HPC profile; consumes [ctx.rng]. *)

module Lr_hpc : S
(** ["lr-hpc"] — raw {!Ml.Logreg} over the same features. *)

module Knn_hpc : S
(** ["knn-hpc"] — raw {!Ml.Knn} (k=5) over the same features. *)

(** {1 The two-tier ensemble} *)

(** ["ensemble"] — a cheap HPC fast path ({!Baselines.Anomaly} over the
    totals-only {!Baselines.Features.screen_profile}, fitted to the benign
    training runs) screens every run; only runs whose largest |z| reaches
    [ctx.ensemble_tau] pay the DTW slow path ({!Scaguard_dtw}).  Anomaly
    scores are non-negative, so [tau = 0] escalates everything and the
    ensemble is verdict-bit-identical to pure SCAGuard (asserted by the
    tests). *)
module Ensemble : sig
  include S

  type stats = {
    screened : int;  (** runs that entered the fast path *)
    fast_rejects : int;  (** runs rejected as benign without DTW *)
    slow_path : int;  (** runs escalated to DTW *)
    slow_confirms : int;  (** slow-path runs classified as an attack *)
  }

  val reset_stats : unit -> unit
  (** Zero the module-level tallies (the registry hides the model type, so
      counters are kept here); bracket an evaluation with
      [reset_stats]/{!stats}. *)

  val stats : unit -> stats

  val slow_path_rate : stats -> float
  (** [slow_path / screened] (0 when nothing was screened). *)

  val classify : model -> Run.t -> Scaguard.Detector.verdict
  (** The slow path's full verdict; fast-path rejections return the empty
      verdict (no matches, family [None], score 0). *)
end

(** {1 Registry} *)

type entry = { key : string; label : string; detector : (module S) }

val registry : entry list
(** Every detector, in evaluation order: the Table VI baselines first
    (SVM-NW, LR-NW, KNN-MLFM, SCADET, SCAGUARD), then the extended
    baselines, the raw HPC classifiers, and the ensemble last. *)

val keys : unit -> string list
val find : string -> entry option

val find_exn : string -> entry
(** @raise Invalid_argument on an unknown key (message lists the known
    ones). *)

val timed : (unit -> 'a) -> 'a * float
(** Run a thunk and return its monotonic wall-clock seconds
    ({!Scaguard.Obs.Clock}) — the cost accounting the showdown table
    reports. *)
