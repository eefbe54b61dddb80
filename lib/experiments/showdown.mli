(** The detector showdown: every {!Detect.registry} entry — SCAGuard, the
    five related-work baselines, the raw HPC classifiers and the two-tier
    ensemble — trained and scored on one generated dataset, with accuracy,
    macro and per-class P/R/F1, binary detection F1, and train/predict
    latency + throughput per detector.  Drives [scaguard compare] and the
    bench's [compare] stage.

    The dataset is mutated attacks (every family) plus generated benign and
    the MinC benign kernels — unoptimized compiles in the training split,
    optimized ones in the test split, so detectors face "the same benign
    program through a different compiler".  Test-run CST-BBS models are
    forced during dataset preparation and charged to [prep_s]: each
    detector's [predict_s] is its own inference cost, and the ensemble's
    advantage over pure SCAGuard is exactly the DTW its fast path skips. *)

type row = {
  key : string;  (** {!Detect.registry} key *)
  name : string;  (** display label *)
  scores : Ml.Metrics.scores;  (** macro P/R/F1 + accuracy over all labels *)
  per_class : Ml.Metrics.class_scores list;  (** breakdown, label order *)
  detection : Ml.Metrics.scores;  (** binary attack-vs-benign scoring *)
  train_s : float;
  predict_s : float;
  tested : int;
  throughput : float;  (** test runs classified per second *)
  ensemble : Detect.Ensemble.stats option;  (** the ensemble row only *)
}

type t = {
  rows : row list;
  per_family : int;
  train_size : int;
  test_size : int;
  tau : float;  (** the ensemble screening threshold used *)
  prep_s : float;  (** test-model forcing (shared, charged to no detector) *)
  repeats : int;  (** predict phases timed per detector *)
}

val evaluate :
  ?detectors:string list ->
  ?tau:float ->
  rng:Sutil.Rng.t ->
  per_family:int ->
  unit ->
  t
(** [detectors] defaults to every registry key in registry order (which is
    also rng-consumption order, so a fixed seed reproduces the table);
    [tau] defaults to {!Scaguard.Config.default}'s [ensemble_tau].
    Each detector's predict phase is timed 7 times (the result's
    [repeats]), each from a collected heap: after the first, the repeats
    run round-robin over all detectors, and [predict_s] and [throughput]
    come from the median.
    Predictions are scored once, so the repeats move no accuracy figure.
    @raise Invalid_argument on an unknown detector key. *)

val to_table : t -> Sutil.Table.t
val to_json : t -> Scaguard.Json.t
(** The whole result as one JSON object ([scaguard compare --json]); every
    float reads back bit for bit. *)
