(** The service facade: one validated {!Config.t} in, models/verdicts plus a
    unified run {!report} out, every failure a typed {!Err.t}.

    A repository becomes a {!Detector.prepared} in exactly two places:
    {!load_repository} (files) and {!prepare} (in memory), both under the
    config's index policy.  Every front-end (CLI, serve, bench,
    experiments, examples) then classifies through {!detect_prepared} or
    {!screen_prepared} instead of hand-composing
    [Pipeline.build_models_batch] + [Engine.classify_batch] with ten
    optional arguments.  The facade adds {e no} behaviour of its own:
    {!build} results are byte-identical ({!Persist.model_to_string}) and
    {!detect_prepared} verdicts bit-identical (score bits and tie order) to
    the manual composition with the same knobs — asserted by the test suite
    and by the bench on every run. *)

type cache_stats = { dir : string; hits : int; misses : int; stale : int }
(** Hit/miss/stale counters of the {!Model_cache} this run opened —
    deltas for this run, since the cache handle is private to it. *)

type timing = { stage : string; wall_s : float; cpu_s : float }
(** Wall/CPU seconds of one pipeline stage (["build"] or ["detect"]).
    [wall_s] is measured on {!Obs.Clock} (monotonic), so it is immune to
    wall-clock steps and never negative. *)

type report = {
  built : int;  (** models built (or served from cache) by this run *)
  classified : int;  (** targets classified by this run *)
  cache : cache_stats option;  (** present iff [config.cache_dir] was set *)
  engine : Engine.stats option;  (** present iff the run classified *)
  timings : timing list;  (** per-stage wall/cpu, in execution order *)
  metrics : Obs.Registry.snapshot option;
      (** the {!Obs.default} registry at the end of the run; present iff
          [Obs.metrics ()] was on *)
}

val pp_report : Format.formatter -> report -> unit
(** Human-readable report as aligned {!Sutil.Table}s with stable row
    ordering: a per-stage timings table, a counters table (build/classify
    totals, engine counters, cache counters, as present), and — when a
    metrics snapshot is present — a latency table with p50/p90/p99 per
    histogram (estimated from the buckets via
    {!Sutil.Stats.percentile_of_buckets}). *)

val report_to_json : report -> Json.t
(** The same report as a single JSON object ([built], [classified],
    [timings], and [cache]/[engine]/[metrics] when present) for
    machine-readable output ([--report-format json]).  Floats print through
    {!Json.to_string}, so they read back bit for bit. *)

val build :
  Config.t -> Pipeline.job array -> (Model.t array * report, Err.t) result
(** Build one model per job — execute, identify, restore, measure — fanned
    over [config.domains] workers and consulting the [config.cache_dir]
    cache when set.  Jobs with [settings = None] run under [config.exec];
    jobs with their own settings (e.g. the Meltdown PoCs' protected range)
    keep them.  Likewise [config.salt] applies to jobs whose own [salt] is
    [""].  Errors: [Invalid_config] (bad config field), [Io]
    (cache directory unusable). *)

val detect_prepared :
  Config.t ->
  Detector.prepared ->
  Model.t array ->
  (Detector.verdict array * report, Err.t) result
(** Score every target model against the prepared repository on the batch
    engine ({!Engine.classify_batch}), with [config]'s
    threshold/alpha/band/prune/domains.  Errors: [Invalid_config],
    [Empty_repository]. *)

val spec_of_config : Config.t -> Vpindex.spec option
(** The config's repository-index policy as a {!Vpindex} build spec —
    [None] for [Index_off], [Auto]/[Force] for [Index_auto]/[Index_vp], the
    default leaf and pivot counts, and the construction seed derived from
    the salt ({!Vpindex.seed_of_salt}), so identical configs build
    byte-identical indexes. *)

val prepare :
  Config.t -> Detector.repository -> (Detector.prepared, Err.t) result
(** Prepare an in-memory repository under [config]'s index policy
    ({!spec_of_config}) — the in-memory twin of {!load_repository}, and with
    it the only way the front-ends turn a repository into a
    {!Detector.prepared}.  An empty repository prepares fine; detecting
    against it is the [Empty_repository] error.  Errors: [Invalid_config]. *)

val save_repository :
  Config.t -> path:string -> Detector.repository -> (report, Err.t) result
(** Persist the repository at [path] in [config.repo_format] (atomic,
    durable — see {!Persist.write_atomic}).  Binary images additionally
    embed the repository index that {!spec_of_config} prescribes (when it
    builds one), so later loads skip the index rebuild.  The report carries
    a ["save"] timing.  Errors: [Invalid_config], [Io]. *)

val load_repository :
  ?config:Config.t ->
  path:string ->
  unit ->
  (Detector.repository * Detector.prepared * report, Err.t) result
(** Load a repository (either format, sniffed) together with its
    {!Detector.prepared} ({!Persist.load_repository_prepared_result}) and a
    report carrying a ["load"] timing with [built] set to the repository
    size.  With [config], the prepared repository honours the config's index
    policy: an index embedded in the image is kept
    ([Index_auto]/[Index_vp]) or dropped ([Index_off]), and a missing one is
    built here — as for a v2 image, whose index section loads skip.
    Without [config] the file decides (an embedded index is used, none is
    built).  Errors: [Io], [Parse], [Invalid_config]. *)

val screen_prepared :
  Config.t ->
  Detector.prepared ->
  Pipeline.job array ->
  (Model.t array * Detector.verdict array * report, Err.t) result
(** {!build} the jobs, then {!detect_prepared} the resulting models: the §V
    deployment loop in one call.  The report carries both stages' timings,
    the build's cache counters and the detect's engine counters.  Errors:
    [Invalid_config], [Empty_repository], [Io]. *)

val explain :
  Config.t ->
  Detector.prepared ->
  Pipeline.job array ->
  ( Model.t array * Detector.verdict array * report * Provenance.t array,
    Err.t )
  result
(** {!screen_prepared} on the same engine run with [~explain:true]
    ({!Engine.classify_batch}): the same models, verdicts and report —
    bit-identical — plus one {!Provenance.t} per job, index-aligned with
    the jobs ([seq] is the job's position).  Backs [scaguard explain],
    [detect-batch --provenance-out] and the serve protocol's [explain]
    verb. *)
