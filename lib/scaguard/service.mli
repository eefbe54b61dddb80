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
    the manual composition with the same knobs — asserted by the test
    suite.  Every entry point that runs takes the run's {!Obs.t} as [?obs]
    (default {!Obs.off}) and hands it down; it decides what the run records,
    never a model byte or verdict bit.  The model cache is the caller's
    too: a call opens the config's for itself, unless the caller — the
    serve daemon, which screens again and again — hands its own to
    {!screen_prepared} or {!explain} as [?cache]. *)

type cache_stats = { dir : string; hits : int; misses : int; stale : int }
(** Hit/miss/stale counts of this run's lookups in the {!Model_cache} it
    used — the one it opened from [config.cache_dir], or the [?cache] it
    was handed (the counters are read before and after the run), and
    [dir], that cache's disk tier. *)

type timing = { stage : string; wall_s : float; cpu_s : float }
(** Wall/CPU seconds of one pipeline stage (["build"] or ["detect"]).
    [wall_s] is measured on {!Obs.Clock} (monotonic), so it is immune to
    wall-clock steps and never negative. *)

type report = {
  built : int;  (** models this run built; a model a cache served is not one *)
  classified : int;  (** targets classified by this run *)
  cache : cache_stats option;
      (** present iff the run's cache has a disk tier: [config.cache_dir]
          was set, or the [?cache] handed in was opened on one *)
  engine : Engine.stats option;  (** present iff the run classified *)
  timings : timing list;  (** per-stage wall/cpu, in execution order *)
  latency : Obs.latency option;
      (** the run's per-target and per-build latency records; present iff
          the run's [obs] had {!Obs.metrics} on *)
}

val version : string
(** The release version: what [scaguard --version] prints and
    [scaguard_build_info] carries. *)

(** {1 Metrics}

    A report and the serve daemon's books are the only places that count:
    every Prometheus series is rendered from them when an exposition is
    written, so a report's series describe its own run. *)

type books
(** The counts of any number of reports, folded: engine counters, models
    built, cache lookups, one latency histogram per stage timing, and the
    latency records.  Mutable and single-owner; folding allocates nothing
    once each stage it sees has a histogram. *)

val books : Model_cache.t option -> books
(** Empty books.  With [Some cache], the cache series read [cache]'s own
    counters — the serve daemon's, which count every tier since
    {!Model_cache.create} — instead of the folded reports' [cache], which
    exists only for a disk tier. *)

val fold : books -> report -> unit
(** Add a report: its [built], its engine counters and one batch when it
    classified, its cache counts, one stage observation per timing and its
    latency records. *)

val counts : books -> (string * int) list
(** ["models_built"] and the nine engine counters, under the keys of the
    serve protocol's [stats] verb. *)

val series : books -> Obs.Prom.series list
(** The books as Prometheus series: [scaguard_engine_*_total],
    [scaguard_models_built_total], [scaguard_cache_*_total], the
    [scaguard_dtw_pair_seconds], [scaguard_model_build_seconds] and
    [scaguard_verdict_seconds] histograms, then
    [scaguard_stage_seconds{stage}] per stage in first-seen order. *)

val identity : uptime_s:float -> Obs.Prom.series list
(** The process-identity gauges every exposition ends with:
    [scaguard_build_info{version,format_version}] (constant 1, {!version}
    and {!Persist.bin_version} in the labels) and
    [scaguard_uptime_seconds]. *)

val pp_report : Format.formatter -> report -> unit
(** Human-readable report as aligned {!Sutil.Table}s with stable row
    ordering: a per-stage timings table, a counters table (build/classify
    totals, engine counters, cache counters, as present), and — when the
    run had metrics on — a latency table with p50/p90/p99 per non-empty
    histogram of its own series (estimated from the buckets via
    {!Sutil.Stats.percentile_of_buckets}). *)

val report_to_json : report -> Json.t
(** The same report as a single JSON object ([built], [classified],
    [timings], and [cache]/[engine] when present) for machine-readable
    output ([--report-format json]).  When the run had metrics on, a
    [metrics] list follows: the report's own {!series}, sorted by name and
    labels.  Floats print through {!Json.to_string}, so they read back bit
    for bit. *)

val build :
  ?obs:Obs.t ->
  Config.t -> Pipeline.job array -> (Model.t array * report, Err.t) result
(** Build one model per job — execute, identify, restore, measure — fanned
    over [config.domains] workers and consulting the [config.cache_dir]
    cache when set.  Jobs with [settings = None] run under [config.exec];
    jobs with their own settings (e.g. the Meltdown PoCs' protected range)
    keep them.  Likewise [config.salt] applies to jobs whose own [salt] is
    [""].  Errors: [Invalid_config] (bad config field), [Io]
    (cache directory unusable). *)

val detect_prepared :
  ?obs:Obs.t ->
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
  ?obs:Obs.t ->
  Config.t -> path:string -> Detector.repository -> (report, Err.t) result
(** Persist the repository at [path] in [config.repo_format] (atomic,
    durable — see {!Persist.write_atomic}).  Binary images additionally
    embed the repository index that {!spec_of_config} prescribes (when it
    builds one), so later loads skip the index rebuild.  The report carries
    a ["save"] timing.  Errors: [Invalid_config], [Io]. *)

val load_repository :
  ?obs:Obs.t ->
  ?config:Config.t ->
  path:string ->
  unit ->
  (Detector.repository * Detector.prepared * report, Err.t) result
(** Load a repository (either format, sniffed) together with its
    {!Detector.prepared} ({!Persist.load_repository_prepared_result}) and a
    report carrying a ["load"] timing; a load builds nothing, so its
    [built] is 0.  With [config], the prepared repository honours the
    config's index policy: an index embedded in the image is kept
    ([Index_auto]/[Index_vp]) or dropped ([Index_off]), and a missing one is
    built here — as for a v2 image, whose index section loads skip.
    Without [config] the file decides (an embedded index is used, none is
    built).  Errors: [Io], [Parse], [Invalid_config]. *)

val screen_prepared :
  ?obs:Obs.t ->
  ?cache:Model_cache.t ->
  Config.t ->
  Detector.prepared ->
  Pipeline.job array ->
  (Model.t array * Detector.verdict array * report, Err.t) result
(** {!build} the jobs, then {!detect_prepared} the resulting models: the §V
    deployment loop in one call.  With [cache] the build goes through that
    cache — its memory tier and its disk tier, if any — instead of one
    opened from [config.cache_dir]: a caller that screens again and again
    (the serve daemon) models each program once.  Without it the call
    opens the config's cache for itself alone — in effect its disk tier,
    since the memory tier dies with the call — and computes no key when
    [cache_dir] is unset.  Models and verdicts are
    byte-identical either way.  The report carries both stages' timings,
    the build's cache counts and the detect's engine counters.  Errors:
    [Invalid_config], [Empty_repository], [Io]. *)

val explain :
  ?obs:Obs.t ->
  ?cache:Model_cache.t ->
  Config.t ->
  Detector.prepared ->
  Pipeline.job array ->
  ( Model.t array * Detector.verdict array * report * Provenance.t array,
    Err.t )
  result
(** {!screen_prepared} (the same [cache] rule) on the same engine run with
    [~explain:true]
    ({!Engine.classify_batch}): the same models, verdicts and report —
    bit-identical — plus one {!Provenance.t} per job, index-aligned with
    the jobs ([seq] is the job's position) and stamped with [obs]'s trace
    id.  Backs [scaguard explain],
    [detect-batch --provenance-out] and the serve protocol's [explain]
    verb. *)
