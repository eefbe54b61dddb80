(** End-to-end attack behavior modeling: execute (collect runtime data),
    build the CFG, identify attack-relevant blocks, run Algorithm 1, and
    assemble the CST-BBS model — Fig. 2's left half.

    Every stage's intermediate output is kept in the {!analysis} record so
    callers (the CLI, the experiments, the examples) can inspect the
    pipeline as well as its final model.  Downstream, the model feeds
    {!Detector.classify} (one-off) or {!Engine.classify_batch} (batch
    screening — see [docs/PERFORMANCE.md]).

    {b Batch building.}  {!build_models_batch} fans the whole chain over a
    {!Sutil.Pool} of domains.  Each task is independent of every other (its
    own execution, CFG, identification, graph and model; per-worker scratch
    only for the CST probe simulator), so the batch models are
    {e byte-identical} to running {!run_and_analyze} in a loop — a property
    the test suite asserts.  It can additionally
    consult a {!Model_cache}, skipping execution and modeling entirely for
    cached programs: its memory tier in the calling domain, its disk tier
    and the builds on the workers. *)

type analysis = {
  name : string;            (** the analyzed program's name *)
  cfg : Cfg.Graph.t;        (** the reconstructed control-flow graph *)
  info : Relevant.info;     (** attack-relevant block identification (§III-A2) *)
  attack_graph : Attack_graph.t;  (** Algorithm 1's attack-relevant graph *)
  model : Model.t;          (** the CST-BBS — what the detector consumes *)
  exec : Cpu.Exec.result;   (** raw execution: HPC counters + address trace *)
}

val analyze :
  ?max_paths:int -> ?max_len:int -> ?cst_config:Cache.Config.t ->
  ?measurer:Cst.measurer ->
  name:string -> program:Isa.Program.t -> Cpu.Exec.result -> analysis
(** Build the model from an already-collected execution of [program].
    [measurer] lends a reusable CST probe simulator to the per-block
    measurements (results identical with or without it); the batch entry
    points pass one per worker. *)

val run_and_analyze :
  ?settings:Cpu.Exec.settings ->
  ?init:(Cpu.Machine.t -> unit) ->
  ?victim:Isa.Program.t * (Cpu.Machine.t -> unit) ->
  ?max_paths:int -> ?max_len:int -> ?cst_config:Cache.Config.t ->
  Isa.Program.t -> analysis
(** Execute the program (with optional victim) and analyze it. *)

(** {1 Batch building} *)

type job = {
  job_name : string;
  program : Isa.Program.t;
  settings : Cpu.Exec.settings option;
  init : (Cpu.Machine.t -> unit) option;
  victim : (Isa.Program.t * (Cpu.Machine.t -> unit)) option;
  salt : string;
    (** Cache-key salt covering the unhashable inputs ([init], the victim's
        init) — see {!Model_cache.key} and {!seeded}.  Irrelevant without a
        cache. *)
}
(** One program to execute and model: the arguments of {!run_and_analyze},
    reified so a batch can carry many of them. *)

val job :
  ?settings:Cpu.Exec.settings ->
  ?init:(Cpu.Machine.t -> unit) ->
  ?victim:Isa.Program.t * (Cpu.Machine.t -> unit) ->
  ?salt:string -> name:string -> Isa.Program.t -> job

val seeded : seed:int -> job -> job
(** The salt policy of target programs: [job] salted with
    [string_of_int seed] unless it carries a salt of its own.  A target's
    [init] closures are a function of the workload seed (and its name,
    which the key holds), so the seed is the salt that keeps two seeds'
    models apart.  The front-ends salt every target this way — [detect],
    [detect-batch], [explain] and the serve daemon — so a config whose
    salt is pinned (as [build-repo --save-config] writes one for its PoC
    repository) never reaches a target's cache key. *)

val build_models_batch :
  ?obs:Obs.t ->
  ?domains:int ->
  ?cache:Model_cache.t ->
  ?max_paths:int -> ?max_len:int -> ?cst_config:Cache.Config.t ->
  job array -> Model.t array * Obs.latency option
(** Execute and model every job, fanned over [domains] workers (default
    {!Sutil.Pool.default_domains}) — and, with [cache], consulting the cache
    first: a hit skips execution and modeling entirely, a miss builds then
    stores.  The cache's memory tier is read before the fan-out and filled
    after it, both in the calling domain; only the jobs it lacks reach the
    pool (none: the pool is skipped), where the disk tier is read and the
    models built.  Cached or not, [models.(i)] is byte-identical
    ({!Persist.model_to_string}) to a fresh sequential build of [jobs.(i)],
    under any [obs] (default {!Obs.off}).  With {!Obs.metrics} on, the
    second component times every model actually built (cache hits
    excluded) in its [model_build], merged from one record per worker;
    otherwise it is [None]. *)
