(** The parallel batch detection engine.

    Deployment (§V of the paper) screens many programs against a fixed PoC
    repository; online detectors live or die on per-sample scoring latency.
    This engine takes a repository summarized once ({!Detector.prepare}), fans
    {!Detector.classify_prepared} out over a pool of OCaml 5 domains
    (a shared atomic work queue, so uneven model sizes balance dynamically),
    gives each worker one reusable {!Dtw.workspace} so the DTW + Levenshtein
    hot path allocates nothing per pair, and reports per-batch counters.

    Neither parallelism nor pruning changes verdicts: each target is scored
    by exactly the sequential {!Detector.classify} code path, and the
    lower-bound cascade only ever skips work it proves irrelevant, so the
    verdict array — including score bits and tie ordering — is identical to
    a sequential, pruning-free map.  The [band] option (Sakoe–Chiba) is the
    only knob that trades exactness for speed, and it is off by default.
    [docs/PERFORMANCE.md] is the operator guide to all of these knobs. *)

type stats = {
  domains : int;      (** workers actually used *)
  targets : int;      (** targets classified *)
  pairs : int;        (** model pairs considered (targets × repository),
                          whether scored exactly or resolved by a bound *)
  cells : int;        (** DTW DP cells computed *)
  pairs_pruned_lb : int;
    (** pairs skipped without any DP: a lower bound proved they could not
        reach the best score *)
  pairs_abandoned : int;
    (** pairs whose DP was started but cut short by the cutoff *)
  cells_saved : int;
    (** DP cells pruning avoided (whole matrices of lower-bound-pruned
        pairs + unvisited rows of abandoned pairs) *)
  lb_evals : int;
    (** {!Dtw.lower_bound} evaluations.  The linear cascade performs one per
        pair; the repository index exists to shrink this — the
        visited-fraction [lb_evals / pairs] is the headline [bench: index]
        metric. *)
  nodes_visited : int;
    (** repository-index tree nodes expanded ({!Vpindex.counters}); 0 when
        no index is in play *)
  pairs_pruned_index : int;
    (** pairs skipped by the index before any per-pair lower bound ran;
        still counted in [pairs] *)
  wall_s : float;     (** wall-clock seconds for the batch *)
  cpu_s : float;      (** process CPU seconds for the batch (all domains) *)
  per_worker : int array;  (** targets classified by each worker *)
  latency : Obs.latency option;
    (** the batch's per-target [verdict] and [dtw_pair] latencies, merged
        from one record per worker; present iff [obs] had {!Obs.metrics}
        on (its [model_build] stays empty) *)
}

val classify_batch :
  ?obs:Obs.t ->
  ?threshold:float -> ?alpha:float -> ?band:int -> ?domains:int ->
  ?prune:bool -> ?explain:bool ->
  Detector.prepared -> Model.t array ->
  Detector.verdict array * Provenance.t array * stats
(** Classify every target against the prepared repository.  [domains]
    defaults to {!Sutil.Pool.default_domains} (clamped to the batch size);
    [prune] (default [true]) toggles the exact lower-bound cascade — verdicts
    are bit-identical either way, only the counters move.  An index built
    into the [prepared] ({!Detector.prepare} [~index]) is used when pruning;
    verdicts are again bit-identical with or without it.

    With [explain] (default [false]) the records array is index-aligned
    with the verdicts: record [i] explains target [i] and has [seq = i],
    whichever worker classified it, and carries [obs]'s trace id.  Without
    it the array is empty.  Verdicts and counters are identical either way,
    as they are under any [obs] (default {!Obs.off}). *)

val utilization : stats -> float
(** [cpu / (wall * domains)], clamped to [\[0,1\]]: 1.0 means every worker
    was busy the whole batch.  By convention [0.] when [wall_s = 0.] (a
    batch too small to time) — never [nan]. *)

val throughput : stats -> float
(** Pairs per wall-clock second.  [0.] when [wall_s = 0.], never
    [infinity]. *)
