(** Repository index: sublinear candidate search over the lower-bound
    cascade (ROADMAP "UCR-suite trajectory", indexing step).

    The linear cascade of {!Dtw.compare_summaries} still evaluates one
    {!Dtw.lower_bound} per (target, PoC) pair — O(repository) work per
    target.  [Vpindex] organizes the summarized repository once
    ({!Detector.prepare}) into a vantage-point tree whose every node carries
    {e aggregate} scoring ingredients pooled over its subtree (entry-count
    ranges, magnitude ranges, first/last-entry pools, small interval
    sketches of magnitudes and token counts).  At query time, {!search}
    walks the tree best-first and computes from those pools a provable lower
    bound on the normalized DTW distance between the target and {e every}
    member of a subtree; the subtree is skipped only when that bound exceeds
    the caller's current radius.  Verdicts therefore stay bit-identical to
    the linear scan — the same soundness argument as the cascade (bounds
    never exceed the true distance), tested by qcheck properties and
    asserted in [bench: index] and CI.

    {b Not a metric index.}  Normalized DTW violates the triangle
    inequality, so classic VP-tree pruning by pivot distance would be
    unsound.  Pivots only steer {e construction} (grouping models that are
    close in lower-bound distance so subtree pools stay tight); all pruning
    decisions rest on the per-node aggregate bounds.

    {b Determinism.}  Construction is sequential and seeded
    ([spec.seed], derived from [Config.salt] via {!seed_of_salt}), so
    building the same repository twice yields byte-identical indexes
    ({!to_bytes}) regardless of process, domain count, or hash-table
    iteration order.

    See [docs/PERFORMANCE.md] "Repository index" for the operator view and
    [DESIGN.md] for the byte-level layout of the serialized form. *)

type mode =
  | Auto  (** build only when the repository has ≥ {!auto_min} models *)
  | Force  (** always build *)

type spec = {
  mode : mode;
  leaf : int;  (** max members per tree leaf; ≥ 2 *)
  pivots : int;  (** pivot candidates sampled per split; ≥ 1 *)
  seed : int;  (** construction seed; see {!seed_of_salt} *)
}

val default_spec : spec
(** [{ mode = Auto; leaf = 16; pivots = 5; seed = 0 }]. *)

val auto_min : int
(** Repository size below which [Auto] skips the index (256): linear scans
    of a few hundred summaries are already microseconds, and skipping keeps
    small-repository counter semantics unchanged. *)

type t
(** An immutable index over one prepared repository; safe to share across
    domains.  Indexes are positions in the repository's PoC array. *)

type counters = {
  mutable nodes_visited : int;
      (** tree nodes expanded by {!search} (root included) *)
  mutable pairs_pruned_index : int;
      (** members skipped by a node bound or member screen — pairs the
          linear cascade would have evaluated a {!Dtw.lower_bound} for *)
}
(** Per-worker query counters, summed by {!Engine} next to
    [pairs_pruned_lb].  Not thread-safe: use one per domain. *)

val counters : unit -> counters

val seed_of_salt : string -> int
(** Deterministic non-negative seed from a config salt (FNV-1a over the
    bytes — stable across OCaml versions, unlike [Hashtbl.hash]). *)

val build : spec -> Dtw.summary array -> t option
(** Build an index over the summarized repository, in repository order.
    [None] when [spec.mode = Auto] and the repository is smaller than
    {!auto_min}.  Empty models are kept out of the tree on an always-visited
    side list (their score is 0.0 by convention and their conventional
    distance 1.0 admits no useful bound).
    @raise Invalid_argument if [spec.leaf < 2] or [spec.pivots < 1]. *)

val search :
  ?alpha:float ->
  ?ixc:counters ->
  ?trace:(Provenance.index_event -> unit) ->
  t ->
  Dtw.summary ->
  dmax:(unit -> float) ->
  visit:(int -> unit) ->
  unit
(** [search t target ~dmax ~visit] enumerates repository positions whose
    model could score at least the caller's moving cutoff, best-first by
    node bound.  [visit i] must score PoC [i] (and, if the score beats the
    caller's best, tighten it); [dmax ()] returns the current pruning radius
    in distance space — [infinity] until a first score exists, then
    [1.0 -. best +. Dtw.prune_margin], mirroring {!Dtw.compare_summaries}.
    A node or member is skipped only when its bound {e strictly} exceeds
    [dmax ()], so every PoC the linear cascade would keep is visited.
    Bounds are capped at 1.0, so out-of-band and empty pairs (conventional
    distance 1.0, score 0.0) are never pruned while the best score is ≤ 0.
    [alpha] must equal the scoring alpha (sound for alpha in [\[0,1\]];
    callers disable the index otherwise, as with lower-bound pruning).
    Visit order is deterministic.  An empty target visits every position
    (all scores are 0.0; no bound applies).  [trace], when given, receives
    each traversal decision (node visits, subtree cut-offs and member
    prunes, with the bounds that justified them) for a provenance record —
    pure observation, never read back into the search. *)

val size : t -> int
(** Repository size the index was built over (empty models included). *)

(** {1 Serialization}

    The encoded form is embedded (length-prefixed) in the SCAGBIN v3
    repository image's optional index section.  It stores only the tree's
    shape: the nesting of its nodes and each leaf's member positions.  Every
    member screen and node bound is re-derived on decode from the loaded
    summaries, so the stored bytes can never make pruning unsound. *)

val to_bytes : t -> string

val of_bytes_result :
  ?file:string -> Dtw.summary array -> string -> (t, Err.t) result
(** Decode {!to_bytes} output over the repository's summaries, in
    repository order, recomputing every bound with the functions {!build}
    uses, so [of_bytes_result summaries (to_bytes ix) = Ok ix] for an [ix]
    built over [summaries].  The shape must partition the non-empty models
    exactly: each position appears once, no leaf is empty and every branch
    has at least two children; empty models are read off the summaries.
    Anything else is [Error (Parse _)]. *)
