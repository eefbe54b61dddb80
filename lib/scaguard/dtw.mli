(** Dynamic Time Warping over CST-BBSes (§III-B2).

    DTW aligns the two sequences monotonically, matching similar
    subsequences in order, and accumulates the per-step CST distance.

    On similarity calibration: the paper converts a raw DTW distance with
    [1/(1+D)].  Raw accumulated distance scales with model length, and at our
    basic-block granularity that maps same-family pairs far below the
    paper's reported scores.  We therefore use the standard {e normalized}
    DTW distance (accumulated cost divided by the warping-path length, which
    lies in [\[0,1\]] for unit step costs) and report [1 - D_norm] — a
    monotone-equivalent score that lands in the same numeric ranges as
    Table V.  {!similarity_of_distance} still provides the paper's raw
    mapping for comparison.

    {b Workspaces.}  The batch engine scores millions of pairs; [?ws] lends
    one kernel its DP rows, its Levenshtein rows and the lower bound's
    column minima, so once grown the kernel allocates a small constant per
    call and nothing per cell.  A workspace also accumulates counters
    (pairs scored, DP cells computed, pairs pruned / abandoned, cells saved)
    for observability.  Results are bit-identical with or without a
    workspace.  A workspace must not be shared between concurrently running
    domains.

    {b Banding.}  [?band] restricts the DP to the Sakoe–Chiba band
    [|i - j| <= band].  When the two lengths differ by more than the band no
    warping path exists and the distance is [infinity] (similarity 0) with
    no DP work — an early bail-out for wildly different-sized models.  With
    [band >= max n m] (or no [band], the default) results equal the exact,
    unbanded computation.

    {b Pruning.}  {!summarize} precomputes per-model summaries;
    {!lower_bound} turns a pair of summaries into a cheap, provable lower
    bound on the normalized distance, and {!compare_summaries} combines the
    bound with early abandonment inside the DP ([?cutoff]) to skip work that
    cannot affect the verdict.  The cascade is {e exact}: a pair is only
    skipped when its score is proven to fall strictly below the cutoff, so
    {!Detector.classify} with pruning on and off returns bit-identical
    verdicts (a tested invariant).  See [docs/PERFORMANCE.md] for the
    operator-level picture. *)

type workspace
(** Reusable DP buffers plus per-workspace counters; one per pool worker. *)

val workspace : unit -> workspace

val pairs_scored : workspace -> int
(** Model/sequence pairs scored through this workspace since creation
    (including pairs resolved by bounds without running the DP). *)

val cells_computed : workspace -> int
(** DP matrix cells evaluated through this workspace since creation. *)

val pairs_pruned_lb : workspace -> int
(** Pairs skipped entirely because a lower bound proved the score could not
    reach the cutoff ({!compare_summaries} returned [None] without DP). *)

val pairs_abandoned : workspace -> int
(** Pairs whose DP was started but abandoned mid-matrix by [?cutoff]. *)

val cells_saved : workspace -> int
(** DP cells {e not} computed thanks to pruning: the full (banded) matrix
    for lower-bound-pruned pairs plus the unvisited rows of abandoned
    pairs. *)

val lb_evals : workspace -> int
(** {!lower_bound} evaluations performed through this workspace.  The linear
    cascade evaluates one bound per (target, PoC) pair; the repository index
    ({!Vpindex}) exists to shrink this count, so the engine reports it next
    to the pruning counters. *)

val similarity_of_distance : float -> float
(** The paper's raw mapping [1 / (1 + d)]. *)

val compare_models :
  ?ws:workspace -> ?band:int -> ?alpha:float -> Model.t -> Model.t -> float
(** Similarity score of two CST-BBS models: [1 - D/L], the accumulated
    cost [D] of the cheapest warping path divided by that path's length
    [L], in [\[0,1\]].  The step cost is {!Distance.entry_distance} under
    [alpha] (ablations).  [0.] whenever either model is empty — an empty
    model carries no attack behavior, so it can never be a (perfect) match,
    not even against another empty model — and when no warping path fits
    the band. *)

val compare_models_raw :
  ?ws:workspace -> ?band:int -> ?alpha:float -> Model.t -> Model.t -> float
(** The paper's literal [1/(1+D)] on the raw accumulated distance (exposed
    for the calibration bench).  Empty-model and band conventions as
    {!compare_models}. *)

(** {1 Summaries and the exact lower-bound cascade} *)

type summary
(** A model plus precomputed scoring ingredients: per-entry interned
    tokens, normalized-token counts and cache-change magnitudes, and the
    magnitudes sorted ascending.  Immutable — safe to share across
    domains; the engine summarizes the PoC repository once per batch. *)

val summarize : Model.t -> summary

val summary_model : summary -> Model.t

val summary_size : summary -> int
(** Number of entries of the summarized model. *)

val summary_lens : summary -> int array
(** Per-entry normalized-token counts, in entry order.  The array is the one
    stored in the summary and is {e shared} — callers must not mutate it
    ({!Vpindex} reads it to build its per-model screens). *)

val summary_mags : summary -> float array
(** Per-entry cache-change magnitudes, in entry order; shared like
    {!summary_lens}. *)

val prune_margin : float
(** The score-space safety margin ([1e-9]) added to every pruning cutoff so
    float rounding inside a bound can never skip a pair whose exact score
    would have reached the cutoff.  {!Detector} and {!Vpindex} use the same
    margin when converting a best-so-far score into a pruning radius. *)

val lower_bound : ?ws:workspace -> ?alpha:float -> summary -> summary -> float
(** A provable lower bound on the {e normalized} DTW distance between the
    two summarized models ([0.] when either is empty), the maximum of:

    - {b magnitude-range gap}, O(1): when the models' cache-change
      magnitude ranges are disjoint, every aligned step costs at least
      [(1-alpha) * gap], and so does the per-step average;
    - {b LB_Kim}: every warping path matches the two first and the two
      last entries, so those two entry costs (divided by the maximal path
      length [n+m-1]) are unavoidable;
    - {b row/column bound}, O(n*m) in cheap scalar operations (no
      Levenshtein DPs): a path visits every row and every column at least
      once, so the sum over rows (and over columns) of the cheapest
      per-entry bound is unavoidable.  The per-entry bound blends the
      Levenshtein length gap [|len1 - len2| / max len1 len2] with the
      magnitude difference [|mag1 - mag2|], which is D_CSP {e exactly};
      each is computed once for both sums.

    [ws] lends its Levenshtein rows to the LB_Kim entry costs and its
    column minima to the row/column bound.
    Sound for [alpha] in [\[0,1\]]; {!Detector.classify} disables pruning
    for [alpha] outside that range. *)

val compare_summaries :
  ?ws:workspace -> ?band:int -> ?alpha:float -> ?cutoff:float ->
  ?lb:float -> summary -> summary -> float option
(** [compare_summaries sa sb] is [Some (compare_models a b)] — bit-identical
    to scoring the underlying models, including the empty-model and
    out-of-band conventions.

    With [cutoff] (a score), the pair may instead be resolved to [None],
    {e only} when the score is proven to fall strictly below [cutoff]:
    first by the cheap {!lower_bound} ([lb] supplies a precomputed value,
    e.g. from the ordering pass, to avoid recomputing it), then by early
    abandonment inside the DP.  Both tests include a [1e-9] score-space
    margin, so float rounding in a bound can never prune a pair whose
    exactly-computed score would have reached [cutoff].  Without [cutoff]
    the result is always [Some _]. *)
