(** Similarity-based detection and classification (§III-B3).

    A repository holds the CST-BBS models of known attack PoCs, each labelled
    with its family.  A target is compared against every PoC; the best score
    decides: above the threshold, the target is classified into the best
    PoC's family, otherwise it is considered benign.

    The verdict only commits to what the decision rule needs — the best
    score and its ties — which is what lets {!classify} skip, via the exact
    lower-bound cascade in {!Dtw}, any PoC provably unable to affect the
    outcome.  The full score matrix remains available through {!score_all}
    (display, debugging, calibration), at full cost.

    Batches go through {!Engine.classify_batch} and the typed front door
    through {!Service}; both score each target with {!classify_prepared}. *)

type poc = { family : string; model : Model.t }

type repository = poc list

type verdict = {
  best_matches : (string * string * float) list;
    (** The PoCs tied at exactly [best_score]: (model name, family,
        similarity) — usually a single element.  Ordering is deterministic:
        family, then model name (scores are all equal) — never dependent on
        repository assembly order. *)
  best_family : string option;
    (** [Some family] when the best score reaches the threshold; the family
        of the first element of [best_matches]. *)
  best_score : float;
}

val default_threshold : float
(** 0.60.  The paper picks 45% as the middle of its 30–60% sweep plateau
    (Fig. 5); our normalized-DTW similarity scale sits higher, and the same
    sweep methodology over this implementation yields a plateau around
    55–65%, hence 60%. *)

val classify :
  ?threshold:float -> ?alpha:float -> ?ws:Dtw.workspace -> ?band:int ->
  ?prune:bool -> repository -> Model.t -> verdict
(** Compare the target model with every PoC.  An empty repository yields
    {!empty_verdict}.  [ws] (buffer reuse) and [band] (Sakoe–Chiba) feed
    {!Dtw.compare_models}; with [band] absent the scores are exact.

    [prune] (default [true]) enables the exact lower-bound cascade: PoCs are
    visited in ascending-lower-bound order with a best-so-far cutoff, and a
    PoC is skipped only when provably below the running best.  Verdicts are
    bit-identical with pruning on or off (a tested invariant); pruning
    auto-disables for [alpha] outside [\[0,1\]], where the bounds are not
    sound.

    This is the one-shot form: {!prepare} followed by {!classify_prepared}.
    Its [~prune:false] run is the reference scan the fast paths are checked
    against. *)

type prepared
(** A repository with precomputed {!Dtw.summary}s, ready to classify many
    targets.  Immutable — one [prepared] value is safely shared by all
    domains of a batch. *)

val prepare : ?index:Vpindex.spec -> repository -> prepared
(** Summarize every PoC once.  Repository order is preserved.  With [index],
    additionally build the repository index over the summaries
    ({!Vpindex.build} — which may still decline under [Auto] on a small
    repository). *)

val prepared_size : prepared -> int
(** Number of PoCs in the prepared repository. *)

val prepared_index : prepared -> Vpindex.t option
(** The repository index, when one was built or attached. *)

val prepared_summaries : prepared -> Dtw.summary array
(** The PoC summaries in repository order (a fresh array of shared
    summaries) — what {!Vpindex.build} consumes and {!Persist} serializes. *)

val attach_index : prepared -> Vpindex.t option -> prepared
(** Replace the prepared repository's index — the no-rebuild path of the
    binary image, whose index shape {!Vpindex.of_bytes_result} decodes over
    this repository's own summaries.  The caller vouches that the index was
    built or decoded over exactly this repository; only the sizes are
    checked.
    @raise Invalid_argument on a size mismatch. *)

val classify_prepared :
  ?threshold:float -> ?alpha:float -> ?ws:Dtw.workspace -> ?band:int ->
  ?prune:bool -> ?ixc:Vpindex.counters -> prepared -> Model.t -> verdict
(** {!classify} against a pre-summarized repository — bit-identical results,
    minus the per-call summarization cost.

    When the prepared repository carries an index and pruning is enabled
    (and sound — [alpha] in [\[0,1\]]), candidates come from
    {!Vpindex.search} instead of the linear ascending-lower-bound sweep:
    subtrees provably below the running best are skipped without evaluating
    per-pair lower bounds.  Verdicts remain bit-identical either way (a
    tested invariant).  [ixc] accumulates the index counters reported by
    {!Engine}. *)

val score_all :
  ?alpha:float -> ?ws:Dtw.workspace -> ?band:int ->
  prepared -> Model.t -> (string * string * float) list
(** The full score matrix against every PoC, sorted score descending (then
    family, then model name).  Always computes every pair exactly — no
    pruning, and the index is deliberately not consulted — since every score
    is reported.  With the same [alpha] and [band], the head of the list
    agrees with the [best_matches] head of {!classify_prepared}. *)

val is_attack : verdict -> bool

val empty_verdict : verdict
(** The benign verdict of an empty repository: no matches, best score 0. *)
