(** The CST distance (§III-B1): the mean of a syntactic term (normalized
    Levenshtein over normalized instruction sequences) and a semantic term
    (difference of cache-change magnitudes). *)

val default_alpha : float
(** The paper's weighting of the two terms: [0.5], the plain mean.  Every
    [?alpha] default in this library (including the pruning bounds in
    {!Dtw}) refers to this value so they can never drift apart. *)

val entry_distance : ?alpha:float -> Model.entry -> Model.entry -> float
(** [Distance(tau1, tau2) = alpha*D_IS + (1-alpha)*D_CSP]; the paper's
    definition is the plain mean ([alpha = 0.5], the default).  [alpha] is
    exposed for the ablation benches (1.0 = syntax only, 0.0 = cache
    only).  D_IS runs over the entries' interned tokens
    ({!Model.entry.tokens}) and D_CSP is {!Cst.distance}.  This is the
    definition: {!Dtw}'s scoring kernel computes it inline, bit for bit. *)
