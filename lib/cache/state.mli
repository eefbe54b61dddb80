(** Cache states and cache state transitions (Definitions 2–4 of the paper).

    A cache state is [(AO, IO)]: the occupancy rate of lines owned by the
    attack program and by everyone else, with [AO + IO <= 1]. *)

type t = { ao : float; io : float }

val make : ao:float -> io:float -> t
(** Checked constructor.
    @raise Invalid_argument unless [0 <= ao], [0 <= io], [ao + io <= 1 + eps];
    in particular on a NaN or infinite occupancy. *)

val full_other : t
(** [(0, 1)] — the paper's CST-measurement start state: cache full of
    non-attacker data. *)

val change_magnitude : before:t -> after:t -> float
(** [P = (|AO - AO'| + |IO - IO'|) / 2], the cache-change magnitude of a
    transition (§III-B1). *)

val distance : (t * t) -> (t * t) -> float
(** [distance (s1, s1') (s2, s2')] is [|P2 - P1|], the paper's D_CSP. *)

val pp : Format.formatter -> t -> unit
