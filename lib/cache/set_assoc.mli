(** One set-associative cache level with LRU replacement, flush support and
    per-owner occupancy accounting. *)

type t

val create : ?policy:Policy.t -> Config.t -> t
(** [policy] defaults to {!Policy.Lru}.  Each line takes one byte (valid
    bit and owner) and two ints. *)

val renew : t -> unit
(** Return [t] in place to the state {!create} built it in, field for
    field (the Random policy's draw state included). *)

val config : t -> Config.t

val access : t -> owner:Owner.t -> int -> bool
(** [access t ~owner addr] looks up the line of [addr] and returns whether
    it hit.  On a miss the line is filled (evicting a way chosen by the
    cache's {!Policy.t} if the set is full) and ownership is recorded; on a
    hit the line is promoted to MRU and ownership is {e re-assigned} to
    [owner] (matching shared-memory attacks where the attacker re-loads a
    victim-fetched line).  A repeat of the latest access's line (most L1
    lookups) is answered first, before any set arithmetic, with the same
    effects as any hit.  Allocates nothing, except when the Random policy
    draws a victim. *)

val evicted : t -> bool
(** Whether the latest {!access} missed and evicted a valid line. *)

val evicted_addr : t -> int
(** Line address of the line the latest {!access} evicted; meaningful only
    when {!evicted} holds. *)

val evicted_owner : t -> Owner.t
(** Owner of that evicted line; meaningful only when {!evicted} holds. *)

val probe : t -> int -> bool
(** [probe t addr] reports presence without touching LRU state. *)

val flush : t -> int -> bool
(** [flush t addr] invalidates the line of [addr]; returns whether it was
    present. *)

val fill_all : t -> owner:Owner.t -> unit
(** Fill every line with distinct addresses owned by [owner] (used to start
    CST measurement from [(AO=0, IO=1)]). *)

val occupancy : t -> Owner.t -> float
(** Fraction of all lines currently owned by the given owner. *)

val state : t -> State.t
(** The paper's cache state: [AO] = occupancy of [Attacker], [IO] = summed
    occupancy of [Victim] and [System]. *)

val owned_sets : t -> Owner.t -> int list
(** Set indices holding at least one line of the given owner (ascending). *)

val valid_lines : t -> int
(** Number of currently valid lines. *)
