(** Branch prediction: a table of 2-bit saturating counters indexed by branch
    address.  (The branch-target buffer, whose cold misses feed the "Branch
    Load Miss" HPC event, is {!Exec}'s: one byte per instruction of each
    process.)

    Spectre-style attacks rely on training these counters: repeated taken (or
    not-taken) outcomes steer the transient path at the mispredicted
    occurrence. *)

type t

val create : ?entries:int -> unit -> t
(** [entries] must be a power of two (default 1024). *)

val predict_taken : t -> pc:int -> bool
(** Current prediction for the conditional branch at [pc]. *)

val update : t -> pc:int -> taken:bool -> unit
(** Train with the resolved outcome. *)
