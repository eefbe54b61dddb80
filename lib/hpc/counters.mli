(** A bank of HPC counters, one slot per {!Event.t}. *)

type t

val create : unit -> t
val incr : t -> Event.t -> unit
val add : t -> Event.t -> int -> unit
val get : t -> Event.t -> int
val total : t -> int
(** Sum over all events, including [Timestamp]. *)

val hpc_value : t -> int
(** Sum over the 11 events counted by the paper's per-BB HPC value. *)

val merge_into : dst:t -> t -> unit
(** [merge_into ~dst src] adds [src]'s counts into [dst]. *)

val to_assoc : t -> (Event.t * int) list
(** Non-zero counters only, in Table I order. *)

val to_vector : t -> float array
(** All {!Event.count} counters as a dense feature vector (Table I order) —
    the representation the learning-based baselines train on. *)

val reset : t -> unit
val copy : t -> t
