(** The hardware-performance-counter events of Table I.

    Eleven cache/branch events plus the timestamp; the paper's per-BB "HPC
    value" sums the eleven non-timestamp events. *)

type t =
  | L1d_load_miss
  | L1d_load_hit
  | L1d_store_hit
  | L1i_load_miss
  | Llc_load_miss
  | Llc_load_hit
  | Llc_store_miss
  | Llc_store_hit
  | Branch_miss       (** mispredicted branches *)
  | Branch_load_miss  (** branch-target loads missing the LLC *)
  | Cache_miss        (** any last-level miss *)
  | Timestamp         (** rdtsc/rdtscp executed *)

val all : t list
(** Every event, in Table I order. *)

val count : int

val index : t -> int
(** Dense index for counter arrays. *)

val of_index : int -> t
(** @raise Invalid_argument when out of range. *)

val counted_in_hpc_value : t -> bool
(** True for the 11 events summed into a BB's HPC value (all but
    [Timestamp]). *)

val to_string : t -> string
val equal : t -> t -> bool
