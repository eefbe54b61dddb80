(** Who brought a line into the cache.  The paper's cache state [(AO, IO)]
    partitions occupancy into lines owned by the attack program ([Attacker])
    and everything else. *)

type t =
  | Attacker  (** the program under analysis *)
  | Victim    (** the co-running victim process *)
  | System    (** pre-existing / background data *)

val to_string : t -> string
val equal : t -> t -> bool
