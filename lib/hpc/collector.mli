(** Runtime data collection — the stand-in for perf-intel-pt + Intel PT.

    The CPU simulator reports, per executed instruction: HPC events keyed by
    the instruction's address, and every memory access / flush with its target
    address and timestamp.  SCAGuard later maps this data onto basic blocks
    (§III-A1). *)

type access_kind = Load | Store | Flush

type access = {
  pc : int;          (** address of the instruction performing the access *)
  target : int;      (** accessed (or flushed) byte address *)
  kind : access_kind;
  time : int;        (** cycle timestamp *)
}

type t

val create : base:int -> length:int -> t
(** A collector for a program of [length] instructions at [base]: every pc
    it records is [base + 4 * i] with [0 <= i < length], so per-pc data is
    held in one flat array.  Queries at any other address answer as for a
    pc that never ran. *)

val renew : t -> base:int -> length:int -> unit
(** Make [t] answer every query as [create ~base ~length] would, reusing
    its arrays where they are long enough. *)

(** The recording calls take the instruction index [i], [0 <= i < length]. *)

val record_event : t -> int -> Event.t -> unit
val record_access : t -> int -> target:int -> kind:access_kind -> time:int -> unit

val note_executed : t -> int -> time:int -> unit
(** Record that instruction [i] retired at [time]; keeps the first time per
    pc (the BB-ordering timestamp of §III-A3) and counts executions. *)

val exec_count : t -> pc:int -> int
(** How many times the instruction at [pc] retired. *)

val counters_at : t -> pc:int -> Counters.t option
(** Counter bank of one instruction address, if any event fired there. *)

val hpc_value_at : t -> pc:int -> int
(** Summed 11-event HPC value at one address (0 when nothing fired). *)

val total_counters : t -> Counters.t
(** All events summed over the whole run — the whole-process view the
    learning-based baselines sample. *)

val fold_accesses_right :
  t -> init:'a ->
  f:(pc:int -> target:int -> kind:access_kind -> time:int -> 'a -> 'a) -> 'a
(** Folds over the access log from the newest access to the oldest, so
    consing onto [init] builds chronological lists.  Reads the log in
    place. *)

val accesses : t -> access list
(** All recorded accesses in chronological order, as records. *)

val first_time : t -> pc:int -> int option
(** First retirement time of the instruction at [pc]. *)

val executed_pcs : t -> int list
(** Distinct executed instruction addresses, ascending. *)

val access_count : t -> int
