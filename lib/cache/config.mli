(** Geometry of one cache level. *)

type t = {
  sets : int;       (** number of sets; powers of two index by mask, other
                        counts by modulo *)
  ways : int;       (** associativity *)
  line_bits : int;  (** log2 of the line size in bytes (6 for 64-byte lines) *)
}

val make : sets:int -> ways:int -> ?line_bits:int -> unit -> t
(** Checked constructor; [line_bits] defaults to 6.
    @raise Invalid_argument unless [sets > 0], [ways > 0] and
    [1 <= line_bits <= 16]. *)

val lines : t -> int
(** Total line count, [sets * ways]. *)

val line_size : t -> int
(** Line size in bytes. *)

val set_of_addr : t -> int -> int
(** Cache-set index of a byte address. *)

val tag_of_addr : t -> int -> int
(** Tag of a byte address (line address divided by set count). *)

val line_addr : t -> int -> int
(** Address truncated to its line base. *)

val l1d : t
(** Default L1 data cache: 64 sets x 8 ways x 64 B (32 KiB). *)

val l1i : t
(** Default L1 instruction cache: 64 sets x 8 ways x 64 B. *)

val llc : t
(** Default last-level cache: 512 sets x 16 ways x 64 B (512 KiB) — scaled
    down from an i7-6700 LLC so that the small simulated workloads exercise
    measurable occupancy changes. *)

val cst_probe : t
(** Small cache used when measuring cache state transitions of single basic
    blocks (§III-A3): 61 sets (prime, so page- and way-stride access patterns
    do not alias into one set) x 2 ways — a block touching a few dozen lines
    moves the occupancy rates appreciably. *)
