(** Per-request deadlines over a caller-supplied monotonic clock.

    A deadline is an absolute instant on whatever monotonic nanosecond clock
    the caller reads ([Scaguard.Obs.Clock] in the server); keeping the clock
    out of this module keeps [sutil] dependency-free and the tests able to
    drive time by hand.  All arithmetic saturates rather than wrapping, so a
    caller passing [max_int] budgets cannot manufacture a deadline in the
    past. *)

type t
(** An absolute deadline instant, or "none" (never expires). *)

val none : t
(** The deadline that never expires. *)

val after : now_ns:int64 -> budget_ms:int -> t
(** The instant [budget_ms] milliseconds after [now_ns].  A zero or negative
    budget yields {!none} — "no deadline", matching the wire protocol where
    an absent or zero [deadline_ms] means the request never expires. *)

val is_none : t -> bool

val expired : now_ns:int64 -> t -> bool
(** Has the instant passed?  Always [false] for {!none}. *)

val remaining_ns : now_ns:int64 -> t -> int64 option
(** Nanoseconds left ([None] for {!none}); never negative — an expired
    deadline reports [Some 0L]. *)
