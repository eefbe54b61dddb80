(** A lock-free collection sink, optionally bounded.

    The capture buffer behind the span tracer and the structured event log:
    a Treiber stack that any domain may push to without a lock.  A bounded
    sink counts a push beyond its capacity in {!dropped} and discards it, so
    emission never blocks and never grows without limit.  Items come back unordered; callers that need emission
    order stamp their items with a sequence number and sort. *)

type 'a t

val create : ?capacity:int -> unit -> 'a t
(** An empty sink holding at most [capacity] items, or any number when
    [capacity] is absent.  @raise Invalid_argument if [capacity < 1]. *)

val set_capacity : 'a t -> int -> unit
(** Change the bound for later pushes; items already held stay.  Meant to
    be called between runs, not concurrently with pushes.
    @raise Invalid_argument if [< 1]. *)

val capacity : 'a t -> int
(** The current bound; [max_int] for an unbounded sink. *)

val push : 'a t -> 'a -> unit
(** Add an item, or count it in {!dropped} when the sink is full.  Under
    contention the length check may transiently overshoot, which errs on
    the side of dropping. *)

val items : 'a t -> 'a list
(** Every item held, in no particular order. *)

val dropped : 'a t -> int
(** Pushes discarded since the last {!clear}. *)

val clear : 'a t -> unit
(** Empty the sink and zero {!dropped}. *)
