(** A bounded FIFO queue with explicit rejection.

    The request queue of a long-running server: a fixed-capacity ring buffer
    whose {!push} {e refuses} instead of growing, so the caller must decide
    what to do with the overflow (reply "busy", drop, retry) — backpressure
    is an explicit code path, never an unbounded heap.  Single-threaded: the
    serve loop that owns the queue is the only mutator, so there is no
    locking and no atomic traffic. *)

type 'a t

val create : capacity:int -> 'a t
(** A fresh empty queue holding at most [capacity] elements.
    @raise Invalid_argument if [capacity < 1]. *)

val capacity : 'a t -> int

val length : 'a t -> int
(** Elements currently queued, in [0..capacity]. *)

val is_empty : 'a t -> bool

val push : 'a t -> 'a -> bool
(** Append at the tail; [false] (and no change) when the queue is full. *)

val pop : 'a t -> 'a option
(** Remove and return the head; [None] when empty.  The slot is cleared so
    the queue never retains a popped element against the GC. *)

val peek : 'a t -> 'a option
(** The head without removing it. *)

val drain : 'a t -> ('a -> unit) -> unit
(** Pop-and-apply until empty, in FIFO order. *)

val clear : 'a t -> unit

val to_list : 'a t -> 'a list
(** The queued elements head-first, without consuming them. *)
