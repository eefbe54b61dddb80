(** A hash table from [int] keys to [int] values for the simulator's hot
    paths: machine memory, the wrong-path store overlay and the
    branch-target buffer.  It hashes by multiplication and probes linearly,
    so no operation calls [caml_hash] or the polymorphic compare, and no
    operation but growth allocates.  Every [int] is a valid key. *)

type t

val create : int -> t
(** [create n] is an empty table sized for about [n] bindings; it grows as
    needed. *)

val length : t -> int
(** Number of bindings. *)

val mem : t -> int -> bool

val find : t -> int -> default:int -> int
(** [find t k ~default] is the value bound to [k], or [default]. *)

val replace : t -> int -> int -> unit
(** [replace t k v] binds [k] to [v], replacing any previous binding. *)

val clear : t -> unit
(** Remove every binding in O(1); the capacity is kept. *)

val fold : (int -> int -> 'a -> 'a) -> t -> 'a -> 'a
(** Fold over the bindings in unspecified order. *)
