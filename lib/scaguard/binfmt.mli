(** Low-level binary encoding primitives for the {!Persist} binary formats.

    A tiny, dependency-free wire vocabulary: unsigned LEB128 varints,
    zigzag-encoded signed ints, IEEE-754 doubles as their exact 8-byte
    little-endian bit patterns, and length-prefixed strings.  Floats
    round-trip bit-for-bit (no decimal detour), which is what makes the
    binary repository image byte-identical to the text path after a
    round-trip.

    The writer side appends to a caller-supplied [Buffer]; the reader side
    walks a [string] with a cursor and reports every malformed input —
    truncation, overlong varints, counts that exceed the remaining bytes —
    as a typed {!Err.Parse} carrying the file name and the byte offset, via
    {!run}.  No reader function ever raises out of {!run}. *)

(** {1 Writing} *)

val add_u8 : Buffer.t -> int -> unit
(** One byte (the low 8 bits of the argument). *)

val add_uint : Buffer.t -> int -> unit
(** Unsigned LEB128.  The argument's 63-bit pattern is encoded, so any
    OCaml [int] (including negative bit patterns) round-trips; intended for
    counts and ids, which are non-negative. *)

val add_int : Buffer.t -> int -> unit
(** Zigzag + LEB128: small magnitudes of either sign stay short, and
    [max_int] / [min_int] round-trip exactly. *)

val add_float : Buffer.t -> float -> unit
(** The 8-byte little-endian IEEE-754 bit pattern — exact for every float,
    including NaNs, infinities and signed zeros. *)

val add_string : Buffer.t -> string -> unit
(** [add_uint length] followed by the raw bytes. *)

(** {1 Reading} *)

type reader
(** A cursor over an immutable byte string. *)

val reader : ?file:string -> string -> reader

val pos : reader -> int
(** Current byte offset. *)

val length : reader -> int
(** Total byte length of the underlying string. *)

val remaining : reader -> int

val u8 : reader -> int
val uint : reader -> int
val int : reader -> int
val float : reader -> float
val string : reader -> string

val bytes : reader -> int -> string
(** The next [n] raw bytes. *)

val expect : reader -> string -> unit
(** Consume exactly the given bytes or fail. *)

val count : reader -> what:string -> int
(** An element count: a {!uint} additionally checked to be non-negative
    and at most the bytes remaining (every counted element occupies at least
    one byte), so a corrupt length can never provoke a huge allocation. *)

val fail : reader -> ('a, unit, string, 'b) format4 -> 'a
(** Abort the parse with a message anchored at the current offset.  Only
    meaningful inside a {!run} callback. *)

val run : ?file:string -> (reader -> 'a) -> string -> ('a, Err.t) result
(** Run a parser over the whole string.  Any {!fail} (or malformed
    primitive) becomes [Error (Err.Parse { file; line = None; msg })] with
    the byte offset in the message; nothing escapes as an exception. *)
