(** A minimal strict JSON reader/writer — the one JSON codec of the stack:
    the wire format of the serve protocol ({!Server}), the structured event
    log ({!Log}), the provenance records ({!Provenance}), the Chrome trace
    ({!Obs.Trace_writer}) and the run report ({!Service.report_to_json});
    no external JSON dependency.  The
    parser rejects trailing garbage, raw control characters in strings,
    lone surrogates, non-finite numbers and nesting deeper than
    {!max_depth} levels — a hostile frame can fail a request but never
    confuse the framing. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

exception Fail of int * string
(** Raised internally by the parser; {!parse} catches it.  Exposed so
    callers embedding the parser pieces see a typed failure. *)

val max_depth : int
(** Maximum accepted nesting depth (64). *)

val parse : string -> (t, string) result
(** Parse one complete JSON value; the error carries a byte offset. *)

val num_to_string : float -> string
(** Integral [Num]s print without an exponent or decimal point; other
    finite floats print as [%.17g] (shortest exact round-trip for
    similarity scores); non-finite floats print as ["null"]. *)

val to_buf : Buffer.t -> t -> unit

val to_string : t -> string
(** Compact single-line rendering (no raw newlines — safe to frame).
    Number formatting as {!num_to_string}. *)

val member : string -> t -> t option
(** First binding of a key in an [Obj]; [None] otherwise. *)
