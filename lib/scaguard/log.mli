(** The leveled, structured event log (JSONL).

    Replaces ad-hoc stderr prints across the CLI, daemon and cache with one
    emission API that feeds two independent outputs, both set by the
    emitting {!Obs.t} ([?obs], default {!Obs.off}):

    - a {b bounded, non-blocking capture buffer} (the value's lock-free
      sink, bounded by [Obs.create ~capacity] — overflow is counted in
      {!Obs.dropped}, never waited on), drained into a JSON-Lines artifact
      by {!write} ([detect-batch --log-out]);
    - a {b stderr mirror} at the value's minimum severity, preserving the
      exact bytes operators and CI already depend on ({!Obs.off} mirrors
      [Info] and above).

    Timestamps are monotonic ({!Obs.Clock}), so JSONL line order is
    meaningful across wall-clock steps; events carry the emitting value's
    {!Obs.trace_id}, correlating them with spans and provenance records.
    Like {!Obs}, the disabled path is one field load and branch with zero
    allocation, and capturing is pure observation: no verdict bit depends
    on it (qcheck-asserted). *)

type level = Obs.level = Debug | Info | Warn | Error

val level_to_string : level -> string
(** ["debug"] / ["info"] / ["warn"] / ["error"] — the spelling used in the
    JSONL, the config file and the CLI's [--log-level] flag. *)

val level_of_string : string -> level option

(** {1 Emission} *)

val event :
  ?obs:Obs.t ->
  ?fields:(string * Json.t) list ->
  level ->
  string ->
  string ->
  unit
(** [event lvl name message] — mirror [message] to stderr (when [lvl]
    reaches [obs]'s mirror level) and capture a structured event stamped
    with [obs]'s trace id (when [obs] captures at [lvl]).  Lock-free; safe
    from any domain. *)

val debug :
  ?obs:Obs.t -> ?fields:(string * Json.t) list -> string ->
  ('a, unit, string, unit) format4 -> 'a

val info :
  ?obs:Obs.t -> ?fields:(string * Json.t) list -> string ->
  ('a, unit, string, unit) format4 -> 'a

val warn :
  ?obs:Obs.t -> ?fields:(string * Json.t) list -> string ->
  ('a, unit, string, unit) format4 -> 'a

val error :
  ?obs:Obs.t -> ?fields:(string * Json.t) list -> string ->
  ('a, unit, string, unit) format4 -> 'a
(** [info name fmt ...] — {!event} with a printf-style message. *)

val err : ?obs:Obs.t -> ?prefix:string -> string -> Err.t -> unit
(** [err name e] — an [Error]-level event named [name] with the typed
    context of [e] as fields ([kind] plus the variant's payload, so error
    events are queryable by field) and the message ["<prefix>: <Err.to_string e>"]
    ([prefix] defaults to ["scaguard"]) — the structured replacement for
    [Printf.eprintf "scaguard: %s" (Err.to_string e)]: same stderr bytes
    via the mirror, plus the typed record. *)

(** {1 Draining} *)

val to_jsonl : Obs.t -> string
(** The value's captured {!Obs.events}, one compact JSON object per line.
    When {!Obs.dropped} is non-zero a final [log.dropped] marker line
    records the loss — a truncated log says so. *)

val write : Obs.t -> path:string -> (unit, Err.t) result
(** Atomically write {!to_jsonl} ({!Persist.write_atomic}); [Error (Io _)]
    on failure. *)
