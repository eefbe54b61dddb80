(** [scaguard serve]: the resident streaming detection daemon.

    The batch stack pays repository load, {!Detector.prepare}, process
    start-up and the modeling of every target on every invocation; this
    module keeps all of that resident.  A server holds one validated
    {!Config.t}, one {!Detector.prepared} repository (loaded once, from
    either format — see {!Service.load_repository}), a name→job resolver
    and one {!Model_cache} (its memory tier, in front of the config's disk
    tier if any), so each program is modeled once per daemon, and
    speaks a newline-framed JSON protocol over stdio, a Unix socket or TCP:
    [detect] / [screen] / [explain] / [stats] / [metrics] / [reload] /
    [ping] / [shutdown] requests with ids, a bounded request queue with
    explicit backpressure replies, per-request deadlines that cancel
    cleanly between targets, and verdicts streamed back as each target
    completes.  Requests may carry an opaque [trace_id], echoed in every
    frame they produce and stamped on the spans, log events and provenance
    records their execution emits (the request runs under its own
    {!Obs.t}, see {!create}).

    The wire protocol — every frame shape, error code, and the
    backpressure / deadline / drain semantics — is specified in
    [docs/SERVER.md]; this interface is the embeddable core.  Requests are
    processed strictly in arrival order by the single serve thread, so a
    [reload] never races an in-flight request: everything queued before it
    classifies against the old repository, everything after against the new
    one.  Verdicts are bit-identical to [scaguard detect-batch] on the same
    targets and configuration (asserted by the test suite and by CI).

    The lower layers ({!Framer}, {!parse_request},
    {!connect}/{!feed}/{!step}) are exposed so tests and benches can drive
    the protocol in-process without sockets. *)

(** {1 Framing} *)

(** Newline framing with a hard line-length ceiling.  Bytes are fed in
    arbitrary chunks; complete lines come out.  A line longer than
    [max_line] is discarded (the framer keeps scanning for the next
    newline, so one oversized frame cannot desynchronize the stream) and
    reported as {!Overflow}.  Trailing [\r] is stripped, so [\r\n] clients
    work; empty lines are reported and ignored by the server (keepalive). *)
module Framer : sig
  type t

  type frame =
    | Line of string  (** one complete line, newline and trailing CR stripped *)
    | Overflow of { dropped : int }
        (** a line exceeded [max_line] and was discarded; [dropped] is how
            many bytes of it were thrown away (terminator excluded) *)

  val create : ?max_line:int -> unit -> t
  (** [max_line] (default 1 MiB) is the longest accepted line, in bytes,
      exclusive of the newline.  @raise Invalid_argument if [< 1]. *)

  val feed : t -> string -> frame list
  (** Consume a chunk, returning the frames it completed, in order. *)

  val eof : t -> frame option
  (** Flush the unterminated final line, if any (a lenient-EOF convenience
      for stdio clients that omit the last newline). *)

  val buffered : t -> int
  (** Bytes of the current incomplete line held in the framer. *)
end

(** {1 Protocol} *)

(** Error codes of the wire protocol's [error] frames.  The first five are
    the {!Err.t} taxonomy verbatim; the rest are server-lifecycle outcomes
    that have no batch equivalent. *)
type error_code =
  | Parse_error  (** unparseable or oversized frame, or invalid JSON — ["parse"] *)
  | Bad_request  (** well-formed JSON that is not a valid request — ["bad_request"] *)
  | Invalid_config  (** a request field failed validation (unknown target, bad seed) — ["invalid_config"] *)
  | Io  (** a filesystem operation failed (reload path unreadable) — ["io"] *)
  | Empty_repository  (** the resident repository has no models — ["empty_repository"] *)
  | Busy  (** the bounded queue is full: explicit backpressure — ["busy"] *)
  | Deadline  (** the request's deadline expired before or during execution — ["deadline"] *)
  | Unavailable  (** the server is draining after [shutdown] — ["unavailable"] *)
  | Internal  (** an unexpected exception; the server survives — ["internal"] *)

val error_code_to_string : error_code -> string
(** The wire name, e.g. [Busy] ↦ ["busy"]. *)

val error_code_of_err : Err.t -> error_code
(** The protocol rendering of a typed library error. *)

type request_body =
  | Detect of { targets : string list; seed : int; stream : bool }
      (** Build a model per named target and classify it; with [stream]
          (default) a verdict frame is emitted as each target completes,
          otherwise the whole batch runs on the parallel engine and the
          frames are emitted together at the end — identical frames and
          bits either way. *)
  | Screen of { targets : string list; seed : int }
      (** Batch triage: classify all targets in one parallel engine run,
          reply with one summary frame (counts + attack names) and no
          per-target verdict frames. *)
  | Explain of { targets : string list; seed : int }
      (** {!Screen} with provenance records requested
          ({!Service.explain}): the same engine run and bit-identical
          verdicts, replied as one frame whose [records] array is
          index-aligned with [targets] — one {!Provenance.t} JSON object
          per target: index pruning, candidate outcomes and final score
          bits. *)
  | Stats  (** server self-description: queue, counters, latency quantiles *)
  | Metrics  (** the daemon's counts as Prometheus text ({!exposition}) *)
  | Reload of { path : string option }
      (** swap in a repository from [path] (default: the path the server
          was started from); on failure the old repository stays *)
  | Ping  (** liveness *)
  | Shutdown  (** stop accepting, drain the queue, ack, exit *)

type request = {
  id : Json.t;  (** echoed verbatim in every reply frame; [Num] (integral) or [Str] *)
  body : request_body;
  deadline_ms : int option;
      (** [Some ms]: the request is abandoned (with a ["deadline"] error)
          once [ms] milliseconds from arrival have passed; [None]: the
          server's default applies. *)
  trace_id : string option;
      (** opaque client-chosen correlation token: echoed as a [trace_id]
          field in every frame this request produces (success, error and
          verdict frames alike) and the trace id of the {!Obs.t} the
          request executes under, so spans, log events and provenance
          records all carry it *)
}

val verb : request_body -> string
(** The protocol [op] name, e.g. ["detect"]. *)

type reject = {
  reject_id : Json.t;  (** the request's id when one was recovered, else [Null] *)
  code : error_code;
  message : string;
  reject_trace : string option;
      (** the request's [trace_id] when the envelope got far enough to
          carry a well-typed one — echoed on the error frame so clients
          can correlate failures too *)
}
(** Why a frame could not become a {!request}. *)

val parse_request : string -> (request, reject) result
(** Parse one frame.  Unknown top-level fields are ignored (forward
    compatibility); unknown [op]s, missing required fields and ill-typed
    fields are {!Bad_request}. *)

(** {1 The server} *)

type t

type resolve = seed:int -> string -> (Pipeline.job, Err.t) result
(** Name a target, get the job that builds its model — the daemon's
    equivalent of the CLI's program registry.  The job must be a function
    of [(seed, name)] alone, so serve verdicts reproduce [detect-batch]'s —
    and so the daemon's {!Model_cache} may reuse its model: the cache keys
    a job on its name, program bytes and knobs, and covers its [init]
    closures only through the salt.  The server salts every job on the
    request's seed ({!Pipeline.seeded}); a job that carries a salt of its
    own keeps it, and that salt must then cover the seed.  Two names the
    resolver maps to the same job name must map to the same job. *)

val create :
  ?obs:Obs.t ->
  config:Config.t ->
  resolve:resolve ->
  prepared:Detector.prepared ->
  ?repo_path:string ->
  ?queue_capacity:int ->
  ?max_line:int ->
  ?default_deadline_ms:int ->
  unit ->
  (t, Err.t) result
(** A resident server over an already-prepared repository (pair with
    {!Service.load_repository}).  [queue_capacity] (default 64) bounds the
    request queue; [max_line] (default 1 MiB) bounds a frame;
    [default_deadline_ms] (default 0 = none) applies to requests that carry
    no [deadline_ms].  Each request runs under
    [Obs.with_trace_id obs request.trace_id] ([obs] defaults to
    {!Obs.off}).  The server opens its {!Model_cache} here, once: a memory
    tier bounded by {!Model_cache.memory_budget}, in front of a disk tier
    at [config.cache_dir] when set.  Every [detect], [screen] and [explain]
    builds through it ([Service.screen_prepared ~cache]), so a repeated
    target skips execution and modeling with bit-identical verdicts, and
    [reload] keeps it (models do not depend on the repository).  Fails
    with [Invalid_config] (bad config or knob, or a [cache_dir] that is not
    a directory), [Empty_repository], or [Io] (the cache directory cannot
    be created). *)

(** {2 Driving the protocol in-process}

    The transports below are thin loops over these four functions, which
    tests and perfbench call directly. *)

type conn
(** One client connection: a framer plus an emit callback for reply
    frames. *)

val connect : t -> emit:(string -> unit) -> conn
(** Register a connection.  [emit] receives one complete reply frame (no
    newline) per call and must not raise — transports wrap socket writes so
    a dead peer disconnects instead of raising. *)

val disconnect : t -> conn -> unit
(** Drop a connection: its queued requests still execute (in order), but
    their reply frames go nowhere. *)

val feed : t -> conn -> string -> unit
(** Push raw bytes from the connection through the framer.  Each completed
    frame is parsed and enqueued; rejections (parse errors, queue-full
    backpressure, drain-phase refusals) are emitted immediately from here,
    {e before} queued work runs — backpressure never waits in line. *)

val pending : t -> int
(** Requests waiting in the queue. *)

val draining : t -> bool
(** Has a [shutdown] been processed?  While draining, newly arriving
    requests are refused with ["unavailable"]. *)

val step : t -> [ `Worked | `Idle | `Stop ]
(** Execute at most one queued request.  [`Idle]: queue empty, keep
    pumping I/O.  [`Worked]: one request was executed (or expired).
    [`Stop]: the drain finished — shutdown acks have been emitted and the
    transport should exit. *)

val drain : t -> [ `Idle | `Stop ]
(** {!step} until the queue empties (or the drain finishes). *)

val served : t -> int
(** Requests executed since start (rejections not included). *)

val uptime_s : t -> float

val exposition : t -> string
(** The [metrics] verb's body: the daemon's work since {!create} as
    Prometheus text.  One accumulator holds it — every request's and every
    reload's {!Service.report} folded into {!Service.books} (the cache
    series read the daemon's own {!Model_cache}), a per-verb table of
    request counts and latency histograms, the rejections by reason and
    the streamed verdict frames — and the [stats] verb renders the same
    state, so the counts the two verbs share agree.  The counters are real
    whatever [obs] says; {!Obs.metrics} gates only the per-target and
    per-build latency histograms. *)

(** {2 Transports} *)

type endpoint =
  | Stdio  (** requests on stdin, frames on stdout — tests and pipelines *)
  | Unix_socket of string  (** path; stale socket files are reclaimed *)
  | Tcp of { host : string; port : int }

val endpoint_to_string : endpoint -> string

val resolve_host : string -> (Unix.inet_addr, Err.t) result
(** The address of a TCP host: a numeric address as written, else the
    first address the system resolver returns.  Names under the reserved
    [.invalid] domain (RFC 6761) fail without a lookup.  An unknown host is
    [Error (Io _)], never an exception — [serve --tcp] and
    [client --tcp] both resolve through here. *)

val serve_channels : t -> ic:in_channel -> oc:out_channel -> (unit, Err.t) result
(** The stdio loop over explicit channels (what [Stdio] uses with
    [stdin]/[stdout]): read chunks, feed, drain, reply on [oc] (flushed per
    frame).  Returns after a completed shutdown drain or at EOF (EOF drains
    the queue first, then a final unterminated line, if any, is still
    served). *)

val serve : t -> endpoint -> (unit, Err.t) result
(** Run the daemon until shutdown.  Unix/TCP: a single-threaded
    [select] loop multiplexing accept/read/reply around {!step}, so
    queue-full backpressure and deadline expiry keep being noticed between
    requests even under a long drain.  SIGPIPE is ignored for the
    process (dead clients surface as [EPIPE] and disconnect).  Errors are
    [Io] (bind/listen failures — e.g. the TCP port or socket path is
    taken by a live server). *)
