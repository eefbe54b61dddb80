(** Observability for the build->detect stack: a span-based tracer emitting
    Chrome trace-event JSON (loadable in Perfetto / chrome://tracing), the
    event capture behind {!Log}, per-run latency histograms and the
    Prometheus text exposition.

    What a run records is one immutable value, {!t}: a front end creates
    one per run with {!create} and the server derives one per request with
    {!with_trace_id}; the library takes it as [?obs], defaulting to {!off}.
    There is no process-wide state: the counts a Prometheus exposition
    renders are a run's {!Service.report} or the serve daemon's books, and
    {!Prom} only writes them out.  Instrumentation sites in the hot paths
    are written so that the disabled state costs one field load and a
    branch and zero allocation per event, and observation never feeds back
    into computation — verdicts and models are bit-identical with
    observability on or off (asserted by the test suite). *)

(** {1 Clock} *)

(** The stack's single monotonic time source ([CLOCK_MONOTONIC], via a
    noalloc C stub).  All span timestamps and stage timings read this clock,
    so durations are immune to NTP steps and never negative. *)
module Clock : sig
  val now_ns : unit -> int64
  (** Nanoseconds from an arbitrary (boot-time) origin; allocation-free. *)

  val elapsed_ns : since:int64 -> int64
  (** [now_ns () - since]. *)

  val ns_to_s : int64 -> float
  val ns_to_us : int64 -> float

  val elapsed_s : since:int64 -> float
  (** Seconds elapsed since a {!now_ns} reading. *)
end

(** {1 The observation value} *)

type level = Debug | Info | Warn | Error
(** Event severity, re-exported by {!Log} with the same constructors. *)

type event = {
  seq : int;  (** emission order within the run — the sort key *)
  ts_ns : int64;  (** {!Clock.now_ns} at emission *)
  level : level;
  event : string;  (** dotted event name, e.g. ["serve.start"] *)
  message : string;  (** the human-readable line (what the mirror prints) *)
  trace_id : string option;  (** the emitting value's {!trace_id} *)
  fields : (string * Json.t) list;  (** typed structured context *)
}
(** One captured {!Log} event. *)

type span = {
  name : string;
  cat : string;  (** coarse grouping: ["stage"], ["engine"], ["pool"], ... *)
  tid : int;  (** trace lane: worker index, or domain id for stage spans *)
  ts_ns : int64;  (** start, {!Clock.now_ns} origin *)
  dur_ns : int64;
  args : (string * string) list;
}

type t
(** What one run (a CLI batch, a serve request, a test) records.
    Immutable; its sinks are lock-free, so every domain of the run may
    share it. *)

val create :
  ?trace_id:string ->
  ?tracing:bool ->
  ?sample_rate:float ->
  ?metrics:bool ->
  ?capture:level ->
  ?capacity:int ->
  ?mirror:level option ->
  unit ->
  t
(** A value with fresh sinks.  [trace_id] is stamped on every span, event
    and provenance record it produces.  [tracing] (default [false]) records
    spans; [sample_rate] (default [1.]) is the fraction of per-task spans
    kept, rounded to a deterministic 1-in-[round (1/r)] stride (coarse
    stage spans ignore it).  [metrics] (default [false]) times every
    classified target and every built model into the run's {!latency}
    records.
    [capture] captures events at or above that level into a buffer of
    [capacity] (default 8192) events; past it they are counted in
    {!dropped}, never waited on.  [mirror] is the least level echoed to
    stderr, [None] for silence (default [Some Info]).
    @raise Invalid_argument when [sample_rate] is outside [\[0,1\]], or
    [capture] is given with [capacity < 1]. *)

val off : t
(** [create ()]: records nothing and mirrors [Info] and above to stderr —
    the default of every [?obs] argument. *)

val with_trace_id : t -> string option -> t
(** The same switches and sinks under another trace id — how the server
    derives each request's value from its own. *)

val trace_id : t -> string option
val tracing : t -> bool
val metrics : t -> bool

val sampled : t -> int -> bool
(** Should the per-task span for task index [i] be recorded?  False
    whenever tracing is off. *)

(** {1 Spans} *)

val emit_span :
  t ->
  ?cat:string ->
  ?tid:int ->
  ?args:(string * string) list ->
  name:string ->
  ts_ns:int64 ->
  dur_ns:int64 ->
  unit ->
  unit
(** Record a completed span, with the value's trace id as a [trace_id]
    arg (lock-free; safe from any domain).  No-op when tracing is off.
    [tid] defaults to the calling domain's id. *)

val with_span :
  t ->
  ?cat:string ->
  ?tid:int ->
  ?args:(string * string) list ->
  string ->
  (unit -> 'a) ->
  'a
(** [with_span obs name f] times [f ()] and records the span (even if [f]
    raises).  When tracing is off this is exactly [f ()]. *)

val spans : t -> span list
(** Every span the value recorded, sorted by start time; [[]] when tracing
    is off. *)

(** {1 Events} *)

val emit_event :
  t -> fields:(string * Json.t) list -> level -> string -> string -> unit
(** The body of {!Log}'s emitters: mirror the message to stderr and
    capture the event, as the value says.  Lock-free. *)

val events : t -> event list
(** Captured events, in emission order; [[]] when capture is off. *)

val dropped : t -> int
(** Events discarded because the capture buffer was full. *)

val capacity : t -> int
(** The capture buffer's bound; [0] when capture is off. *)

(** {1 Prometheus exposition} *)

(** The plain data a Prometheus exposition is made of, and its text writer.
    Nothing here counts: the series are built from a report's or the serve
    daemon's counts when an exposition is rendered. *)
module Prom : sig
  type hist = {
    bounds : float array;  (** ascending finite upper bucket edges *)
    counts : int array;
        (** per-bucket, non-cumulative; one longer than [bounds] — the last
            cell is the overflow bucket.  Matches the layout
            {!Sutil.Stats.percentile_of_buckets} expects. *)
    sum : float;
    count : int;
  }

  type value = Counter of int | Gauge of float | Histogram of hist

  type series = {
    name : string;
    labels : (string * string) list;
    help : string;
    value : value;
  }

  val series :
    labels:(string * string) list -> help:string -> string -> value -> series

  val to_prometheus : series list -> string
  (** Prometheus text exposition format, series in the given order:
      [# HELP]/[# TYPE] headers once per metric name, before its first
      series; histogram [_bucket{le="..."}] series cumulative with a
      [+Inf] bucket, plus [_sum] and [_count]. *)
end

(** {1 Latency histograms} *)

(** A latency histogram over one exponential 1µs..10s bucket ladder shared
    by every latency series: plain ints with a single owner (a pool worker,
    a report, the daemon), so observing takes no lock and no atomic.
    Per-worker records merge with {!add} after their workers join. *)
module Hist : sig
  type t

  val create : unit -> t

  val observe_ns : t -> int -> unit
  (** Record one duration in nanoseconds: bumps the first bucket whose edge
      is [>=] it (or the overflow bucket) and adds it to the sum.
      Allocation-free. *)

  val observe_s : t -> float -> unit
  (** {!observe_ns} of a duration in seconds, rounded to the nanosecond. *)

  val add : into:t -> t -> unit
  val count : t -> int

  val value : t -> Prom.hist
  (** The histogram as exposition data: the ladder's edges, per-bucket
      counts, the sum in seconds. *)
end

type latency = {
  verdict : Hist.t;  (** per classified target *)
  dtw_pair : Hist.t;
      (** per classified target that scored a pair: its duration divided
          by the pairs it scored *)
  model_build : Hist.t;  (** per model built (cache hits excluded) *)
}
(** A run's latency records: what a run with {!metrics} on times beyond
    its stage timings. *)

val new_latency : unit -> latency
(** Empty records. *)

val add_latency : into:latency -> latency -> unit

val merge_latency : t -> latency option array -> latency option
(** The given records summed into fresh ones when [t] has {!metrics} on;
    [None] otherwise — so a run without metrics carries no records. *)

(** {1 Export} *)

(** Chrome trace-event JSON ("X" complete events, microsecond units). *)
module Trace_writer : sig
  val to_json : span list -> string

  val write : path:string -> span list -> (unit, Err.t) result
  (** Atomic write ({!Persist.write_atomic}); [Error (Io _)] on failure. *)
end

(** {1 Pool instrumentation} *)

val pool_probe : t -> stage:string -> Sutil.Pool.probe option
(** A fresh {!Sutil.Pool.probe} that emits ["<stage>:task"] run spans and
    ["<stage>:wait"] queue-wait spans (the gap between a worker's previous
    task and its next), honoring the sample rate; [None] when tracing is
    off, so un-traced pools pay nothing.  Use one probe per [Pool.run]
    call. *)
