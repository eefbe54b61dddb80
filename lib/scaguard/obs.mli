(** Observability for the build->detect stack: a span-based tracer emitting
    Chrome trace-event JSON (loadable in Perfetto / chrome://tracing), the
    event capture behind {!Log}, and a metrics registry emitting Prometheus
    text exposition.

    What a run records is one immutable value, {!t}: a front end creates
    one per run with {!create} and the server derives one per request with
    {!with_trace_id}; the library takes it as [?obs], defaulting to {!off}.
    Only the Prometheus registry ({!default} and its {!Metrics} handles) is
    process-wide.  Instrumentation sites in the hot paths are written so
    that the disabled state costs one field load and a branch and zero
    allocation per event, and observation never feeds back into computation
    — verdicts and models are bit-identical with observability on or off
    (asserted by the test suite). *)

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
    stage spans ignore it).  [metrics] (default [false]) feeds {!default}.
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

(** {1 Metrics registry} *)

module Registry : sig
  (** Counters, gauges and fixed-bucket histograms.  Counter and histogram
      cells are sharded per domain (lock-free [fetch_and_add] on the shard
      picked from the domain id) and merged only at {!snapshot} time; the
      registration path takes a mutex, the update path never does. *)

  type t

  type counter
  type gauge
  type histogram

  val create : ?shards:int -> unit -> t
  (** [shards] (default 8) is rounded up to a power of two. *)

  val counter : t -> ?help:string -> ?labels:(string * string) list -> string -> counter
  (** Create-or-get by [(name, labels)]; two calls with the same pair return
      the same underlying metric.  @raise Invalid_argument if the pair is
      already registered with a different kind. *)

  val gauge : t -> ?help:string -> ?labels:(string * string) list -> string -> gauge

  val histogram :
    t ->
    ?help:string ->
    ?labels:(string * string) list ->
    buckets:float array ->
    string ->
    histogram
  (** [buckets] are the ascending finite upper bucket edges; an overflow
      (+inf) bucket is added implicitly.
      @raise Invalid_argument on an empty, non-ascending or non-finite
      ladder, or on a kind clash. *)

  val add : counter -> int -> unit
  val incr : counter -> unit
  val set_gauge : gauge -> float -> unit

  val observe : histogram -> float -> unit
  (** Record one observation: bumps the first bucket whose edge is [>= v]
      (or the overflow bucket) and adds [v] to the sum. *)

  type hist_snapshot = {
    bounds : float array;
    counts : int array;
        (** per-bucket, non-cumulative; one longer than [bounds] — the last
            cell is the overflow bucket.  Matches the layout
            {!Sutil.Stats.percentile_of_buckets} expects. *)
    sum : float;
    count : int;
  }

  type value =
    | Counter_value of int
    | Gauge_value of float
    | Histogram_value of hist_snapshot

  type snapshot_entry = {
    entry_name : string;
    entry_labels : (string * string) list;
    entry_help : string;
    entry_value : value;
  }

  type snapshot = snapshot_entry list

  val snapshot : t -> snapshot
  (** Merge all shards into a consistent-enough view (entries in
      registration order).  Concurrent updates racing the scrape may or may
      not be included — each is never split or double-counted. *)

  val reset : t -> unit
  (** Zero every metric (registrations are kept). *)

  val to_prometheus : snapshot -> string
  (** Prometheus text exposition format: [# HELP]/[# TYPE] headers once per
      metric name, histogram [_bucket{le="..."}] series cumulative with a
      [+Inf] bucket, plus [_sum] and [_count]. *)
end

val default : Registry.t
(** The process-wide registry every scaguard instrumentation site writes to. *)

val snapshot : unit -> Registry.snapshot
(** [Registry.snapshot default]. *)

(** {1 The scaguard metric set}

    Pre-registered on {!default} so instrumentation sites share handles.
    Counters are only bumped by runs whose value has {!metrics} on; the
    record-typed statistics the API already exposes ([Engine.stats], cache
    stats, report timings) are computed independently and remain the
    source-compatible derived views. *)
module Metrics : sig
  val batches_total : Registry.counter
  val targets_total : Registry.counter
  val pairs_total : Registry.counter
  val cells_total : Registry.counter
  val pairs_pruned_lb_total : Registry.counter
  val pairs_abandoned_total : Registry.counter
  val cells_saved_total : Registry.counter
  val lb_evals_total : Registry.counter
  val pairs_pruned_index_total : Registry.counter
  val index_nodes_visited_total : Registry.counter
  val models_built_total : Registry.counter
  val cache_hits_total : Registry.counter
  val cache_misses_total : Registry.counter
  val cache_stale_total : Registry.counter

  val latency_buckets : float array
  (** The shared exponential 1µs..10s ladder used by every latency
      histogram. *)

  val dtw_pair_seconds : Registry.histogram
  val model_build_seconds : Registry.histogram
  val verdict_seconds : Registry.histogram

  val stage_seconds : stage:string -> Registry.histogram
  (** Create-or-get the [scaguard_stage_seconds{stage="..."}] histogram. *)

  (** {2 Serve-daemon metrics}

      Bumped by {!Server} when its value has {!metrics} on; exported to
      clients by the protocol's [metrics] verb (see [docs/SERVER.md]). *)

  val server_requests_total : op:string -> Registry.counter
  (** Create-or-get [scaguard_server_requests_total{op="..."}] — requests
      completed (successfully or with an execution error), by verb. *)

  val server_rejected_total : reason:string -> Registry.counter
  (** Create-or-get [scaguard_server_rejected_total{reason="..."}] —
      requests refused without execution: [busy] (queue full), [deadline]
      (expired while queued), [unavailable] (arrived during drain), [parse]
      (unparseable frame). *)

  val server_queue_depth : Registry.gauge
  (** [scaguard_server_queue_depth] — requests waiting in the bounded
      queue right now. *)

  val server_streamed_verdicts_total : Registry.counter
  (** [scaguard_server_streamed_verdicts_total] — verdict frames streamed
      back to clients. *)

  val server_request_seconds : op:string -> Registry.histogram
  (** Create-or-get [scaguard_server_request_seconds{op="..."}] — request
      latency from arrival at the framer to the final reply frame. *)

  val build_info :
    version:string -> format_version:string -> Registry.gauge
  (** Create-or-get [scaguard_build_info{version="...",format_version="..."}]
      — the process-identity gauge (constant 1, identity in the labels, the
      node_exporter convention). *)

  val uptime_seconds : Registry.gauge
  (** [scaguard_uptime_seconds] — process uptime on the monotonic clock,
      stamped by {!export_build_info} before each exposition. *)
end

val export_build_info :
  version:string -> format_version:string -> start_ns:int64 -> unit -> unit
(** Stamp the process-identity gauges: set
    [scaguard_build_info{version,format_version}] to 1 and
    [scaguard_uptime_seconds] to the monotonic seconds since [start_ns].
    Both [serve] and [detect-batch] call this right before rendering an
    exposition, so every scrape carries the same identity. *)

(** {1 Export} *)

(** Chrome trace-event JSON ("X" complete events, microsecond units). *)
module Trace_writer : sig
  val to_json : span list -> string

  val write : path:string -> span list -> (unit, Err.t) result
  (** Atomic write ({!Persist.write_atomic}); [Error (Io _)] on failure. *)
end

val write_metrics : path:string -> (unit, Err.t) result
(** Atomically write [default]'s current state in Prometheus text format. *)

(** {1 Pool instrumentation} *)

val pool_probe : t -> stage:string -> Sutil.Pool.probe option
(** A fresh {!Sutil.Pool.probe} that emits ["<stage>:task"] run spans and
    ["<stage>:wait"] queue-wait spans (the gap between a worker's previous
    task and its next), honoring the sample rate; [None] when tracing is
    off, so un-traced pools pay nothing.  Use one probe per [Pool.run]
    call. *)
