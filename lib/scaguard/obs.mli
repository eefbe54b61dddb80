(** Observability for the build->detect stack: a span-based tracer emitting
    Chrome trace-event JSON (loadable in Perfetto / chrome://tracing) and a
    metrics registry emitting Prometheus text exposition.

    Both facilities sit behind process-global switches ({!set_tracing},
    {!set_metrics}) that default to off.  Instrumentation sites in the hot
    paths are written so that the disabled state costs one load-and-branch
    and zero allocation per event, and observation never feeds back into
    computation — verdicts and models are bit-identical with observability
    on or off (asserted by the test suite and the bench).

    The switches are meant to be flipped by front-ends (CLI, bench, tests)
    {e before} a run starts, never concurrently with one. *)

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

(** {1 Switches} *)

val tracing : unit -> bool
val metrics : unit -> bool

val enabled : unit -> bool
(** [tracing () || metrics ()]. *)

val set_tracing : bool -> unit
val set_metrics : bool -> unit

val set_span_sample_rate : float -> unit
(** Fraction of per-task spans to record, in [\[0,1\]]; [1.] (the default)
    records every task, [0.] records none.  Internally rounded to a keep
    1-in-[round (1/r)] stride so sampling is deterministic — no RNG, and
    re-runs produce the same trace shape.  Coarse stage spans ignore the
    rate.  @raise Invalid_argument outside [\[0,1\]]. *)

val span_sample_rate : unit -> float

val sampled : int -> bool
(** [sampled i] — should the per-task span for task index [i] be recorded?
    False whenever tracing is off. *)

(** {1 Trace-id propagation} *)

val set_trace_id : string option -> unit
(** Set (or clear) the ambient trace id.  While set, every emitted span
    carries a [trace_id] arg, {!Log} stamps it on events by default, and
    {!Provenance} stamps it on records — one opaque string correlating a
    wire request or CLI batch across all three artifact kinds.  The serve
    drainer sets it around each request (from the request envelope's
    [trace_id] field); [detect-batch --trace-id] sets it for the batch. *)

val trace_id : unit -> string option
(** The current ambient trace id.  Safe from any domain (engine workers
    read it; only the driving thread writes). *)

(** {1 Spans} *)

type span = {
  name : string;
  cat : string;  (** coarse grouping: ["stage"], ["engine"], ["pool"], ... *)
  tid : int;  (** trace lane: worker index, or domain id for stage spans *)
  ts_ns : int64;  (** start, {!Clock.now_ns} origin *)
  dur_ns : int64;
  args : (string * string) list;
}

val emit_span :
  ?cat:string ->
  ?tid:int ->
  ?args:(string * string) list ->
  name:string ->
  ts_ns:int64 ->
  dur_ns:int64 ->
  unit ->
  unit
(** Record a completed span (lock-free push; safe from any domain).  No-op
    when tracing is off.  [tid] defaults to the calling domain's id. *)

val with_span :
  ?cat:string ->
  ?tid:int ->
  ?args:(string * string) list ->
  string ->
  (unit -> 'a) ->
  'a
(** [with_span name f] times [f ()] and records the span (even if [f]
    raises).  When tracing is off this is exactly [f ()]. *)

val spans : unit -> span list
(** All spans recorded since the last {!clear_spans}, sorted by start time. *)

val clear_spans : unit -> unit

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

val reset : unit -> unit
(** Clear spans and zero {!default} — called by front-ends between runs. *)

(** {1 The scaguard metric set}

    Pre-registered on {!default} so instrumentation sites share handles.
    Counters are only bumped when [metrics ()] is true; the record-typed
    statistics the API already exposes ([Engine.stats], cache stats, report
    timings) are computed independently and remain the source-compatible
    derived views. *)
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

  val ensemble_screened_total : Registry.counter
  (** [scaguard_ensemble_screened_total] — runs screened by the two-tier
      ensemble's HPC fast path ([Detect.Ensemble]). *)

  val ensemble_fast_rejects_total : Registry.counter
  (** [scaguard_ensemble_fast_rejects_total] — runs the fast path rejected
      as benign, skipping DTW entirely. *)

  val ensemble_slow_path_total : Registry.counter
  (** [scaguard_ensemble_slow_path_total] — runs escalated to the DTW slow
      path. *)

  val ensemble_slow_confirms_total : Registry.counter
  (** [scaguard_ensemble_slow_confirms_total] — slow-path classifications
      that confirmed an attack. *)

  val latency_buckets : float array
  (** The shared exponential 1µs..10s ladder used by every latency
      histogram. *)

  val dtw_pair_seconds : Registry.histogram
  val model_build_seconds : Registry.histogram
  val verdict_seconds : Registry.histogram

  val stage_seconds : stage:string -> Registry.histogram
  (** Create-or-get the [scaguard_stage_seconds{stage="..."}] histogram. *)

  (** {2 Serve-daemon metrics}

      Bumped by {!Server} when [metrics ()] is on; exported to clients by
      the protocol's [metrics] verb (see [docs/SERVER.md]). *)

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

val pool_probe : stage:string -> Sutil.Pool.probe option
(** A fresh {!Sutil.Pool.probe} that emits ["<stage>:task"] run spans and
    ["<stage>:wait"] queue-wait spans (the gap between a worker's previous
    task and its next), honoring the sample rate; [None] when tracing is
    off, so un-traced pools pay nothing.  Use one probe per [Pool.run]
    call. *)
