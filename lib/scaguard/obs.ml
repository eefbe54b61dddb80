(* The observability subsystem: a span tracer (Chrome trace-event output),
   an event capture (the sink behind [Log]) and a metrics registry
   (Prometheus text output), threaded through the build->detect stack.

   What a run records is one immutable value, [t], passed down as [?obs]
   (default [off]); only the Prometheus registry is process-wide.  Every
   instrumentation site in the hot paths (engine tasks, pool tasks, cache
   lookups) starts with a read of one of the value's fields — a single
   load-and-branch — and does nothing else when that switch is off, so the
   instrumented-off paths allocate nothing and stay bit-identical in
   behavior (asserted by the test suite). *)

(* ---- clock ----------------------------------------------------------------- *)

module Clock = struct
  (* CLOCK_MONOTONIC via bechamel's noalloc stub: immune to NTP steps, so
     span and stage durations can never be negative.  All span/timing
     measurement in the stack goes through here — the one place. *)
  let now_ns : unit -> int64 = Monotonic_clock.now
  let elapsed_ns ~since = Int64.sub (now_ns ()) since
  let ns_to_s ns = Int64.to_float ns /. 1e9
  let ns_to_us ns = Int64.to_float ns /. 1e3
  let elapsed_s ~since = ns_to_s (elapsed_ns ~since)
end

(* ---- metrics registry ------------------------------------------------------- *)

module Registry = struct
  (* Counter and histogram cells are sharded: each metric holds [shards]
     independent Atomic cells and a domain picks its cell by hashing its id,
     so concurrent workers almost never contend on one cache line.  Shards
     are merged (summed) only at scrape time.  Histogram sums are kept in
     integer nanoseconds-style fixed point (value * 1e9) so they can use
     [Atomic.fetch_and_add] instead of a boxed-float CAS loop. *)

  type counter = { c_shards : int Atomic.t array }

  type gauge = { g_cell : float Atomic.t }

  type histogram = {
    h_bounds : float array; (* ascending finite upper bucket edges *)
    h_counts : int Atomic.t array array; (* [shard].[bucket]; last = +inf *)
    h_sum_e9 : int Atomic.t array; (* per-shard sum, fixed point 1e-9 *)
  }

  type metric = Counter of counter | Gauge of gauge | Histogram of histogram

  type meta = { name : string; labels : (string * string) list; help : string }

  type t = {
    shards : int;
    lock : Mutex.t;
    mutable metrics : (meta * metric) list; (* reversed registration order *)
  }

  let create ?(shards = 8) () =
    if shards < 1 then invalid_arg "Obs.Registry.create: shards must be >= 1";
    (* round up to a power of two so the shard pick is a mask *)
    let rec pow2 n = if n >= shards then n else pow2 (n * 2) in
    { shards = pow2 1; lock = Mutex.create (); metrics = [] }

  let atomic_cells n = Array.init n (fun _ -> Atomic.make 0)

  (* Registration is create-or-get on (name, labels): instrumented code can
     ask for its handles without coordinating who registered first.  Only
     registration takes the lock — updates never do. *)
  let register t name labels help make =
    Mutex.lock t.lock;
    Fun.protect
      ~finally:(fun () -> Mutex.unlock t.lock)
      (fun () ->
        match
          List.find_opt
            (fun (m, _) -> m.name = name && m.labels = labels)
            t.metrics
        with
        | Some (_, metric) -> metric
        | None ->
          let metric = make () in
          t.metrics <- ({ name; labels; help }, metric) :: t.metrics;
          metric)

  let kind_error name expected =
    invalid_arg
      (Printf.sprintf "Obs.Registry: metric %S already registered as a %s" name
         expected)

  let counter t ?(help = "") ?(labels = []) name =
    match
      register t name labels help (fun () ->
          Counter { c_shards = atomic_cells t.shards })
    with
    | Counter c -> c
    | Gauge _ | Histogram _ -> kind_error name "non-counter"

  let gauge t ?(help = "") ?(labels = []) name =
    match
      register t name labels help (fun () -> Gauge { g_cell = Atomic.make 0.0 })
    with
    | Gauge g -> g
    | Counter _ | Histogram _ -> kind_error name "non-gauge"

  let histogram t ?(help = "") ?(labels = []) ~buckets name =
    let ok = ref (Array.length buckets > 0) in
    Array.iteri
      (fun i b ->
        if not (Float.is_finite b) then ok := false;
        if i > 0 && b <= buckets.(i - 1) then ok := false)
      buckets;
    if not !ok then
      invalid_arg
        "Obs.Registry.histogram: buckets must be finite and strictly ascending";
    match
      register t name labels help (fun () ->
          Histogram
            {
              h_bounds = Array.copy buckets;
              h_counts =
                Array.init t.shards (fun _ ->
                    atomic_cells (Array.length buckets + 1));
              h_sum_e9 = atomic_cells t.shards;
            })
    with
    | Histogram h -> h
    | Counter _ | Gauge _ -> kind_error name "non-histogram"

  let add c n =
    ignore
      (Atomic.fetch_and_add
         c.c_shards.((Domain.self () :> int) land (Array.length c.c_shards - 1))
         n)

  let incr c = add c 1

  let set_gauge g v = Atomic.set g.g_cell v

  let observe h v =
    let nshards = Array.length h.h_counts in
    let s = (Domain.self () :> int) land (nshards - 1) in
    let nb = Array.length h.h_bounds in
    (* linear scan: bucket ladders are ~20 entries and almost always resolve
       in the first few *)
    let rec bucket i = if i >= nb || v <= h.h_bounds.(i) then i else bucket (i + 1) in
    ignore (Atomic.fetch_and_add (h.h_counts.(s)).(bucket 0) 1);
    ignore (Atomic.fetch_and_add h.h_sum_e9.(s) (int_of_float (v *. 1e9)))

  (* -- scrape ---------------------------------------------------------------- *)

  type hist_snapshot = {
    bounds : float array;
    counts : int array; (* per bucket, non-cumulative; last = +inf bucket *)
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

  let merge_counter c = Array.fold_left (fun acc a -> acc + Atomic.get a) 0 c.c_shards

  let merge_histogram h =
    let nb = Array.length h.h_bounds + 1 in
    let counts = Array.make nb 0 in
    Array.iter
      (fun shard ->
        Array.iteri (fun i a -> counts.(i) <- counts.(i) + Atomic.get a) shard)
      h.h_counts;
    let sum_e9 =
      Array.fold_left (fun acc a -> acc + Atomic.get a) 0 h.h_sum_e9
    in
    {
      bounds = Array.copy h.h_bounds;
      counts;
      sum = float_of_int sum_e9 /. 1e9;
      count = Array.fold_left ( + ) 0 counts;
    }

  let snapshot t =
    let entries =
      Mutex.lock t.lock;
      Fun.protect
        ~finally:(fun () -> Mutex.unlock t.lock)
        (fun () -> List.rev t.metrics)
    in
    List.map
      (fun (m, metric) ->
        {
          entry_name = m.name;
          entry_labels = m.labels;
          entry_help = m.help;
          entry_value =
            (match metric with
            | Counter c -> Counter_value (merge_counter c)
            | Gauge g -> Gauge_value (Atomic.get g.g_cell)
            | Histogram h -> Histogram_value (merge_histogram h));
        })
      entries

  let reset t =
    Mutex.lock t.lock;
    Fun.protect
      ~finally:(fun () -> Mutex.unlock t.lock)
      (fun () ->
        List.iter
          (fun (_, metric) ->
            match metric with
            | Counter c -> Array.iter (fun a -> Atomic.set a 0) c.c_shards
            | Gauge g -> Atomic.set g.g_cell 0.0
            | Histogram h ->
              Array.iter (Array.iter (fun a -> Atomic.set a 0)) h.h_counts;
              Array.iter (fun a -> Atomic.set a 0) h.h_sum_e9)
          t.metrics)

  (* -- Prometheus text exposition -------------------------------------------- *)

  let prom_escape s =
    String.concat ""
      (List.map
         (function
           | '\\' -> "\\\\" | '"' -> "\\\"" | '\n' -> "\\n" | c -> String.make 1 c)
         (List.init (String.length s) (String.get s)))

  (* HELP text has a smaller escape set than label values: only the
     backslash and the line feed — a double quote is literal there. *)
  let prom_help_escape s =
    String.concat ""
      (List.map
         (function '\\' -> "\\\\" | '\n' -> "\\n" | c -> String.make 1 c)
         (List.init (String.length s) (String.get s)))

  let prom_labels = function
    | [] -> ""
    | labels ->
      "{"
      ^ String.concat ","
          (List.map
             (fun (k, v) -> Printf.sprintf "%s=\"%s\"" k (prom_escape v))
             labels)
      ^ "}"

  let prom_float f =
    if Float.is_integer f && Float.abs f < 1e15 then
      Printf.sprintf "%.0f" f
    else Printf.sprintf "%.9g" f

  let to_prometheus (snap : snapshot) =
    let buf = Buffer.create 1024 in
    let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
    let seen_header = Hashtbl.create 16 in
    let header name kind help =
      if not (Hashtbl.mem seen_header name) then begin
        Hashtbl.add seen_header name ();
        if help <> "" then add "# HELP %s %s\n" name (prom_help_escape help);
        add "# TYPE %s %s\n" name kind
      end
    in
    List.iter
      (fun e ->
        match e.entry_value with
        | Counter_value v ->
          header e.entry_name "counter" e.entry_help;
          add "%s%s %d\n" e.entry_name (prom_labels e.entry_labels) v
        | Gauge_value v ->
          header e.entry_name "gauge" e.entry_help;
          add "%s%s %s\n" e.entry_name (prom_labels e.entry_labels) (prom_float v)
        | Histogram_value h ->
          header e.entry_name "histogram" e.entry_help;
          let cum = ref 0 in
          Array.iteri
            (fun i c ->
              cum := !cum + c;
              let le =
                if i < Array.length h.bounds then prom_float h.bounds.(i)
                else "+Inf"
              in
              add "%s_bucket%s %d\n" e.entry_name
                (prom_labels (e.entry_labels @ [ ("le", le) ]))
                !cum)
            h.counts;
          add "%s_sum%s %s\n" e.entry_name
            (prom_labels e.entry_labels)
            (prom_float h.sum);
          add "%s_count%s %d\n" e.entry_name (prom_labels e.entry_labels) h.count)
      snap;
    Buffer.contents buf
end

(* ---- the run's observation value ------------------------------------------- *)

type level = Debug | Info | Warn | Error

let severity = function Debug -> 0 | Info -> 1 | Warn -> 2 | Error -> 3

type event = {
  seq : int;
  ts_ns : int64;
  level : level;
  event : string;
  message : string;
  trace_id : string option;
  fields : (string * Json.t) list;
}

type span = {
  name : string;
  cat : string;
  tid : int;
  ts_ns : int64;
  dur_ns : int64;
  args : (string * string) list;
}

(* The event capture: a bounded sink, the least level it keeps and the
   run's emission counter, the sort key of [events]. *)
type capture = {
  sink : event Sutil.Sink.t;
  min_level : level;
  seq : int Atomic.t;
}

(* Immutable: a front end creates one per run and the server derives one per
   request, so every site reads its switches from the value it was handed
   and two runs in flight never share a trace id or a sink.  The sinks are
   lock-free, pushed from any domain and sorted only when read. *)
type t = {
  trace_id : string option;
  span_sink : span Sutil.Sink.t option;  (* present iff tracing *)
  sample_every : int;  (* keep per-task span i iff i mod sample_every = 0 *)
  metrics_on : bool;
  capture : capture option;
  mirror : level option;
}

let create ?trace_id ?(tracing = false) ?(sample_rate = 1.0) ?(metrics = false)
    ?capture ?(capacity = 8192) ?(mirror = Some Info) () =
  if Float.is_nan sample_rate || sample_rate < 0.0 || sample_rate > 1.0 then
    invalid_arg "Obs.create: sample_rate must be in [0, 1]";
  {
    trace_id;
    span_sink = (if tracing then Some (Sutil.Sink.create ()) else None);
    sample_every =
      (if sample_rate <= 0.0 then 0
       else int_of_float (Float.round (1.0 /. sample_rate)));
    metrics_on = metrics;
    capture =
      Option.map
        (fun min_level ->
          let sink = Sutil.Sink.create ~capacity () in
          { sink; min_level; seq = Atomic.make 0 })
        capture;
    mirror;
  }

let off = create ()
let with_trace_id t trace_id = { t with trace_id }
let trace_id t = t.trace_id
let tracing t = Option.is_some t.span_sink
let metrics t = t.metrics_on
let sampled t i = tracing t && t.sample_every > 0 && i mod t.sample_every = 0

(* ---- spans ----------------------------------------------------------------- *)

let emit_span t ?(cat = "scaguard") ?tid ?(args = []) ~name ~ts_ns ~dur_ns () =
  match t.span_sink with
  | None -> ()
  | Some sink ->
    let tid = match tid with Some w -> w | None -> (Domain.self () :> int) in
    (* stamp the run's trace id so one grep of the trace finds every span
       of a given request — the span side of end-to-end correlation *)
    let args =
      match t.trace_id with Some id -> ("trace_id", id) :: args | None -> args
    in
    Sutil.Sink.push sink { name; cat; tid; ts_ns; dur_ns; args }

let with_span t ?cat ?tid ?args name f =
  match t.span_sink with
  | None -> f ()
  | Some _ ->
    let t0 = Clock.now_ns () in
    let finally () =
      emit_span t ?cat ?tid ?args ~name ~ts_ns:t0
        ~dur_ns:(Clock.elapsed_ns ~since:t0) ()
    in
    Fun.protect ~finally f

let spans t =
  match t.span_sink with
  | None -> []
  | Some sink ->
    List.sort
      (fun a b ->
        match Int64.compare a.ts_ns b.ts_ns with
        | 0 -> compare (a.tid, a.name) (b.tid, b.name)
        | c -> c)
      (Sutil.Sink.items sink)

(* ---- events ---------------------------------------------------------------- *)

(* The stderr mirror is independent of capture: `serve` banners stay visible
   whether or not a JSONL artifact was requested. *)
let emit_event t ~fields lvl name message =
  (match t.mirror with
  | Some min when severity lvl >= severity min ->
    Printf.eprintf "%s\n%!" message
  | _ -> ());
  match t.capture with
  | Some c when severity lvl >= severity c.min_level ->
    Sutil.Sink.push c.sink
      {
        seq = Atomic.fetch_and_add c.seq 1;
        ts_ns = Clock.now_ns ();
        level = lvl;
        event = name;
        message;
        trace_id = t.trace_id;
        fields;
      }
  | _ -> ()

let events t =
  match t.capture with
  | None -> []
  | Some c ->
    List.sort
      (fun (a : event) b -> compare a.seq b.seq)
      (Sutil.Sink.items c.sink)

let dropped t =
  match t.capture with None -> 0 | Some c -> Sutil.Sink.dropped c.sink

let capacity t =
  match t.capture with None -> 0 | Some c -> Sutil.Sink.capacity c.sink

(* ---- trace writer ----------------------------------------------------------- *)

module Trace_writer = struct
  (* Chrome trace-event format, "X" (complete) events with microsecond
     timestamps — loads directly in chrome://tracing and ui.perfetto.dev. *)

  let event (s : span) =
    Json.Obj
      ([
         ("name", Json.Str s.name);
         ("cat", Json.Str s.cat);
         ("ph", Json.Str "X");
         ("pid", Json.Num 1.0);
         ("tid", Json.Num (float_of_int s.tid));
         ("ts", Json.Num (Clock.ns_to_us s.ts_ns));
         ("dur", Json.Num (Clock.ns_to_us s.dur_ns));
       ]
      @
      match s.args with
      | [] -> []
      | args ->
        [ ("args", Json.Obj (List.map (fun (k, v) -> (k, Json.Str v)) args)) ])

  (* one event per line, so a trace diffs and greps line by line *)
  let to_json spans =
    let buf = Buffer.create 4096 in
    Buffer.add_string buf "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
    List.iteri
      (fun i s ->
        if i > 0 then Buffer.add_char buf ',';
        Buffer.add_string buf "\n  ";
        Json.to_buf buf (event s))
      spans;
    Buffer.add_string buf "\n]}\n";
    Buffer.contents buf

  let write ~path spans =
    match Persist.write_atomic ~path (to_json spans) with
    | () -> Ok ()
    | exception Sys_error msg -> Error (Err.Io { path; msg })
end

(* ---- the scaguard metric set ------------------------------------------------ *)

let default = Registry.create ()

module Metrics = struct
  let c name help = Registry.counter default ~help name

  let batches_total =
    c "scaguard_engine_batches_total" "Batch classification runs."
  let targets_total =
    c "scaguard_engine_targets_total" "Target models classified."
  let pairs_total =
    c "scaguard_engine_pairs_total"
      "Model pairs considered (targets x repository)."
  let cells_total = c "scaguard_engine_dp_cells_total" "DTW DP cells computed."
  let pairs_pruned_lb_total =
    c "scaguard_engine_pairs_pruned_lb_total"
      "Pairs skipped without DP: a lower bound proved them irrelevant."
  let pairs_abandoned_total =
    c "scaguard_engine_pairs_abandoned_total"
      "Pairs whose DP was cut short by the cutoff."
  let cells_saved_total =
    c "scaguard_engine_dp_cells_saved_total" "DP cells pruning avoided."
  let lb_evals_total =
    c "scaguard_engine_lb_evals_total"
      "Lower-bound evaluations (the work the repository index shrinks)."
  let pairs_pruned_index_total =
    c "scaguard_engine_pairs_pruned_index_total"
      "Pairs skipped by the repository index before any lower bound ran."
  let index_nodes_visited_total =
    c "scaguard_engine_index_nodes_visited_total"
      "Repository-index tree nodes expanded during search."
  let models_built_total =
    c "scaguard_models_built_total"
      "CST-BBS models built (cache hits not included)."
  let cache_hits_total = c "scaguard_cache_hits_total" "Model cache hits."
  let cache_misses_total = c "scaguard_cache_misses_total" "Model cache misses."
  let cache_stale_total =
    c "scaguard_cache_stale_total" "Model cache entries dropped as corrupt."

  (* One exponential 1us..10s ladder serves every latency histogram: DTW
     pairs sit at the bottom, end-to-end stages at the top. *)
  let latency_buckets =
    [|
      1e-6; 2e-6; 5e-6; 1e-5; 2e-5; 5e-5; 1e-4; 2e-4; 5e-4; 1e-3; 2e-3; 5e-3;
      1e-2; 2e-2; 5e-2; 0.1; 0.25; 0.5; 1.0; 2.5; 5.0; 10.0;
    |]

  let h name help =
    Registry.histogram default ~help ~buckets:latency_buckets name

  let dtw_pair_seconds =
    h "scaguard_dtw_pair_seconds"
      "Per-pair DTW scoring latency (mean across one verdict's pairs)."
  let model_build_seconds =
    h "scaguard_model_build_seconds"
      "Per-model build latency (execute + identify + graph + measure)."
  let verdict_seconds =
    h "scaguard_verdict_seconds"
      "End-to-end per-target classification latency."

  let stage_seconds ~stage =
    Registry.histogram default
      ~help:"Wall-clock latency of one pipeline stage."
      ~labels:[ ("stage", stage) ] ~buckets:latency_buckets
      "scaguard_stage_seconds"

  (* -- the serve daemon (Scaguard.Server) -------------------------------- *)

  let server_requests_total ~op =
    Registry.counter default
      ~help:"Requests the serve daemon completed, by protocol verb."
      ~labels:[ ("op", op) ] "scaguard_server_requests_total"

  let server_rejected_total ~reason =
    Registry.counter default
      ~help:
        "Requests the serve daemon rejected without executing them: \
         queue-full backpressure (busy), expired deadlines (deadline), \
         drain-phase refusals (unavailable), unparseable frames (parse)."
      ~labels:[ ("reason", reason) ] "scaguard_server_rejected_total"

  let server_queue_depth =
    Registry.gauge default
      ~help:"Requests currently waiting in the serve daemon's bounded queue."
      "scaguard_server_queue_depth"

  let server_streamed_verdicts_total =
    Registry.counter default
      ~help:"Verdict frames the serve daemon streamed back to clients."
      "scaguard_server_streamed_verdicts_total"

  let server_request_seconds ~op =
    Registry.histogram default
      ~help:
        "End-to-end request latency in the serve daemon (arrival at the \
         framer to final reply frame), by protocol verb."
      ~labels:[ ("op", op) ] ~buckets:latency_buckets
      "scaguard_server_request_seconds"

  (* -- process identity --------------------------------------------------- *)

  let build_info ~version ~format_version =
    Registry.gauge default
      ~help:
        "Build identity of this process (CLI version and binary repository \
         format version as labels); the value is always 1."
      ~labels:
        [ ("version", version); ("format_version", format_version) ]
      "scaguard_build_info"

  let uptime_seconds =
    Registry.gauge default
      ~help:"Seconds this process has been up, on the monotonic clock."
      "scaguard_uptime_seconds"
end

(* Stamp the process-identity gauges before an exposition is rendered: the
   constant-1 [scaguard_build_info] (version/format_version as labels, the
   node_exporter convention) and the uptime gauge measured from [start_ns]
   on the monotonic clock.  Both [serve] and [detect-batch] call this so
   every exposition carries the same identity, regardless of transport. *)
let export_build_info ~version ~format_version ~start_ns () =
  Registry.set_gauge (Metrics.build_info ~version ~format_version) 1.0;
  Registry.set_gauge Metrics.uptime_seconds
    (Clock.ns_to_s (Clock.elapsed_ns ~since:start_ns))

let snapshot () = Registry.snapshot default

let write_metrics ~path =
  match Persist.write_atomic ~path (Registry.to_prometheus (snapshot ())) with
  | () -> Ok ()
  | exception Sys_error msg -> Error (Err.Io { path; msg })

(* ---- pool probe ------------------------------------------------------------- *)

(* Worker indices are dense and small (<= domain count), so plain arrays
   indexed by worker hold the per-worker clock state; each cell is touched
   only by its own worker.  [max_probe_workers] is a safety bound far above
   any real pool. *)
let max_probe_workers = 1024

let pool_probe t ~stage =
  if not (tracing t) then None
  else begin
    let starts = Array.make max_probe_workers 0L in
    let last_stop = Array.make max_probe_workers 0L in
    let task_start ~worker _i =
      if worker < max_probe_workers then starts.(worker) <- Clock.now_ns ()
    in
    let task_stop ~worker i =
      if worker < max_probe_workers then begin
        let stop = Clock.now_ns () in
        let start = starts.(worker) in
        if sampled t i then begin
          (* queue-wait: the gap between this worker's previous task and
             this one (claim contention, scheduling, GC) *)
          let prev = last_stop.(worker) in
          if prev <> 0L && Int64.compare prev start < 0 then
            emit_span t ~cat:"pool" ~tid:worker
              ~args:[ ("stage", stage) ]
              ~name:(stage ^ ":wait") ~ts_ns:prev
              ~dur_ns:(Int64.sub start prev) ();
          emit_span t ~cat:"pool" ~tid:worker
            ~args:[ ("stage", stage); ("task", string_of_int i) ]
            ~name:(stage ^ ":task") ~ts_ns:start
            ~dur_ns:(Int64.sub stop start) ()
        end;
        last_stop.(worker) <- stop
      end
    in
    Some { Sutil.Pool.task_start; task_stop }
  end
