(* The observability subsystem: a span tracer (Chrome trace-event output),
   an event capture (the sink behind [Log]), per-run latency histograms and
   the Prometheus text exposition, threaded through the build->detect
   stack.

   What a run records is one immutable value, [t], passed down as [?obs]
   (default [off]); there is no process-wide state.  Every instrumentation
   site in the hot paths (engine tasks, pool tasks, cache lookups) starts
   with a read of one of the value's fields — a single load-and-branch —
   and does nothing else when that switch is off, so the instrumented-off
   paths allocate nothing and stay bit-identical in behavior (asserted by
   the test suite).  Counting is the caller's: a run's report and the serve
   daemon's books hold the counts, and [Prom] only renders them. *)

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

(* ---- Prometheus exposition ------------------------------------------------ *)

module Prom = struct
  (* Plain data: what a report's or a daemon's counts render as.  The
     series are built from those counts at scrape time; nothing here
     counts. *)

  type hist = {
    bounds : float array;  (* ascending finite upper bucket edges *)
    counts : int array;  (* per bucket, non-cumulative; last = +inf bucket *)
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

  let series ~labels ~help name value = { name; labels; help; value }

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

  let to_prometheus series =
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
      (fun s ->
        match s.value with
        | Counter v ->
          header s.name "counter" s.help;
          add "%s%s %d\n" s.name (prom_labels s.labels) v
        | Gauge v ->
          header s.name "gauge" s.help;
          add "%s%s %s\n" s.name (prom_labels s.labels) (prom_float v)
        | Histogram h ->
          header s.name "histogram" s.help;
          let cum = ref 0 in
          Array.iteri
            (fun i c ->
              cum := !cum + c;
              let le =
                if i < Array.length h.bounds then prom_float h.bounds.(i)
                else "+Inf"
              in
              add "%s_bucket%s %d\n" s.name
                (prom_labels (s.labels @ [ ("le", le) ]))
                !cum)
            h.counts;
          add "%s_sum%s %s\n" s.name (prom_labels s.labels) (prom_float h.sum);
          add "%s_count%s %d\n" s.name (prom_labels s.labels) h.count)
      series;
    Buffer.contents buf
end

(* ---- latency histograms ---------------------------------------------------- *)

(* One exponential 1us..10s ladder serves every latency histogram: DTW
   pairs sit at the bottom, end-to-end stages at the top. *)
let latency_buckets =
  [|
    1e-6; 2e-6; 5e-6; 1e-5; 2e-5; 5e-5; 1e-4; 2e-4; 5e-4; 1e-3; 2e-3; 5e-3;
    1e-2; 2e-2; 5e-2; 0.1; 0.25; 0.5; 1.0; 2.5; 5.0; 10.0;
  |]

(* the same edges in whole nanoseconds, so an observation compares ints *)
let bucket_ns =
  Array.map (fun s -> Float.to_int (Float.round (s *. 1e9))) latency_buckets

module Hist = struct
  (* Plain ints with a single owner — a pool worker, a report, a daemon —
     so observing takes no lock and no atomic; records merge with [add]
     once their workers have joined. *)
  type t = {
    counts : int array;  (* per bucket of the ladder; last = +inf bucket *)
    mutable count : int;
    mutable sum_ns : int;
  }

  let create () =
    { counts = Array.make (Array.length bucket_ns + 1) 0; count = 0; sum_ns = 0 }

  (* a linear scan, no allocation: the ladder is 22 edges and most
     observations resolve in the first few *)
  let observe_ns h ns =
    let i = ref 0 in
    while !i < Array.length bucket_ns && ns > bucket_ns.(!i) do
      incr i
    done;
    h.counts.(!i) <- h.counts.(!i) + 1;
    h.count <- h.count + 1;
    h.sum_ns <- h.sum_ns + ns

  let observe_s h s = observe_ns h (Float.to_int (Float.round (s *. 1e9)))

  let add ~into h =
    Array.iteri (fun i c -> into.counts.(i) <- into.counts.(i) + c) h.counts;
    into.count <- into.count + h.count;
    into.sum_ns <- into.sum_ns + h.sum_ns

  let count h = h.count

  let value h =
    {
      Prom.bounds = Array.copy latency_buckets;
      counts = Array.copy h.counts;
      sum = float_of_int h.sum_ns /. 1e9;
      count = h.count;
    }
end

type latency = { verdict : Hist.t; dtw_pair : Hist.t; model_build : Hist.t }

let new_latency () =
  { verdict = Hist.create (); dtw_pair = Hist.create (); model_build = Hist.create () }

let add_latency ~into l =
  Hist.add ~into:into.verdict l.verdict;
  Hist.add ~into:into.dtw_pair l.dtw_pair;
  Hist.add ~into:into.model_build l.model_build

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

let merge_latency t records =
  if not t.metrics_on then None
  else begin
    let into = new_latency () in
    Array.iter (Option.iter (add_latency ~into)) records;
    Some into
  end

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
