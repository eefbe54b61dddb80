(* The resident streaming detection daemon behind `scaguard serve`.

   Layering (bottom up): Framer (newline framing with a hard line
   ceiling) over the shared strict Json codec, the protocol types
   (parse_request / frame builders), then the server core — a bounded
   request queue drained by a single thread, so requests execute strictly
   in arrival order and `reload` can never race an in-flight detection.
   The transports (stdio / Unix socket / TCP) are thin pump loops over
   connect/feed/step.  docs/SERVER.md is the normative wire spec; keep the
   two in lockstep. *)

(* ---- framing ---------------------------------------------------------------- *)

module Framer = struct
  type frame = Line of string | Overflow of { dropped : int }

  type t = {
    max_line : int;
    buf : Buffer.t;
    mutable skipping : bool;  (* discarding an oversized line until '\n' *)
    mutable skipped : int;
  }

  let create ?(max_line = 1 lsl 20) () =
    if max_line < 1 then
      invalid_arg (Printf.sprintf "Framer.create: max_line %d < 1" max_line);
    { max_line; buf = Buffer.create 256; skipping = false; skipped = 0 }

  let buffered t = Buffer.length t.buf

  let strip_cr s =
    let l = String.length s in
    if l > 0 && s.[l - 1] = '\r' then String.sub s 0 (l - 1) else s

  let feed t chunk =
    let frames = ref [] in
    String.iter
      (fun c ->
        if t.skipping then
          if c = '\n' then begin
            frames := Overflow { dropped = t.skipped } :: !frames;
            t.skipping <- false;
            t.skipped <- 0
          end
          else t.skipped <- t.skipped + 1
        else if c = '\n' then begin
          frames := Line (strip_cr (Buffer.contents t.buf)) :: !frames;
          Buffer.clear t.buf
        end
        else begin
          Buffer.add_char t.buf c;
          if Buffer.length t.buf > t.max_line then begin
            t.skipped <- Buffer.length t.buf;
            Buffer.clear t.buf;
            t.skipping <- true
          end
        end)
      chunk;
    List.rev !frames

  let eof t =
    if t.skipping then begin
      let dropped = t.skipped in
      t.skipping <- false;
      t.skipped <- 0;
      Some (Overflow { dropped })
    end
    else if Buffer.length t.buf > 0 then begin
      let line = strip_cr (Buffer.contents t.buf) in
      Buffer.clear t.buf;
      Some (Line line)
    end
    else None
end

(* ---- protocol --------------------------------------------------------------- *)

type error_code =
  | Parse_error
  | Bad_request
  | Invalid_config
  | Io
  | Empty_repository
  | Busy
  | Deadline
  | Unavailable
  | Internal

let error_code_to_string = function
  | Parse_error -> "parse"
  | Bad_request -> "bad_request"
  | Invalid_config -> "invalid_config"
  | Io -> "io"
  | Empty_repository -> "empty_repository"
  | Busy -> "busy"
  | Deadline -> "deadline"
  | Unavailable -> "unavailable"
  | Internal -> "internal"

let error_code_of_err = function
  | Err.Parse _ -> Parse_error
  | Err.Io _ -> Io
  | Err.Invalid_config _ -> Invalid_config
  | Err.Empty_repository -> Empty_repository

type request_body =
  | Detect of { targets : string list; seed : int; stream : bool }
  | Screen of { targets : string list; seed : int }
  | Explain of { targets : string list; seed : int }
  | Stats
  | Metrics
  | Reload of { path : string option }
  | Ping
  | Shutdown

type request = {
  id : Json.t;
  body : request_body;
  deadline_ms : int option;
  trace_id : string option;
      (* client-chosen correlation token: echoed in every frame this
         request produces and stamped on spans, log events and provenance
         records while it executes *)
}

let verb = function
  | Detect _ -> "detect"
  | Screen _ -> "screen"
  | Explain _ -> "explain"
  | Stats -> "stats"
  | Metrics -> "metrics"
  | Reload _ -> "reload"
  | Ping -> "ping"
  | Shutdown -> "shutdown"

type reject = {
  reject_id : Json.t;
  code : error_code;
  message : string;
  reject_trace : string option;
      (* echoed when the envelope got far enough to carry one *)
}

let default_seed = 2026

(* ids must survive the echo exactly, so only integral numbers (within the
   float53 exact range) and strings qualify *)
let integral f = Float.is_integer f && Float.abs f <= 9007199254740992.0

let parse_request line =
  match Json.parse line with
  | Error msg ->
    Error
      {
        reject_id = Json.Null;
        code = Parse_error;
        message = "invalid JSON: " ^ msg;
        reject_trace = None;
      }
  | Ok (Json.Obj _ as j) -> begin
    (* the trace id is best-effort on rejects: a well-typed one is echoed
       even when a later field is bad, so clients can correlate failures *)
    let trace_id =
      match Json.member "trace_id" j with
      | Some (Json.Str s) -> Some s
      | _ -> None
    in
    let id_res =
      match Json.member "id" j with
      | Some (Json.Num f) when integral f -> Ok (Json.Num f)
      | Some (Json.Str s) -> Ok (Json.Str s)
      | Some _ -> Error "\"id\" must be an integer or a string"
      | None -> Error "missing \"id\""
    in
    match id_res with
    | Error message ->
      Error
        {
          reject_id = Json.Null;
          code = Bad_request;
          message;
          reject_trace = trace_id;
        }
    | Ok id -> begin
      let ( let* ) r f =
        match r with
        | Ok v -> f v
        | Error message ->
          Error
            { reject_id = id; code = Bad_request; message; reject_trace = trace_id }
      in
      let ( let& ) = Result.bind in
      let int_field key =
        match Json.member key j with
        | None -> Ok None
        | Some (Json.Num f) when integral f -> Ok (Some (int_of_float f))
        | Some _ -> Error (Printf.sprintf "%S must be an integer" key)
      in
      let* op =
        match Json.member "op" j with
        | Some (Json.Str s) -> Ok s
        | Some _ -> Error "\"op\" must be a string"
        | None -> Error "missing \"op\""
      in
      let* deadline_ms =
        match int_field "deadline_ms" with
        | Ok (Some d) when d < 0 ->
          Error "\"deadline_ms\" must be a non-negative integer"
        | r -> r
      in
      let* seed =
        Result.map (Option.value ~default:default_seed) (int_field "seed")
      in
      let targets () =
        match Json.member "targets" j with
        | Some (Json.List (_ :: _ as l)) ->
          let rec strings acc = function
            | [] -> Ok (List.rev acc)
            | Json.Str s :: rest -> strings (s :: acc) rest
            | _ -> Error "\"targets\" must be a non-empty array of strings"
          in
          strings [] l
        | Some _ | None -> Error "\"targets\" must be a non-empty array of strings"
      in
      let* trace_id =
        match Json.member "trace_id" j with
        | None -> Ok None
        | Some (Json.Str s) -> Ok (Some s)
        | Some _ -> Error "\"trace_id\" must be a string"
      in
      let* body =
        match op with
        | "detect" ->
          let& targets = targets () in
          let& stream =
            match Json.member "stream" j with
            | None -> Ok true
            | Some (Json.Bool v) -> Ok v
            | Some _ -> Error "\"stream\" must be a boolean"
          in
          Ok (Detect { targets; seed; stream })
        | "screen" ->
          let& targets = targets () in
          Ok (Screen { targets; seed })
        | "explain" ->
          let& targets = targets () in
          Ok (Explain { targets; seed })
        | "stats" -> Ok Stats
        | "metrics" -> Ok Metrics
        | "reload" ->
          let& path =
            match Json.member "path" j with
            | None -> Ok None
            | Some (Json.Str s) -> Ok (Some s)
            | Some _ -> Error "\"path\" must be a string"
          in
          Ok (Reload { path })
        | "ping" -> Ok Ping
        | "shutdown" -> Ok Shutdown
        | other ->
          Error
            (Printf.sprintf
               "unknown op %S: expected detect, screen, explain, stats, \
                metrics, reload, ping or shutdown"
               other)
      in
      Ok { id; body; deadline_ms; trace_id }
    end
  end
  | Ok _ ->
    Error
      {
        reject_id = Json.Null;
        code = Bad_request;
        message = "request must be a JSON object";
        reject_trace = None;
      }

(* ---- server core ------------------------------------------------------------- *)

type resolve = seed:int -> string -> (Pipeline.job, Err.t) result

type conn = {
  cid : int;
  framer : Framer.t;
  mutable emit : (string -> unit) option;
}

type item = {
  iconn : conn;
  req : request;
  arrival_ns : int64;
  deadline : Sutil.Deadline.t;
}

(* Per-request latencies for the stats verb's exact quantiles: a ring of the
   last [lat_window] request durations (seconds). *)
let lat_window = 4096

type t = {
  config : Config.t;
  obs : Obs.t;
  resolve : resolve;
  cache : Model_cache.t;  (* the daemon's models, kept across requests and reloads *)
  mutable prepared : Detector.prepared;
  mutable repo_path : string option;
  queue : item Sutil.Bqueue.t;
  max_line : int;
  default_deadline_ms : int;
  start_ns : int64;
  books : Service.books;  (* every request's and reload's report, folded *)
  by_op : (string, Obs.Hist.t) Hashtbl.t;  (* requests served, and their latency *)
  rejected : (string, int ref) Hashtbl.t;
  mutable streamed : int;  (* verdict frames *)
  mutable reloads : int;
  lat : float array;
  mutable draining_ : bool;
  mutable acks : (conn * Json.t) list;  (* shutdown acks owed at drain end *)
  mutable next_cid : int;
}

let ( let* ) = Result.bind

let create ?(obs = Obs.off) ~config ~resolve ~prepared ?repo_path
    ?(queue_capacity = 64) ?(max_line = 1 lsl 20) ?(default_deadline_ms = 0) ()
    =
  let* config = Config.validate config in
  let knob field value expected =
    Error (Err.Invalid_config { field; value = string_of_int value; expected })
  in
  if Detector.prepared_size prepared = 0 then Error Err.Empty_repository
  else if queue_capacity < 1 then
    knob "queue_capacity" queue_capacity "a positive request count"
  else if max_line < 1 then knob "max_line" max_line "a positive byte count"
  else if default_deadline_ms < 0 then
    knob "default_deadline_ms" default_deadline_ms
      "a non-negative millisecond count (0 = no deadline)"
  else
    let* cache = Model_cache.create ?dir:config.Config.cache_dir () in
    Ok
      {
        config;
        obs;
        resolve;
        cache;
        prepared;
        repo_path;
        queue = Sutil.Bqueue.create ~capacity:queue_capacity;
        max_line;
        default_deadline_ms;
        start_ns = Obs.Clock.now_ns ();
        books = Service.books (Some cache);
        by_op = Hashtbl.create 8;
        rejected = Hashtbl.create 8;
        streamed = 0;
        reloads = 0;
        lat = Array.make lat_window 0.0;
        draining_ = false;
        acks = [];
        next_cid = 0;
      }

let pending t = Sutil.Bqueue.length t.queue
let draining t = t.draining_
let served t = Hashtbl.fold (fun _ h n -> n + Obs.Hist.count h) t.by_op 0
let uptime_s t = Obs.Clock.elapsed_s ~since:t.start_ns

let connect t ~emit =
  let cid = t.next_cid in
  t.next_cid <- cid + 1;
  { cid; framer = Framer.create ~max_line:t.max_line (); emit = Some emit }

let disconnect _t conn = conn.emit <- None

(* ---- frame builders ----- *)

let jint i = Json.Num (float_of_int i)

(* The trace echo rides on every frame's tail, appended at emission time so
   the frame builders stay trace-agnostic. *)
let stamp_trace trace json =
  match (trace, json) with
  | Some tr, Json.Obj kvs -> Json.Obj (kvs @ [ ("trace_id", Json.Str tr) ])
  | _ -> json

let emit_frame ?trace conn json =
  match conn.emit with
  | None -> ()
  | Some f -> f (Json.to_string (stamp_trace trace json))

let frame_error ?(extras = []) ~id code message =
  Json.Obj
    ([
       ("id", id);
       ("ok", Json.Bool false);
       ( "error",
         Json.Obj
           [
             ("code", Json.Str (error_code_to_string code));
             ("message", Json.Str message);
           ] );
     ]
    @ extras)

let verdict_frame ~id ~target (v : Detector.verdict) =
  Json.Obj
    [
      ("id", id);
      ("event", Json.Str "verdict");
      ("target", Json.Str target);
      ("attack", Json.Bool (v.Detector.best_family <> None));
      ( "family",
        match v.Detector.best_family with
        | Some f -> Json.Str f
        | None -> Json.Null );
      ("score", Json.Num v.Detector.best_score);
      ( "matches",
        Json.List
          (List.map
             (fun (poc, family, score) ->
               Json.Obj
                 [
                   ("poc", Json.Str poc);
                   ("family", Json.Str family);
                   ("score", Json.Num score);
                 ])
             v.Detector.best_matches) );
    ]

(* ---- counters ----- *)

let note_rejected t reason =
  match Hashtbl.find t.rejected reason with
  | r -> incr r
  | exception Not_found -> Hashtbl.add t.rejected reason (ref 1)

let op_latency t op =
  match Hashtbl.find t.by_op op with
  | h -> h
  | exception Not_found ->
    let h = Obs.Hist.create () in
    Hashtbl.add t.by_op op h;
    h

(* ---- request execution ----- *)

let err_frame ?extras ~id e = frame_error ?extras ~id (error_code_of_err e) (Err.to_string e)

let wall_ms ~arrival_ns =
  Int64.to_float (Obs.Clock.elapsed_ns ~since:arrival_ns) /. 1e6

(* Targets salt on the request's seed (Pipeline.seeded), the CLI's own
   policy, so serve verdicts and cache keys reproduce detect-batch's. *)
let resolve_target t ~seed name =
  Result.map (Pipeline.seeded ~seed) (t.resolve ~seed name)

let resolve_all t ~seed targets =
  let rec go acc = function
    | [] -> Ok (Array.of_list (List.rev acc))
    | name :: rest -> (
      match resolve_target t ~seed name with
      | Ok job -> go (job :: acc) rest
      | Error e -> Error (name, e))
  in
  go [] targets

(* The batch verbs — screen, explain and the unstreamed detect — share one
   shape: resolve every target, one service call over the whole batch on
   the parallel engine (no cancellation point inside it), account for it,
   then [reply] with the verdicts and the provenance records ([||] unless
   [explain]).  [fail] is the extra fields of the verb's error frames. *)
let do_batch t conn ~obs ~id ~targets ~seed ~explain ~fail reply =
  let trace = Obs.trace_id obs in
  match resolve_all t ~seed targets with
  | Error (name, e) ->
    emit_frame ?trace conn
      (err_frame ~extras:(("target", Json.Str name) :: fail) ~id e)
  | Ok jobs -> (
    let service =
      if explain then Service.explain
      else fun ?obs ?cache config prepared jobs ->
        Result.map
          (fun (models, verdicts, report) -> (models, verdicts, report, [||]))
          (Service.screen_prepared ?obs ?cache config prepared jobs)
    in
    match service ~obs ~cache:t.cache t.config t.prepared jobs with
    | Error e -> emit_frame ?trace conn (err_frame ~extras:fail ~id e)
    | Ok (_models, verdicts, report, records) ->
      Service.fold t.books report;
      reply verdicts records)

let do_detect t conn ~obs ~id ~arrival_ns ~deadline ~targets ~seed ~stream () =
  let trace = Obs.trace_id obs in
  let total = List.length targets in
  let attacks = ref 0 in
  let emit_verdict target v =
    if v.Detector.best_family <> None then incr attacks;
    emit_frame ?trace conn (verdict_frame ~id ~target v);
    t.streamed <- t.streamed + 1
  in
  let progress completed =
    [ ("completed", jint completed); ("targets", jint total) ]
  in
  let finish completed =
    emit_frame ?trace conn
      (Json.Obj
         [
           ("id", id);
           ("ok", Json.Bool true);
           ("op", Json.Str "detect");
           ("targets", jint total);
           ("completed", jint completed);
           ("attacks", jint !attacks);
           ("wall_ms", Json.Num (wall_ms ~arrival_ns));
         ])
  in
  if stream then begin
    (* One engine run per target so each verdict streams out the moment it
       is ready, with a cancellation point between targets.  Per-target
       batches are bit-identical to one big batch (the engine's standing
       sequential-identity invariant), so streaming costs no fidelity. *)
    let rec go completed = function
      | [] -> finish completed
      | name :: rest ->
        if Sutil.Deadline.expired ~now_ns:(Obs.Clock.now_ns ()) deadline then
          emit_frame ?trace conn
            (frame_error ~extras:(progress completed) ~id Deadline
               (Printf.sprintf
                  "deadline expired after %d of %d targets: remaining targets \
                   cancelled"
                  completed total))
        else begin
          match resolve_target t ~seed name with
          | Error e ->
            emit_frame ?trace conn (err_frame ~extras:(progress completed) ~id e)
          | Ok job -> (
            match
              Service.screen_prepared ~obs ~cache:t.cache t.config t.prepared
                [| job |]
            with
            | Error e ->
              emit_frame ?trace conn
                (err_frame ~extras:(progress completed) ~id e)
            | Ok (_models, verdicts, report) ->
              Service.fold t.books report;
              emit_verdict name verdicts.(0);
              go (completed + 1) rest)
        end
    in
    go 0 targets
  end
  else
    do_batch t conn ~obs ~id ~targets ~seed ~explain:false ~fail:(progress 0)
      (fun verdicts _ ->
        List.iteri (fun i name -> emit_verdict name verdicts.(i)) targets;
        finish total)

let do_screen t conn ~obs ~id ~arrival_ns ~targets ~seed () =
  do_batch t conn ~obs ~id ~targets ~seed ~explain:false ~fail:[]
    (fun verdicts _ ->
      let attack_targets =
        List.filteri (fun i _ -> verdicts.(i).Detector.best_family <> None) targets
      in
      emit_frame ?trace:(Obs.trace_id obs) conn
        (Json.Obj
           [
             ("id", id);
             ("ok", Json.Bool true);
             ("op", Json.Str "screen");
             ("targets", jint (List.length targets));
             ("attacks", jint (List.length attack_targets));
             ( "attack_targets",
               Json.List (List.map (fun n -> Json.Str n) attack_targets) );
             ("wall_ms", Json.Num (wall_ms ~arrival_ns));
           ]))

(* the screen engine run (bit-identical verdicts) plus one provenance
   record per target, in target order *)
let do_explain t conn ~obs ~id ~arrival_ns ~targets ~seed () =
  do_batch t conn ~obs ~id ~targets ~seed ~explain:true ~fail:[]
    (fun verdicts records ->
      let attacks =
        Array.fold_left
          (fun n v -> if v.Detector.best_family <> None then n + 1 else n)
          0 verdicts
      in
      emit_frame ?trace:(Obs.trace_id obs) conn
        (Json.Obj
           [
             ("id", id);
             ("ok", Json.Bool true);
             ("op", Json.Str "explain");
             ("targets", jint (List.length targets));
             ("attacks", jint attacks);
             ( "records",
               Json.List (Array.to_list (Array.map Provenance.to_json records))
             );
             ("wall_ms", Json.Num (wall_ms ~arrival_ns));
           ]))

let sorted tbl count =
  List.sort compare (Hashtbl.fold (fun k v acc -> (k, count v) :: acc) tbl [])

let stats_frame t ~id =
  let served = served t in
  let lats = Array.to_list (Array.sub t.lat 0 (min served lat_window)) in
  let pct p = Json.Num (1e3 *. Sutil.Stats.percentile p lats) in
  let counts tbl count =
    Json.Obj (List.map (fun (k, n) -> (k, jint n)) (sorted tbl count))
  in
  Json.Obj
    [
      ("id", id);
      ("ok", Json.Bool true);
      ("op", Json.Str "stats");
      ("uptime_s", Json.Num (uptime_s t));
      ( "repository",
        Json.Obj
          [
            ("models", jint (Detector.prepared_size t.prepared));
            ( "path",
              match t.repo_path with Some p -> Json.Str p | None -> Json.Null );
            ("reloads", jint t.reloads);
          ] );
      ( "queue",
        Json.Obj
          [
            ("depth", jint (Sutil.Bqueue.length t.queue));
            ("capacity", jint (Sutil.Bqueue.capacity t.queue));
          ] );
      ( "requests",
        Json.Obj
          [
            ("completed", jint served);
            ("by_op", counts t.by_op Obs.Hist.count);
            ("rejected", counts t.rejected ( ! ));
          ] );
      ( "engine",
        Json.Obj (List.map (fun (k, n) -> (k, jint n)) (Service.counts t.books))
      );
      ( "latency_ms",
        Json.Obj
          [
            ("count", jint served);
            ("window", jint (min served lat_window));
            ("p50", pct 0.50);
            ("p90", pct 0.90);
            ("p99", pct 0.99);
            ("max", Json.Num (1e3 *. Sutil.Stats.maximum lats));
          ] );
    ]

let exposition t =
  let per_op ~help name value =
    List.map
      (fun (op, h) -> Obs.Prom.series ~labels:[ ("op", op) ] ~help name (value h))
      (sorted t.by_op Fun.id)
  in
  Obs.Prom.to_prometheus
    (Service.series t.books
    @ per_op "scaguard_server_requests_total"
        ~help:"Requests the serve daemon completed, by protocol verb."
        (fun h -> Counter (Obs.Hist.count h))
    @ List.map
        (fun (reason, n) ->
          Obs.Prom.series
            ~labels:[ ("reason", reason) ]
            ~help:
              "Requests the serve daemon rejected without executing them: \
               queue-full backpressure (busy), expired deadlines (deadline), \
               drain-phase refusals (unavailable), unparseable frames (parse)."
            "scaguard_server_rejected_total" (Counter n))
        (sorted t.rejected ( ! ))
    @ [
        Obs.Prom.series ~labels:[]
          ~help:"Requests currently waiting in the serve daemon's bounded queue."
          "scaguard_server_queue_depth"
          (Gauge (float_of_int (Sutil.Bqueue.length t.queue)));
        Obs.Prom.series ~labels:[]
          ~help:"Verdict frames the serve daemon streamed back to clients."
          "scaguard_server_streamed_verdicts_total" (Counter t.streamed);
      ]
    @ per_op "scaguard_server_request_seconds"
        ~help:
          "End-to-end request latency in the serve daemon (arrival at the \
           framer to final reply frame), by protocol verb."
        (fun h -> Histogram (Obs.Hist.value h))
    @ Service.identity ~uptime_s:(uptime_s t))

let metrics_frame t ~id =
  Json.Obj
    [
      ("id", id);
      ("ok", Json.Bool true);
      ("op", Json.Str "metrics");
      ("content_type", Json.Str "text/plain; version=0.0.4");
      ("body", Json.Str (exposition t));
    ]

let do_reload t conn ~obs ~id ~arrival_ns ~path () =
  let trace = Obs.trace_id obs in
  let path =
    match (path, t.repo_path) with
    | Some p, _ | None, Some p -> Ok p
    | None, None ->
      Error
        (Err.Invalid_config
           {
             field = "path";
             value = "(absent)";
             expected =
               "a repository file path (the server was not started from one)";
           })
  in
  match path with
  | Error e ->
    Log.err ~obs "server.reload" e;
    emit_frame ?trace conn (err_frame ~id e)
  | Ok path -> (
    (* loading under the server's config rebuilds the prepared index when
       the file does not carry one, so a reloaded daemon classifies exactly
       like a freshly started one — same candidates, same counters *)
    match Service.load_repository ~obs ~config:t.config ~path () with
    | Error e ->
      Log.err ~obs "server.reload" e;
      emit_frame ?trace conn (err_frame ~id e)
    | Ok (_repo, prep, report) ->
      Service.fold t.books report;
      if Detector.prepared_size prep = 0 then begin
        Log.warn ~obs "server.reload"
          ~fields:[ ("path", Json.Str path) ]
          "scaguard: %s holds no models: keeping the current repository" path;
        emit_frame ?trace conn
          (frame_error ~id Empty_repository
             (Printf.sprintf
                "%s holds no models: keeping the current repository" path))
      end
      else begin
        (* the swap is the only mutation, and it happens between requests —
           everything queued before this reload already ran on the old
           repository, everything after runs on the new one *)
        t.prepared <- prep;
        t.repo_path <- Some path;
        t.reloads <- t.reloads + 1;
        Log.info ~obs "server.reload"
          ~fields:
            [
              ("path", Json.Str path);
              ("models", jint (Detector.prepared_size prep));
            ]
          "scaguard: reloaded %d models from %s"
          (Detector.prepared_size prep) path;
        emit_frame ?trace conn
          (Json.Obj
             [
               ("id", id);
               ("ok", Json.Bool true);
               ("op", Json.Str "reload");
               ("path", Json.Str path);
               ("models", jint (Detector.prepared_size prep));
               ("wall_ms", Json.Num (wall_ms ~arrival_ns));
             ])
      end)

let shutdown_ack t ~id =
  Json.Obj
    [
      ("id", id);
      ("ok", Json.Bool true);
      ("op", Json.Str "shutdown");
      ("served", jint (served t));
      ("uptime_s", Json.Num (uptime_s t));
    ]

let execute t { iconn; req; arrival_ns; deadline } =
  let trace = req.trace_id in
  let now = Obs.Clock.now_ns () in
  if Sutil.Deadline.expired ~now_ns:now deadline then begin
    emit_frame ?trace iconn
      (frame_error ~id:req.id Deadline
         "deadline expired while the request was queued");
    note_rejected t "deadline"
  end
  else begin
    let op = verb req.body in
    let id = req.id in
    (* the request runs under the server's switches and sinks with its own
       trace id, so every span, log event and provenance record emitted in
       here — the request:<op> span included — carries this request's
       trace and no other's *)
    let obs = Obs.with_trace_id t.obs trace in
    (try
       match req.body with
       | Ping ->
         emit_frame ?trace iconn
           (Json.Obj
              [ ("id", id); ("ok", Json.Bool true); ("op", Json.Str "ping") ])
       | Stats -> emit_frame ?trace iconn (stats_frame t ~id)
       | Metrics -> emit_frame ?trace iconn (metrics_frame t ~id)
       | Reload { path } -> do_reload t iconn ~obs ~id ~arrival_ns ~path ()
       | Shutdown ->
         t.draining_ <- true;
         t.acks <- (iconn, id) :: t.acks
       | Detect { targets; seed; stream } ->
         do_detect t iconn ~obs ~id ~arrival_ns ~deadline ~targets ~seed
           ~stream ()
       | Screen { targets; seed } ->
         do_screen t iconn ~obs ~id ~arrival_ns ~targets ~seed ()
       | Explain { targets; seed } ->
         do_explain t iconn ~obs ~id ~arrival_ns ~targets ~seed ()
     with exn ->
       (* a hostile or buggy request must never take the daemon down *)
       Log.error ~obs "server.internal"
         ~fields:[ ("op", Json.Str op); ("id", req.id) ]
         "scaguard: unexpected exception serving %s: %s" op
         (Printexc.to_string exn);
       emit_frame ?trace iconn
         (frame_error ~id Internal
            ("unexpected exception: " ^ Printexc.to_string exn)));
    let dur_ns = Obs.Clock.elapsed_ns ~since:arrival_ns in
    t.lat.(served t mod lat_window) <- Obs.Clock.ns_to_s dur_ns;
    Obs.Hist.observe_ns (op_latency t op) (Int64.to_int dur_ns);
    if Obs.tracing obs then
      Obs.emit_span obs ~cat:"server" ~name:("request:" ^ op) ~ts_ns:arrival_ns
        ~dur_ns
        ~args:[ ("op", op); ("id", Json.to_string req.id) ]
        ()
  end

(* ---- feed / step ----- *)

let handle_frame t conn = function
  | Framer.Overflow { dropped } ->
    note_rejected t "parse";
    emit_frame conn
      (frame_error ~id:Json.Null Parse_error
         (Printf.sprintf "frame exceeds %d bytes (%d bytes dropped)" t.max_line
            dropped))
  | Framer.Line "" -> ()  (* blank lines are keepalive noise *)
  | Framer.Line line ->
    if t.draining_ then begin
      (* still parse, purely to echo the id (and trace) back *)
      let id, trace =
        match parse_request line with
        | Ok req -> (req.id, req.trace_id)
        | Error r -> (r.reject_id, r.reject_trace)
      in
      note_rejected t "unavailable";
      emit_frame ?trace conn
        (frame_error ~id Unavailable
           "server is draining after shutdown: request refused")
    end
    else begin
      match parse_request line with
      | Error r ->
        note_rejected t (error_code_to_string r.code);
        emit_frame ?trace:r.reject_trace conn
          (frame_error ~id:r.reject_id r.code r.message)
      | Ok req ->
        let arrival_ns = Obs.Clock.now_ns () in
        let budget_ms = Option.value req.deadline_ms ~default:t.default_deadline_ms in
        let deadline = Sutil.Deadline.after ~now_ns:arrival_ns ~budget_ms in
        let item = { iconn = conn; req; arrival_ns; deadline } in
        if not (Sutil.Bqueue.push t.queue item) then begin
          (* explicit backpressure: the reply goes out now, ahead of all
             queued work, so clients learn to back off immediately *)
          note_rejected t "busy";
          emit_frame ?trace:req.trace_id conn
            (frame_error ~id:req.id Busy
               (Printf.sprintf
                  "request queue full (%d queued, capacity %d): retry later"
                  (Sutil.Bqueue.length t.queue)
                  (Sutil.Bqueue.capacity t.queue)))
        end
    end

let feed t conn chunk =
  List.iter (handle_frame t conn) (Framer.feed conn.framer chunk)

let feed_eof t conn =
  match Framer.eof conn.framer with
  | Some frame -> handle_frame t conn frame
  | None -> ()

let finish_drain t =
  List.iter (fun (conn, id) -> emit_frame conn (shutdown_ack t ~id)) (List.rev t.acks);
  t.acks <- [];
  `Stop

let step t =
  match Sutil.Bqueue.pop t.queue with
  | None -> if t.draining_ then finish_drain t else `Idle
  | Some item ->
    execute t item;
    `Worked

let rec drain t =
  match step t with
  | `Worked -> drain t
  | `Idle -> `Idle
  | `Stop -> `Stop

(* ---- transports -------------------------------------------------------------- *)

type endpoint =
  | Stdio
  | Unix_socket of string
  | Tcp of { host : string; port : int }

let endpoint_to_string = function
  | Stdio -> "stdio"
  | Unix_socket path -> "unix:" ^ path
  | Tcp { host; port } -> Printf.sprintf "tcp:%s:%d" host port

let serve_channels t ~ic ~oc =
  let conn_ref = ref None in
  let emit line =
    try
      output_string oc line;
      output_char oc '\n';
      flush oc
    with Sys_error _ -> Option.iter (fun c -> disconnect t c) !conn_ref
  in
  let conn = connect t ~emit in
  conn_ref := Some conn;
  let buf = Bytes.create 65536 in
  let rec loop () =
    match drain t with
    | `Stop -> Ok ()
    | `Idle -> (
      match input ic buf 0 (Bytes.length buf) with
      | 0 ->
        (* EOF: a trailing unterminated line still gets served, then the
           queue drains and the loop exits *)
        feed_eof t conn;
        (match drain t with `Stop | `Idle -> ());
        Ok ()
      | n ->
        feed t conn (Bytes.sub_string buf 0 n);
        loop ()
      | exception End_of_file ->
        feed_eof t conn;
        (match drain t with `Stop | `Idle -> ());
        Ok ()
      | exception Sys_error msg -> Error (Err.Io { path = "<stdio>"; msg }))
  in
  loop ()

let rec write_all fd s off len =
  if len > 0 then begin
    let n = Unix.write_substring fd s off len in
    write_all fd s (off + n) (len - n)
  end

let serve_listener t listener ~cleanup =
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ -> ());
  let clients : (Unix.file_descr, conn) Hashtbl.t = Hashtbl.create 16 in
  let close_client fd =
    (match Hashtbl.find_opt clients fd with
    | Some c -> disconnect t c
    | None -> ());
    Hashtbl.remove clients fd;
    try Unix.close fd with Unix.Unix_error _ -> ()
  in
  let accept_client () =
    match Unix.accept listener with
    | exception Unix.Unix_error _ -> ()
    | fd, _ ->
      let conn_ref = ref None in
      let emit line =
        let s = line ^ "\n" in
        try write_all fd s 0 (String.length s)
        with Unix.Unix_error ((EPIPE | ECONNRESET | EBADF), _, _) ->
          (* dead peer: stop emitting, reap the fd *)
          Option.iter (fun c -> disconnect t c) !conn_ref;
          close_client fd
      in
      let conn = connect t ~emit in
      conn_ref := Some conn;
      Hashtbl.replace clients fd conn
  in
  let buf = Bytes.create 65536 in
  let stop = ref false in
  while not !stop do
    let fds = listener :: Hashtbl.fold (fun fd _ acc -> fd :: acc) clients [] in
    (* with work queued (or a drain to finish), poll instead of blocking so
       queued requests keep executing between I/O bursts *)
    let timeout = if pending t > 0 || draining t then 0.0 else 0.5 in
    (match Unix.select fds [] [] timeout with
    | exception Unix.Unix_error (EINTR, _, _) -> ()
    | ready, _, _ ->
      List.iter
        (fun fd ->
          if fd == listener then accept_client ()
          else
            match Unix.read fd buf 0 (Bytes.length buf) with
            | 0 -> close_client fd
            | n -> (
              match Hashtbl.find_opt clients fd with
              | Some conn -> feed t conn (Bytes.sub_string buf 0 n)
              | None -> ())
            | exception Unix.Unix_error ((ECONNRESET | EBADF | EPIPE), _, _) ->
              close_client fd)
        ready);
    match step t with `Stop -> stop := true | `Worked | `Idle -> ()
  done;
  Hashtbl.iter (fun fd _ -> try Unix.close fd with Unix.Unix_error _ -> ()) clients;
  (try Unix.close listener with Unix.Unix_error _ -> ());
  cleanup ();
  Ok ()

let io_error path e = Error (Err.Io { path; msg = Unix.error_message e })

let serve_unix t path =
  let listener = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let bound =
    match Unix.bind listener (Unix.ADDR_UNIX path) with
    | () -> Ok ()
    | exception Unix.Unix_error (Unix.EADDRINUSE, _, _) -> begin
      (* a socket file exists — live server, or debris from a crash?
         probe it: connection refused means nobody is listening *)
      let probe = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      let live =
        match Unix.connect probe (Unix.ADDR_UNIX path) with
        | () -> true
        | exception Unix.Unix_error _ -> false
      in
      (try Unix.close probe with Unix.Unix_error _ -> ());
      if live then
        Error
          (Err.Io { path; msg = "socket is in use by a live scaguard serve" })
      else begin
        (try Unix.unlink path with Unix.Unix_error _ -> ());
        match Unix.bind listener (Unix.ADDR_UNIX path) with
        | () -> Ok ()
        | exception Unix.Unix_error (e, _, _) -> io_error path e
      end
    end
    | exception Unix.Unix_error (e, _, _) -> io_error path e
  in
  match bound with
  | Error e ->
    (try Unix.close listener with Unix.Unix_error _ -> ());
    Error e
  | Ok () ->
    Unix.listen listener 64;
    serve_listener t listener ~cleanup:(fun () ->
        try Unix.unlink path with Unix.Unix_error _ -> ())

let resolve_host host =
  let unresolved () = Error (Err.Io { path = host; msg = "cannot resolve host" }) in
  match Unix.inet_addr_of_string host with
  | a -> Ok a
  | exception Failure _ ->
    let name = String.lowercase_ascii host in
    if name = "invalid" || String.ends_with ~suffix:".invalid" name then
      unresolved ()
    else (
      match Unix.gethostbyname host with
      | { Unix.h_addr_list = [||]; _ } | (exception Not_found) -> unresolved ()
      | { Unix.h_addr_list; _ } -> Ok h_addr_list.(0))

let serve_tcp t host port =
  match resolve_host host with
  | Error e -> Error e
  | Ok addr -> (
    let listener = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    Unix.setsockopt listener Unix.SO_REUSEADDR true;
    match Unix.bind listener (Unix.ADDR_INET (addr, port)) with
    | exception Unix.Unix_error (e, _, _) ->
      (try Unix.close listener with Unix.Unix_error _ -> ());
      io_error (Printf.sprintf "%s:%d" host port) e
    | () ->
      Unix.listen listener 64;
      serve_listener t listener ~cleanup:(fun () -> ()))

let serve t endpoint =
  match endpoint with
  | Stdio -> serve_channels t ~ic:stdin ~oc:stdout
  | Unix_socket path -> serve_unix t path
  | Tcp { host; port } -> serve_tcp t host port
