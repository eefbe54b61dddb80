(* The leveled, structured event log.

   Design constraints, in order: (1) observation purity — capturing events
   must never change a verdict bit, so the sink is append-only state that
   nothing on the detection path reads back; (2) a zero-cost disabled path —
   every emission site performs one ref load and branch when the log is off,
   allocating nothing; (3) non-blocking, bounded buffering — events go on a
   lock-free Treiber stack (the same shape as [Obs]'s span log) with a hard
   cap, so a runaway emitter can stall neither the engine workers nor the
   serve drainer, and memory stays bounded; overflow is counted, not waited
   on.  Timestamps come from [Obs.Clock] (monotonic), so event order in the
   JSONL is meaningful even across wall-clock steps.

   Two independent outputs share the emission sites:
   - the capture buffer, drained by [events]/[write] into JSONL artifacts
     ([detect-batch --log-out]);
   - a stderr mirror at a configurable minimum severity, which replaces the
     ad-hoc [Printf.eprintf] calls the CLI and daemon used to make — same
     bytes on stderr, plus the structured record when capture is on. *)

type level = Debug | Info | Warn | Error

let level_to_string = function
  | Debug -> "debug"
  | Info -> "info"
  | Warn -> "warn"
  | Error -> "error"

let level_of_string = function
  | "debug" -> Some Debug
  | "info" -> Some Info
  | "warn" -> Some Warn
  | "error" -> Some Error
  | _ -> None

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

(* ---- switches --------------------------------------------------------------- *)

(* Plain refs, like the [Obs] switches: written by the front-ends before a
   run, read once per emission site. *)
let capture_on = ref false
let capture_level = ref Debug
let stderr_level : level option ref = ref (Some Info)
let default_capacity = 8192

let enabled () = !capture_on
let set_capture b = capture_on := b
let level () = !capture_level
let set_level l = capture_level := l
let mirror_level () = !stderr_level
let set_mirror_level l = stderr_level := l

(* ---- the bounded sink ------------------------------------------------------- *)

let sink : event Sutil.Sink.t = Sutil.Sink.create ~capacity:default_capacity ()
let seq_counter = Atomic.make 0
let set_capacity n = Sutil.Sink.set_capacity sink n
let dropped () = Sutil.Sink.dropped sink

let events () =
  List.sort (fun a b -> compare a.seq b.seq) (Sutil.Sink.items sink)

let clear () = Sutil.Sink.clear sink

(* ---- emission --------------------------------------------------------------- *)

let mirror lvl message =
  match !stderr_level with
  | Some min when severity lvl >= severity min ->
    Printf.eprintf "%s\n%!" message
  | _ -> ()

let event ?trace_id ?(fields = []) lvl name message =
  (* the mirror is independent of capture: `serve` banners stay visible on
     stderr whether or not a JSONL artifact was requested *)
  mirror lvl message;
  if !capture_on && severity lvl >= severity !capture_level then
    let trace_id =
      match trace_id with Some _ as t -> t | None -> Obs.trace_id ()
    in
    Sutil.Sink.push sink
      {
        seq = Atomic.fetch_and_add seq_counter 1;
        ts_ns = Obs.Clock.now_ns ();
        level = lvl;
        event = name;
        message;
        trace_id;
        fields;
      }

let debug ?trace_id ?fields name fmt =
  Printf.ksprintf (event ?trace_id ?fields Debug name) fmt

let info ?trace_id ?fields name fmt =
  Printf.ksprintf (event ?trace_id ?fields Info name) fmt

let warn ?trace_id ?fields name fmt =
  Printf.ksprintf (event ?trace_id ?fields Warn name) fmt

let error ?trace_id ?fields name fmt =
  Printf.ksprintf (event ?trace_id ?fields Error name) fmt

(* ---- typed Err context ------------------------------------------------------ *)

let err_fields (e : Err.t) =
  match e with
  | Err.Parse { file; line; msg } ->
    [ ("kind", Json.Str "parse") ]
    @ (match file with Some f -> [ ("file", Json.Str f) ] | None -> [])
    @ (match line with
      | Some l -> [ ("line", Json.Num (float_of_int l)) ]
      | None -> [])
    @ [ ("msg", Json.Str msg) ]
  | Err.Io { path; msg } ->
    [ ("kind", Json.Str "io"); ("path", Json.Str path); ("msg", Json.Str msg) ]
  | Err.Invalid_config { field; value; expected } ->
    [
      ("kind", Json.Str "invalid_config");
      ("field", Json.Str field);
      ("value", Json.Str value);
      ("expected", Json.Str expected);
    ]
  | Err.Empty_repository -> [ ("kind", Json.Str "empty_repository") ]

let err ?trace_id ?(prefix = "scaguard") name (e : Err.t) =
  event ?trace_id ~fields:(err_fields e) Error name
    (Printf.sprintf "%s: %s" prefix (Err.to_string e))

(* ---- JSONL ------------------------------------------------------------------ *)

let event_to_json e =
  Json.Obj
    ([
       ("ts_ns", Json.Str (Int64.to_string e.ts_ns));
       ("seq", Json.Num (float_of_int e.seq));
       ("level", Json.Str (level_to_string e.level));
       ("event", Json.Str e.event);
       ("msg", Json.Str e.message);
     ]
    @ (match e.trace_id with
      | Some t -> [ ("trace_id", Json.Str t) ]
      | None -> [])
    @ (match e.fields with
      | [] -> []
      | fields -> [ ("fields", Json.Obj fields) ]))

let to_jsonl evs =
  let buf = Buffer.create 1024 in
  List.iter
    (fun e ->
      Json.to_buf buf (event_to_json e);
      Buffer.add_char buf '\n')
    evs;
  (* the overflow marker is part of the record: a truncated log must say so *)
  let d = dropped () in
  if d > 0 then begin
    Json.to_buf buf
      (Json.Obj
         [
           ("level", Json.Str "warn");
           ("event", Json.Str "log.dropped");
           ( "msg",
             Json.Str
               (Printf.sprintf
                  "%d events dropped: capture buffer full (capacity %d)" d
                  (Sutil.Sink.capacity sink)) );
           ("dropped", Json.Num (float_of_int d));
         ]);
    Buffer.add_char buf '\n'
  end;
  Buffer.contents buf

let write ~path =
  match Persist.write_atomic ~path (to_jsonl (events ())) with
  | () -> Ok ()
  | exception Sys_error msg -> Error (Err.Io { path; msg })
