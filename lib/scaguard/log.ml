(* The leveled, structured event log.

   Design constraints, in order: (1) observation purity — capturing events
   must never change a verdict bit, so the sink is append-only state that
   nothing on the detection path reads back; (2) a zero-cost disabled path —
   every emission site performs one field load and branch when its value
   does not capture, allocating nothing; (3) non-blocking, bounded
   buffering — events go on the run's lock-free sink ([Obs.create
   ~capacity]) with a hard cap, so a runaway emitter can stall neither the
   engine workers nor the serve drainer, and memory stays bounded; overflow
   is counted, not waited on.  Timestamps come from [Obs.Clock]
   (monotonic), so event order in the JSONL is meaningful even across
   wall-clock steps.  The two outputs, capture and stderr mirror, are
   described in log.mli. *)

type level = Obs.level = Debug | Info | Warn | Error

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

(* ---- emission --------------------------------------------------------------- *)

let event ?(obs = Obs.off) ?(fields = []) lvl name message =
  Obs.emit_event obs ~fields lvl name message

let debug ?obs ?fields name fmt =
  Printf.ksprintf (event ?obs ?fields Debug name) fmt
let info ?obs ?fields name fmt =
  Printf.ksprintf (event ?obs ?fields Info name) fmt
let warn ?obs ?fields name fmt =
  Printf.ksprintf (event ?obs ?fields Warn name) fmt
let error ?obs ?fields name fmt =
  Printf.ksprintf (event ?obs ?fields Error name) fmt

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

let err ?obs ?(prefix = "scaguard") name (e : Err.t) =
  event ?obs ~fields:(err_fields e) Error name
    (Printf.sprintf "%s: %s" prefix (Err.to_string e))

(* ---- JSONL ------------------------------------------------------------------ *)

let event_to_json (e : Obs.event) =
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

let to_jsonl obs =
  let buf = Buffer.create 1024 in
  List.iter
    (fun e ->
      Json.to_buf buf (event_to_json e);
      Buffer.add_char buf '\n')
    (Obs.events obs);
  (* the overflow marker is part of the record: a truncated log must say so *)
  let d = Obs.dropped obs in
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
                  (Obs.capacity obs)) );
           ("dropped", Json.Num (float_of_int d));
         ]);
    Buffer.add_char buf '\n'
  end;
  Buffer.contents buf

let write obs ~path =
  match Persist.write_atomic ~path (to_jsonl obs) with
  | () -> Ok ()
  | exception Sys_error msg -> Error (Err.Io { path; msg })
