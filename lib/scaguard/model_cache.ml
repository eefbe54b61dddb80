(* Content-addressed store in two tiers: a bounded in-memory table from the
   full key text to the entry bytes, in front of an optional directory of
   one model per file, named by the hex MD5 of the key text.  There is no
   separate invalidation protocol — change an ingredient and the key
   changes, so the old entry is simply never looked up again. *)

(* Bump whenever the persisted format or the modeling pipeline changes in a
   way that alters model bytes for identical inputs.  2: entries moved from
   the text format to the SCAGBIN binary encoding. *)
let format_version = 2

let memory_budget = 8 * 1024 * 1024

type t = {
  dir : string option;
  entries : (string, string) Hashtbl.t;  (* key text -> entry bytes *)
  order : string Queue.t;  (* resident keys, oldest first *)
  mutable resident : int;  (* key + entry bytes in [entries] *)
  hits : int Atomic.t;
  misses : int Atomic.t;
  stale : int Atomic.t;
}

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755
    with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end
  else if not (Sys.is_directory dir) then
    invalid_arg (Printf.sprintf "Model_cache: %s exists and is not a directory" dir)

let create ?dir () =
  let t =
    {
      dir;
      entries = Hashtbl.create 64;
      order = Queue.create ();
      resident = 0;
      hits = Atomic.make 0;
      misses = Atomic.make 0;
      stale = Atomic.make 0;
    }
  in
  match dir with
  | None -> Ok t
  | Some path -> (
    match mkdir_p path with
    | () -> Ok t
    | exception Invalid_argument _ ->
      Error
        (Err.Invalid_config
           {
             field = "cache_dir";
             value = path;
             expected = "a directory (or a path where one can be created)";
           })
    | exception Unix.Unix_error (e, _, _) ->
      Error (Err.Io { path; msg = Unix.error_message e })
    | exception Sys_error msg -> Error (Err.Io { path; msg }))

let dir t = t.dir
let hits t = Atomic.get t.hits
let misses t = Atomic.get t.misses
let stale t = Atomic.get t.stale
let resident_bytes t = t.resident

let key ?settings ?cst_config ?max_paths ?max_len ?victim ?(salt = "") ~name
    program =
  (* Normalize the optional knobs to what the pipeline actually uses, so
     [None] and an explicitly-passed default produce the same key. *)
  let s = Option.value ~default:Cpu.Exec.default_settings settings in
  let cc = Option.value ~default:Cache.Config.cst_probe cst_config in
  let buf = Buffer.create 1024 in
  let add fmt = Printf.ksprintf (fun str -> Buffer.add_string buf str) fmt in
  add "scaguard-model-cache %d\n" format_version;
  add "name %s\n" name;
  add "salt %s\n" salt;
  add "settings %d %d %d %d %s\n" s.Cpu.Exec.spec_window s.Cpu.Exec.quantum
    s.Cpu.Exec.victim_quantum s.Cpu.Exec.fuel
    (match s.Cpu.Exec.protected_range with
    | None -> "-"
    | Some (lo, hi) -> Printf.sprintf "%d:%d" lo hi);
  add "cst_config %d %d %d\n" cc.Cache.Config.sets cc.Cache.Config.ways
    cc.Cache.Config.line_bits;
  (* Defaults for these two live in Attack_graph; changing those defaults is
     a pipeline change and is covered by the format_version bump rule. *)
  add "max_paths %s\n"
    (match max_paths with None -> "-" | Some n -> string_of_int n);
  add "max_len %s\n"
    (match max_len with None -> "-" | Some n -> string_of_int n);
  (* Binary.encode captures code, base address and labels — everything that
     determines the program's execution.  The init closures (attacker memory
     preparation, victim state) cannot be hashed; callers cover them through
     [salt] (target jobs use the workload seed). *)
  (match victim with
  | None -> add "victim -\n"
  | Some vp ->
    let enc = Isa.Binary.encode vp in
    add "victim %d\n" (String.length enc);
    Buffer.add_string buf enc;
    Buffer.add_char buf '\n');
  let enc = Isa.Binary.encode program in
  add "program %d\n" (String.length enc);
  Buffer.add_string buf enc;
  Buffer.contents buf

let file t ~key =
  Option.map
    (fun dir ->
      Filename.concat dir (Digest.to_hex (Digest.string key) ^ ".cstbbs"))
    t.dir

(* Lookup outcomes feed the per-instance Atomics (the counters a report or
   the daemon reads) and, when [obs] traces, a cache:* span — observation
   only, never a change to what is returned. *)
let count ~obs t outcome t0 =
  let cell, name =
    match outcome with
    | `Hit -> (t.hits, "cache:hit")
    | `Miss -> (t.misses, "cache:miss")
    | `Stale -> (t.stale, "cache:stale")
  in
  Atomic.incr cell;
  if Obs.tracing obs then
    Obs.emit_span obs ~cat:"cache" ~name ~ts_ns:t0
      ~dur_ns:(Obs.Clock.elapsed_ns ~since:t0) ()

let start obs =
  if Obs.tracing obs then Obs.Clock.now_ns () else 0L

(* The one strict loader both tiers decode through, so a memory hit returns
   exactly what a disk hit on the same bytes would.  Every entry is written
   as [Persist.model_to_bytes] under a key that names [format_version] 2; a
   text-format file at such a path is stale like any other it cannot read. *)
let decode = Persist.model_of_bytes_result

(* ---- memory tier: the calling domain only ---------------------------------- *)

let recall ?(obs = Obs.off) t ~key =
  let t0 = start obs in
  (* [fetch] offers only entries that decode, so a resident entry does *)
  let resident = Hashtbl.find_opt t.entries key in
  match Option.bind resident (fun bytes -> Result.to_option (decode bytes)) with
  | Some model ->
    count ~obs t `Hit t0;
    Some model
  | None ->
    if Option.is_none t.dir then count ~obs t `Miss t0;
    None

let remember t ~key bytes =
  let size = String.length key + String.length bytes in
  if size <= memory_budget && not (Hashtbl.mem t.entries key) then begin
    Hashtbl.replace t.entries key bytes;
    Queue.push key t.order;
    t.resident <- t.resident + size;
    while t.resident > memory_budget do
      let oldest = Queue.pop t.order in
      let bytes = Hashtbl.find t.entries oldest in
      Hashtbl.remove t.entries oldest;
      t.resident <- t.resident - (String.length oldest + String.length bytes)
    done
  end

(* ---- disk tier and build: any domain ---------------------------------------- *)

let load ~obs t path =
  let t0 = start obs in
  if not (Sys.file_exists path) then begin
    count ~obs t `Miss t0;
    None
  end
  else
    let decoded =
      match Persist.read_file ~path with
      | bytes -> (
        match decode ~file:path bytes with
        | Ok model -> Some (model, bytes)
        | Error _ -> None)
      | exception (Sys_error _ | Unix.Unix_error _) -> None
    in
    match decoded with
    | Some found ->
      count ~obs t `Hit t0;
      Some found
    | None ->
      (* Unreadable, corrupt, or written by a different binary-format
         version (the loader reports an unsupported version as a parse
         error): the entry is stale, not fatal — drop it and rebuild. *)
      count ~obs t `Stale t0;
      (try Sys.remove path with Sys_error _ -> ());
      None

let fetch ?(obs = Obs.off) t ~key build =
  let path = file t ~key in
  match Option.bind path (load ~obs t) with
  | Some (model, bytes) -> (model, Some bytes)
  | None ->
    let model = build () in
    let bytes = Persist.model_to_bytes model in
    Option.iter (fun path -> Persist.write_atomic ~path bytes) path;
    (* the memory tier keeps only entries a hit can decode *)
    (model, if Result.is_ok (decode bytes) then Some bytes else None)
