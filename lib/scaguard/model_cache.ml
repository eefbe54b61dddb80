(* Content-addressed store: one model per file, file name = hex digest of
   every input that determines the model's bytes.  There is no separate
   invalidation protocol — change an ingredient and the key changes, so the
   old entry is simply never looked up again. *)

(* Bump whenever the persisted format or the modeling pipeline changes in a
   way that alters model bytes for identical inputs.  2: entries moved from
   the text format to the SCAGBIN binary encoding. *)
let format_version = 2

type t = {
  dir : string;
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

let create ~dir =
  mkdir_p dir;
  {
    dir;
    hits = Atomic.make 0;
    misses = Atomic.make 0;
    stale = Atomic.make 0;
  }

let create_result ~dir =
  match create ~dir with
  | t -> Ok t
  | exception Invalid_argument _ ->
    Error
      (Err.Invalid_config
         {
           field = "cache_dir";
           value = dir;
           expected = "a directory (or a path where one can be created)";
         })
  | exception Unix.Unix_error (e, _, _) ->
    Error (Err.Io { path = dir; msg = Unix.error_message e })
  | exception Sys_error msg -> Error (Err.Io { path = dir; msg })

let dir t = t.dir
let hits t = Atomic.get t.hits
let misses t = Atomic.get t.misses
let stale t = Atomic.get t.stale

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
     [salt] (the CLI uses the workload seed). *)
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
  Digest.to_hex (Digest.string (Buffer.contents buf))

let path t ~key = Filename.concat t.dir (key ^ ".cstbbs")

(* Lookup outcomes feed the per-instance Atomics (the existing stats API)
   and, when [obs] observes, the process registry and a cache:* span —
   observation only, never a change to what is returned. *)
let observed ~obs ~outcome ~counter t0 =
  if Obs.metrics obs then Obs.Registry.incr counter;
  if Obs.tracing obs then
    Obs.emit_span obs ~cat:"cache" ~name:("cache:" ^ outcome) ~ts_ns:t0
      ~dur_ns:(Obs.Clock.elapsed_ns ~since:t0) ()

let find ?(obs = Obs.off) t ~key =
  let observing = Obs.tracing obs || Obs.metrics obs in
  let t0 = if observing then Obs.Clock.now_ns () else 0L in
  let file = path t ~key in
  if not (Sys.file_exists file) then begin
    Atomic.incr t.misses;
    if observing then observed ~obs ~outcome:"miss" ~counter:Obs.Metrics.cache_misses_total t0;
    None
  end
  else
    match Persist.load_model_result ~path:file with
    | Ok model ->
      Atomic.incr t.hits;
      if observing then observed ~obs ~outcome:"hit" ~counter:Obs.Metrics.cache_hits_total t0;
      Some model
    | Error _ ->
      (* Unreadable, corrupt, or written by a different binary-format
         version (the loader reports an unsupported version as a parse
         error): the entry is stale, not fatal — drop it and rebuild. *)
      Atomic.incr t.stale;
      (try Sys.remove file with Sys_error _ -> ());
      if observing then observed ~obs ~outcome:"stale" ~counter:Obs.Metrics.cache_stale_total t0;
      None

let store t ~key model =
  Persist.write_atomic ~path:(path t ~key) (Persist.model_to_bytes model)

let find_or_build ?obs t ~key build =
  match find ?obs t ~key with
  | Some model -> model
  | None ->
    let model = build () in
    store t ~key model;
    model
