type repo_format = Text | Binary

let repo_format_to_string = function Text -> "text" | Binary -> "binary"

let repo_format_of_string = function
  | "text" -> Some Text
  | "binary" -> Some Binary
  | _ -> None

type index_mode = Index_off | Index_auto | Index_vp

let index_mode_to_string = function
  | Index_off -> "off"
  | Index_auto -> "auto"
  | Index_vp -> "vp"

let index_mode_of_string = function
  | "off" -> Some Index_off
  | "auto" -> Some Index_auto
  | "vp" -> Some Index_vp
  | _ -> None

type t = {
  threshold : float;
  alpha : float option;
  band : int option;
  prune : bool;
  max_paths : int option;
  max_len : int option;
  cst_config : Cache.Config.t;
  exec : Cpu.Exec.settings;
  domains : int option;
  cache_dir : string option;
  salt : string;
  repo_format : repo_format;
  index : index_mode;
  index_leaf : int;
  index_pivots : int;
  ensemble_tau : float;
  log_level : Log.level;
}

let default =
  {
    threshold = Detector.default_threshold;
    alpha = None;
    band = None;
    prune = true;
    max_paths = None;
    max_len = None;
    cst_config = Cache.Config.cst_probe;
    exec = Cpu.Exec.default_settings;
    domains = None;
    cache_dir = None;
    salt = "";
    repo_format = Text;
    index = Index_auto;
    index_leaf = Vpindex.default_spec.Vpindex.leaf;
    index_pivots = Vpindex.default_spec.Vpindex.pivots;
    ensemble_tau = 2.0;
    log_level = Log.Info;
  }

let seeded ?families ~seed c =
  if c.salt <> "" then c
  else
    let salt =
      match families with
      | None -> string_of_int seed
      | Some fs -> Printf.sprintf "%d:%s" seed (String.concat "," fs)
    in
    { c with salt }

(* -- field validation -------------------------------------------------------- *)

let invalid field value expected =
  Error (Err.Invalid_config { field; value; expected })

(* [x >= 0. && x <= 1.] is false for NaN, so NaN is rejected for free. *)
let check_unit_float ~default_field ?(field = "") x =
  let field = if field = "" then default_field else field in
  if x >= 0. && x <= 1. then Ok x
  else invalid field (Printf.sprintf "%g" x) "a number in [0, 1]"

let check_threshold ?field x = check_unit_float ~default_field:"threshold" ?field x
let check_alpha ?field x = check_unit_float ~default_field:"alpha" ?field x

let check_min ~default_field ~min ~expected ?(field = "") n =
  let field = if field = "" then default_field else field in
  if n >= min then Ok n else invalid field (string_of_int n) expected

let check_band ?field n =
  check_min ~default_field:"band" ~min:0 ~expected:"an integer >= 0" ?field n

let check_domains ?field n =
  check_min ~default_field:"domains" ~min:1 ~expected:"a worker count >= 1"
    ?field n

let check_max_paths ?field n =
  check_min ~default_field:"max_paths" ~min:1 ~expected:"an integer >= 1" ?field
    n

let check_max_len ?field n =
  check_min ~default_field:"max_len" ~min:1 ~expected:"an integer >= 1" ?field n

let check_index_leaf ?field n =
  check_min ~default_field:"index_leaf" ~min:2 ~expected:"a leaf size >= 2"
    ?field n

let check_index_pivots ?field n =
  check_min ~default_field:"index_pivots" ~min:1
    ~expected:"a pivot count >= 1" ?field n

(* [x >= 0. && x <= max_float] is false for NaN and infinity. *)
let check_ensemble_tau ?(field = "ensemble_tau") x =
  if x >= 0. && x <= max_float then Ok x
  else invalid field (Printf.sprintf "%g" x) "a finite screening threshold >= 0"

let ( let* ) = Result.bind

let check_opt check = function
  | None -> Ok None
  | Some v -> Result.map Option.some (check ?field:None v)

let check_cst (g : Cache.Config.t) =
  let* _ =
    check_min ~default_field:"cst_sets" ~min:1 ~expected:"a set count >= 1"
      g.Cache.Config.sets
  in
  let* _ =
    check_min ~default_field:"cst_ways" ~min:1 ~expected:"an associativity >= 1"
      g.Cache.Config.ways
  in
  let* _ =
    check_min ~default_field:"cst_line_bits" ~min:0
      ~expected:"a line-size log2 >= 0" g.Cache.Config.line_bits
  in
  Ok g

let check_exec (e : Cpu.Exec.settings) =
  let* _ =
    check_min ~default_field:"exec_spec_window" ~min:0
      ~expected:"an integer >= 0" e.Cpu.Exec.spec_window
  in
  let* _ =
    check_min ~default_field:"exec_quantum" ~min:1 ~expected:"an integer >= 1"
      e.Cpu.Exec.quantum
  in
  let* _ =
    check_min ~default_field:"exec_victim_quantum" ~min:1
      ~expected:"an integer >= 1" e.Cpu.Exec.victim_quantum
  in
  let* _ =
    check_min ~default_field:"exec_fuel" ~min:1 ~expected:"an integer >= 1"
      e.Cpu.Exec.fuel
  in
  match e.Cpu.Exec.protected_range with
  | Some (lo, hi) when lo < 0 || hi < lo ->
    invalid "exec_protected_range"
      (Printf.sprintf "%d:%d" lo hi)
      "a range lo:hi with 0 <= lo <= hi"
  | _ -> Ok e

let check_line ~field = function
  | s when String.contains s '\n' ->
    invalid field (String.escaped s) "a single-line value"
  | s -> Ok s

let validate c =
  let* _ = check_threshold c.threshold in
  let* _ = check_opt check_alpha c.alpha in
  let* _ = check_opt check_band c.band in
  let* _ = check_opt check_max_paths c.max_paths in
  let* _ = check_opt check_max_len c.max_len in
  let* _ = check_opt check_domains c.domains in
  let* _ = check_cst c.cst_config in
  let* _ = check_exec c.exec in
  let* _ =
    match c.cache_dir with
    | None -> Ok None
    | Some d -> Result.map Option.some (check_line ~field:"cache_dir" d)
  in
  let* _ = check_line ~field:"salt" c.salt in
  let* _ = check_index_leaf c.index_leaf in
  let* _ = check_index_pivots c.index_pivots in
  let* _ = check_ensemble_tau c.ensemble_tau in
  Ok c

(* -- persistence ------------------------------------------------------------- *)

(* key=value lines; optional fields are simply omitted when [None], so no
   sentinel value can collide with a legitimate salt or directory name.
   Floats print with %.17g, which float_of_string reads back exactly. *)
let to_string c =
  let b = Buffer.create 256 in
  let add fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  add "scaguard-config 1\n";
  add "threshold=%.17g\n" c.threshold;
  (match c.alpha with Some a -> add "alpha=%.17g\n" a | None -> ());
  (match c.band with Some n -> add "band=%d\n" n | None -> ());
  add "prune=%b\n" c.prune;
  (match c.max_paths with Some n -> add "max_paths=%d\n" n | None -> ());
  (match c.max_len with Some n -> add "max_len=%d\n" n | None -> ());
  add "cst_sets=%d\n" c.cst_config.Cache.Config.sets;
  add "cst_ways=%d\n" c.cst_config.Cache.Config.ways;
  add "cst_line_bits=%d\n" c.cst_config.Cache.Config.line_bits;
  add "exec_spec_window=%d\n" c.exec.Cpu.Exec.spec_window;
  add "exec_quantum=%d\n" c.exec.Cpu.Exec.quantum;
  add "exec_victim_quantum=%d\n" c.exec.Cpu.Exec.victim_quantum;
  add "exec_fuel=%d\n" c.exec.Cpu.Exec.fuel;
  (match c.exec.Cpu.Exec.protected_range with
  | Some (lo, hi) -> add "exec_protected_range=%d:%d\n" lo hi
  | None -> ());
  (match c.domains with Some n -> add "domains=%d\n" n | None -> ());
  (match c.cache_dir with Some d -> add "cache_dir=%s\n" d | None -> ());
  add "salt=%s\n" c.salt;
  add "repo_format=%s\n" (repo_format_to_string c.repo_format);
  add "index=%s\n" (index_mode_to_string c.index);
  add "index_leaf=%d\n" c.index_leaf;
  add "index_pivots=%d\n" c.index_pivots;
  add "ensemble_tau=%.17g\n" c.ensemble_tau;
  add "log_level=%s\n" (Log.level_to_string c.log_level);
  Buffer.contents b

let of_string s =
  let exception Stop of int * string in
  let stopf ln fmt = Printf.ksprintf (fun msg -> raise (Stop (ln, msg))) fmt in
  let int_v ln v =
    match int_of_string_opt v with
    | Some n -> n
    | None -> stopf ln "bad integer %S" v
  in
  let float_v ln v =
    match float_of_string_opt v with
    | Some f -> f
    | None -> stopf ln "bad number %S" v
  in
  let bool_v ln v =
    match bool_of_string_opt v with
    | Some b -> b
    | None -> stopf ln "bad boolean %S (use true/false)" v
  in
  let range_v ln v =
    match String.index_opt v ':' with
    | Some i ->
      ( int_v ln (String.sub v 0 i),
        int_v ln (String.sub v (i + 1) (String.length v - i - 1)) )
    | None -> stopf ln "bad range %S (use lo:hi)" v
  in
  match String.split_on_char '\n' s with
  | header :: rest when String.trim header = "scaguard-config 1" -> (
    try
      let c = ref default in
      List.iteri
        (fun i line ->
          let ln = i + 2 in
          if line = "" || line.[0] = '#' then ()
          else
            match String.index_opt line '=' with
            | None -> stopf ln "expected key=value, got %S" line
            | Some eq ->
              let key = String.sub line 0 eq in
              let v = String.sub line (eq + 1) (String.length line - eq - 1) in
              let cur = !c in
              let cst = cur.cst_config and exec = cur.exec in
              c :=
                (match key with
                | "threshold" -> { cur with threshold = float_v ln v }
                | "alpha" -> { cur with alpha = Some (float_v ln v) }
                | "band" -> { cur with band = Some (int_v ln v) }
                | "prune" -> { cur with prune = bool_v ln v }
                | "max_paths" -> { cur with max_paths = Some (int_v ln v) }
                | "max_len" -> { cur with max_len = Some (int_v ln v) }
                | "cst_sets" ->
                  {
                    cur with
                    cst_config = { cst with Cache.Config.sets = int_v ln v };
                  }
                | "cst_ways" ->
                  {
                    cur with
                    cst_config = { cst with Cache.Config.ways = int_v ln v };
                  }
                | "cst_line_bits" ->
                  {
                    cur with
                    cst_config = { cst with Cache.Config.line_bits = int_v ln v };
                  }
                | "exec_spec_window" ->
                  { cur with exec = { exec with Cpu.Exec.spec_window = int_v ln v } }
                | "exec_quantum" ->
                  { cur with exec = { exec with Cpu.Exec.quantum = int_v ln v } }
                | "exec_victim_quantum" ->
                  {
                    cur with
                    exec = { exec with Cpu.Exec.victim_quantum = int_v ln v };
                  }
                | "exec_fuel" ->
                  { cur with exec = { exec with Cpu.Exec.fuel = int_v ln v } }
                | "exec_protected_range" ->
                  {
                    cur with
                    exec =
                      {
                        exec with
                        Cpu.Exec.protected_range = Some (range_v ln v);
                      };
                  }
                | "domains" -> { cur with domains = Some (int_v ln v) }
                | "cache_dir" -> { cur with cache_dir = Some v }
                | "salt" -> { cur with salt = v }
                | "repo_format" -> (
                  match repo_format_of_string v with
                  | Some f -> { cur with repo_format = f }
                  | None ->
                    stopf ln "bad repo_format %S (use text or binary)" v)
                | "index" -> (
                  match index_mode_of_string v with
                  | Some m -> { cur with index = m }
                  | None -> stopf ln "bad index %S (use off, auto or vp)" v)
                | "index_leaf" -> { cur with index_leaf = int_v ln v }
                | "index_pivots" -> { cur with index_pivots = int_v ln v }
                | "ensemble_tau" -> { cur with ensemble_tau = float_v ln v }
                | "log_level" -> (
                  match Log.level_of_string v with
                  | Some l -> { cur with log_level = l }
                  | None ->
                    stopf ln
                      "bad log_level %S (use debug, info, warn or error)" v)
                | _ -> stopf ln "unknown key %S" key))
        rest;
      validate !c
    with Stop (line, msg) ->
      Error (Err.Parse { file = None; line = Some line; msg }))
  | header :: _ ->
    Error
      (Err.Parse
         {
           file = None;
           line = Some 1;
           msg =
             Printf.sprintf "bad config magic %S (expected \"scaguard-config 1\")"
               header;
         })
  | [] -> Error (Err.Parse { file = None; line = Some 1; msg = "empty config" })

let save ~path c =
  match Persist.write_atomic ~path (to_string c) with
  | () -> Ok ()
  | exception Sys_error msg -> Error (Err.Io { path; msg })

let load ~path =
  match Persist.read_file ~path with
  | exception Sys_error msg -> Error (Err.Io { path; msg })
  | s -> (
    match of_string s with
    | Error (Err.Parse p) -> Error (Err.Parse { p with file = Some path })
    | r -> r)

let pp ppf c = Format.pp_print_string ppf (to_string c)
