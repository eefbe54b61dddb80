(* The serve daemon: strict JSON round-trips (including hostile input), the
   newline framer's chunking/overflow/resync behavior, request parsing,
   and the server core driven in-process — streamed verdicts bit-identical
   to Service.screen_prepared, queue-full backpressure, deadline expiry,
   reload not dropping queued requests, drain semantics, and the stdio
   transport end to end. *)

module SG = Scaguard
module Server = Scaguard.Server
module J = Scaguard.Json
module C = Scaguard.Config

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

(* -- JSON ------------------------------------------------------------------- *)

let rec json_equal a b =
  match (a, b) with
  | J.Null, J.Null -> true
  | J.Bool x, J.Bool y -> x = y
  | J.Num x, J.Num y -> Int64.bits_of_float x = Int64.bits_of_float y
  | J.Str x, J.Str y -> x = y
  | J.List x, J.List y ->
    List.length x = List.length y && List.for_all2 json_equal x y
  | J.Obj x, J.Obj y ->
    List.length x = List.length y
    && List.for_all2
         (fun (ka, va) (kb, vb) -> ka = kb && json_equal va vb)
         x y
  | _ -> false

let json_gen =
  let open QCheck.Gen in
  (* printable-ish strings plus hostile characters the escaper must handle *)
  let str_g =
    string_size ~gen:(oneof [ printable; return '"'; return '\\'; return '\n'; return '\x01' ]) (0 -- 12)
  in
  let base =
    oneof
      [
        return J.Null;
        map (fun b -> J.Bool b) bool;
        map (fun f -> J.Num f) (float_bound_inclusive 1000.0);
        map (fun i -> J.Num (float_of_int i)) (-1000 -- 1000);
        map (fun s -> J.Str s) str_g;
      ]
  in
  fix
    (fun self depth ->
      if depth = 0 then base
      else
        frequency
          [
            (3, base);
            (1, map (fun l -> J.List l) (list_size (0 -- 4) (self (depth - 1))));
            ( 1,
              map
                (fun kvs -> J.Obj kvs)
                (list_size (0 -- 4)
                   (pair str_g (self (depth - 1)))) );
          ])
    3

let test_json_roundtrip =
  QCheck.Test.make ~count:500 ~name:"Json.to_string |> parse round-trips"
    (QCheck.make json_gen) (fun v ->
      match J.parse (J.to_string v) with
      | Ok v' -> json_equal v v'
      | Error e -> QCheck.Test.fail_reportf "parse failed: %s" e)

let test_json_hostile () =
  let rejects s = check_bool s true (Result.is_error (J.parse s)) in
  rejects "";
  rejects "{";
  rejects "[1,2";
  rejects "{\"a\":1,}";
  rejects "nul";
  rejects "truefalse";
  rejects "1 2";
  (* trailing garbage *)
  rejects "\"ab\nc\"";
  (* raw control character *)
  rejects "\"\\ud800\"";
  (* lone high surrogate *)
  rejects "\"\\udc00 \"";
  (* lone low surrogate *)
  rejects "\"\\ud800\\u0041\"";
  (* high surrogate without low half *)
  rejects "1e999";
  (* overflows to infinity: non-finite rejected *)
  rejects "\"unterminated";
  rejects "{\"a\" 1}";
  (* 65 nested arrays exceed the depth limit *)
  rejects (String.make 65 '[' ^ String.make 65 ']');
  (* 64 levels are fine *)
  check_bool "depth 64 accepted" true
    (Result.is_ok (J.parse (String.make 64 '[' ^ String.make 64 ']')));
  (* surrogate pairs decode to 4-byte UTF-8 *)
  (match J.parse "\"\\ud83d\\ude00\"" with
  | Ok (J.Str s) -> check_int "astral code point is 4 UTF-8 bytes" 4 (String.length s)
  | _ -> Alcotest.fail "surrogate pair should parse");
  (match J.parse "\" \\n\\t\\\\ \\u0041\"" with
  | Ok (J.Str s) -> check_string "escapes decode" " \n\t\\ A" s
  | _ -> Alcotest.fail "escapes should parse")

let test_json_numbers () =
  check_string "integral without point" "42" (J.to_string (J.Num 42.0));
  check_string "negative integral" "-7" (J.to_string (J.Num (-7.0)));
  check_bool "non-finite prints null" true
    (J.to_string (J.Num Float.nan) = "null");
  (* a non-integral float survives the wire bit for bit *)
  let f = 0.5239381520119224 in
  match J.parse (J.to_string (J.Num f)) with
  | Ok (J.Num f') ->
    check_bool "float round-trips exactly" true
      (Int64.bits_of_float f = Int64.bits_of_float f')
  | _ -> Alcotest.fail "number should parse"

(* -- framer ----------------------------------------------------------------- *)

let test_framer_chunks () =
  let fr = Server.Framer.create () in
  check_bool "partial line buffers" true (Server.Framer.feed fr "ab" = []);
  check_int "buffered bytes" 2 (Server.Framer.buffered fr);
  (match Server.Framer.feed fr "c\nde\r\nf" with
  | [ Server.Framer.Line "abc"; Server.Framer.Line "de" ] -> ()
  | _ -> Alcotest.fail "expected two lines, CR stripped");
  (match Server.Framer.eof fr with
  | Some (Server.Framer.Line "f") -> ()
  | _ -> Alcotest.fail "eof flushes the last unterminated line");
  check_bool "eof is then empty" true (Server.Framer.eof fr = None)

let test_framer_overflow_resync () =
  let fr = Server.Framer.create ~max_line:8 () in
  match Server.Framer.feed fr "0123456789abc\nshort\n" with
  | [ Server.Framer.Overflow { dropped }; Server.Framer.Line "short" ] ->
    check_int "dropped counts the discarded bytes" 13 dropped
  | _ -> Alcotest.fail "expected overflow then a clean resync"

(* -- request parsing -------------------------------------------------------- *)

let test_parse_request_ok () =
  match Server.parse_request {|{"id":7,"op":"detect","targets":["a","b"]}|} with
  | Ok { id = J.Num 7.0; body = Server.Detect { targets; seed; stream }; deadline_ms = None; trace_id = None } ->
    check_bool "targets" true (targets = [ "a"; "b" ]);
    check_int "seed defaults" 2026 seed;
    check_bool "stream defaults on" true stream
  | _ -> Alcotest.fail "detect request should parse with defaults"

let test_parse_request_fields () =
  (match
     Server.parse_request
       {|{"id":"x","op":"detect","targets":["a"],"seed":9,"stream":false,"deadline_ms":50,"future":1}|}
   with
  | Ok { id = J.Str "x"; body = Server.Detect { seed = 9; stream = false; _ }; deadline_ms = Some 50; _ } ->
    ()
  | _ -> Alcotest.fail "explicit fields should parse (unknown ones ignored)");
  match Server.parse_request {|{"id":1,"op":"reload"}|} with
  | Ok { body = Server.Reload { path = None }; _ } -> ()
  | _ -> Alcotest.fail "reload without path should parse"

let test_parse_request_rejects () =
  let code line =
    match Server.parse_request line with
    | Error r -> Server.error_code_to_string r.Server.code
    | Ok _ -> "(accepted)"
  in
  check_string "bad JSON" "parse" (code "{nope}");
  check_string "non-object" "bad_request" (code "[1]");
  check_string "missing id" "bad_request" (code {|{"op":"ping"}|});
  check_string "bad id type" "bad_request" (code {|{"id":true,"op":"ping"}|});
  check_string "non-integral id" "bad_request" (code {|{"id":1.5,"op":"ping"}|});
  check_string "missing op" "bad_request" (code {|{"id":1}|});
  check_string "unknown op" "bad_request" (code {|{"id":1,"op":"launch"}|});
  check_string "empty targets" "bad_request"
    (code {|{"id":1,"op":"detect","targets":[]}|});
  check_string "ill-typed targets" "bad_request"
    (code {|{"id":1,"op":"detect","targets":[1]}|});
  check_string "negative deadline" "bad_request"
    (code {|{"id":1,"op":"ping","deadline_ms":-1}|});
  (* the id is still echoed when it parsed *)
  match Server.parse_request {|{"id":3,"op":"launch"}|} with
  | Error { Server.reject_id = J.Num 3.0; _ } -> ()
  | _ -> Alcotest.fail "reject should carry the parsed id"

(* -- server core ------------------------------------------------------------ *)

(* A miniature of the CLI's program registry: two attack PoCs and the
   benign generators, resolved exactly like `scaguard serve` does. *)
let resolve ~seed name =
  let sample =
    match name with
    | "fr-iaik" ->
      Some (Workloads.Dataset.of_spec (Workloads.Attacks.flush_reload ~style:Workloads.Attacks.Iaik ()))
    | "pp-iaik" ->
      Some (Workloads.Dataset.of_spec (Workloads.Attacks.prime_probe ~style:Workloads.Attacks.Iaik ()))
    | _ ->
      if List.mem_assoc name Workloads.Benign.families then begin
        let g = Workloads.Benign.build name (Sutil.Rng.create seed) in
        Some
          {
            Workloads.Dataset.name = g.Workloads.Benign.name;
            label = Workloads.Label.Benign;
            program = g.Workloads.Benign.program;
            init = g.Workloads.Benign.init;
            victim = None;
            settings = None;
          }
      end
      else None
  in
  match sample with
  | None ->
    Error
      (SG.Err.Invalid_config
         { field = "target"; value = name; expected = "a known program" })
  | Some s ->
    Ok
      (SG.Pipeline.job ?settings:s.Workloads.Dataset.settings
         ~init:s.Workloads.Dataset.init ?victim:s.Workloads.Dataset.victim
         ~name:s.Workloads.Dataset.name s.Workloads.Dataset.program)

let prepared_repo =
  lazy
    (let rng = Sutil.Rng.create 42 in
     let repo =
       Experiments.Common.repository ~rng
         [ Workloads.Label.Fr_family; Workloads.Label.Pp_family ]
     in
     (repo, SG.Detector.prepare repo))

let make_server ?obs ?queue_capacity ?max_line ?default_deadline_ms () =
  let _, prepared = Lazy.force prepared_repo in
  match
    Server.create ?obs ~config:C.default ~resolve ~prepared ?queue_capacity
      ?max_line ?default_deadline_ms ()
  with
  | Ok t -> t
  | Error e -> Alcotest.failf "Server.create: %s" (SG.Err.to_string e)

(* Collect emitted frames (already parsed) in order. *)
let recording_conn t =
  let frames = ref [] in
  let conn =
    Server.connect t ~emit:(fun line ->
        match J.parse line with
        | Ok v -> frames := v :: !frames
        | Error e -> Alcotest.failf "server emitted invalid JSON: %s" e)
  in
  (conn, fun () -> List.rev !frames)

let member_exn k v =
  match J.member k v with
  | Some x -> x
  | None -> Alcotest.failf "frame lacks %S: %s" k (J.to_string v)

let error_code_of_frame v =
  match J.member "code" (member_exn "error" v) with
  | Some (J.Str c) -> c
  | _ -> Alcotest.failf "malformed error frame: %s" (J.to_string v)

let test_ping_and_unknown_target () =
  let t = make_server () in
  let conn, frames = recording_conn t in
  Server.feed t conn "{\"id\":1,\"op\":\"ping\"}\n{\"id\":2,\"op\":\"detect\",\"targets\":[\"no-such\"]}\n";
  check_int "two requests queued" 2 (Server.pending t);
  check_bool "drain runs both" true (Server.drain t = `Idle);
  match frames () with
  | [ ping; err ] ->
    check_bool "ping ok" true (J.member "ok" ping = Some (J.Bool true));
    check_string "unknown target is invalid_config" "invalid_config"
      (error_code_of_frame err)
  | fs -> Alcotest.failf "expected 2 frames, got %d" (List.length fs)

(* The tentpole invariant: streamed per-target verdicts carry exactly the
   scores and families Service.screen_prepared computes for the same batch
   — same salt policy, compared bit for bit after a wire round-trip —
   whether the targets arrive in one request or one request each. *)
let test_detect_bit_identical () =
  let seed = 7 in
  let targets = [ "fr-iaik"; "quicksort"; "pp-iaik" ] in
  let t = make_server () in
  let conn, frames = recording_conn t in
  let detect id names =
    Server.feed t conn
      (Printf.sprintf
         "{\"id\":%d,\"op\":\"detect\",\"targets\":[%s],\"seed\":%d}\n" id
         (String.concat "," (List.map (Printf.sprintf "%S") names))
         seed);
    ignore (Server.drain t)
  in
  let _, prepared = Lazy.force prepared_repo in
  let config = { C.default with C.salt = string_of_int seed } in
  let jobs =
    Array.of_list
      (List.map (fun n -> Result.get_ok (resolve ~seed n)) targets)
  in
  let _, verdicts, _ =
    Result.get_ok (SG.Service.screen_prepared config prepared jobs)
  in
  let check_verdict what frame (v : SG.Detector.verdict) =
    let score =
      match member_exn "score" frame with
      | J.Num f -> f
      | _ -> Alcotest.fail "score must be a number"
    in
    check_bool (what ^ " score bit-identical") true
      (Int64.bits_of_float score = Int64.bits_of_float v.SG.Detector.best_score);
    let attack =
      match member_exn "attack" frame with J.Bool b -> b | _ -> false
    in
    check_bool (what ^ " attack flag") (v.SG.Detector.best_family <> None) attack;
    let family =
      match member_exn "family" frame with
      | J.Str f -> Some f
      | J.Null -> None
      | _ -> Alcotest.failf "%s family must be a string or null" what
    in
    check_bool (what ^ " family") true (family = v.SG.Detector.best_family)
  in
  let check_done what frame n =
    check_bool (what ^ " done frame ok") true
      (J.member "ok" frame = Some (J.Bool true));
    check_bool (what ^ " done counts targets") true
      (member_exn "targets" frame = J.Num (float_of_int n))
  in
  detect 1 targets;
  (match frames () with
  | [ v0; v1; v2; done_frame ] ->
    List.iteri
      (fun i frame -> check_verdict (Printf.sprintf "target %d" i) frame verdicts.(i))
      [ v0; v1; v2 ];
    check_done "batch" done_frame 3
  | fs -> Alcotest.failf "expected 4 frames, got %d" (List.length fs));
  List.iteri (fun i name -> detect (i + 2) [ name ]) targets;
  match frames () with
  | _ :: _ :: _ :: _ :: singles when List.length singles = 6 ->
    List.iteri
      (fun i name ->
        let what = Printf.sprintf "single %s" name in
        check_verdict what (List.nth singles (2 * i)) verdicts.(i);
        check_done what (List.nth singles ((2 * i) + 1)) 1)
      targets
  | fs -> Alcotest.failf "expected 10 frames, got %d" (List.length fs)

(* Unstreamed detect must emit the very same verdict frames. *)
let test_detect_stream_parity () =
  let run extra =
    let t = make_server () in
    let conn, frames = recording_conn t in
    Server.feed t conn
      (Printf.sprintf
         "{\"id\":1,\"op\":\"detect\",\"targets\":[\"fr-iaik\",\"binary-search\"],\"seed\":3%s}\n"
         extra);
    ignore (Server.drain t);
    List.filter (fun f -> J.member "event" f <> None) (frames ())
  in
  let streamed = run "" in
  let batched = run ",\"stream\":false" in
  check_int "same verdict count" (List.length streamed) (List.length batched);
  List.iter2
    (fun a b ->
      check_bool "verdict frames identical" true
        (J.to_string a = J.to_string b))
    streamed batched

let test_queue_full_busy () =
  let t = make_server ~queue_capacity:2 () in
  let conn, frames = recording_conn t in
  let reqs =
    String.concat ""
      (List.map (Printf.sprintf "{\"id\":%d,\"op\":\"ping\"}\n") [ 1; 2; 3; 4 ])
  in
  Server.feed t conn reqs;
  (* the two rejections are emitted from feed, before any queued work ran *)
  check_int "queue holds its capacity" 2 (Server.pending t);
  let busy_now =
    List.filter
      (fun f -> J.member "ok" f = Some (J.Bool false))
      (frames ())
  in
  check_int "overflow rejected immediately" 2 (List.length busy_now);
  List.iter
    (fun f -> check_string "busy code" "busy" (error_code_of_frame f))
    busy_now;
  ignore (Server.drain t);
  let ok_frames =
    List.filter (fun f -> J.member "ok" f = Some (J.Bool true)) (frames ())
  in
  check_int "queued requests still served" 2 (List.length ok_frames)

let test_deadline_expiry () =
  let t = make_server () in
  let conn, frames = recording_conn t in
  Server.feed t conn "{\"id\":1,\"op\":\"ping\",\"deadline_ms\":1}\n";
  Unix.sleepf 0.01;
  check_bool "one step" true (Server.step t = `Worked);
  match frames () with
  | [ f ] ->
    check_bool "expired request fails" true
      (J.member "ok" f = Some (J.Bool false));
    check_string "deadline code" "deadline" (error_code_of_frame f)
  | fs -> Alcotest.failf "expected 1 frame, got %d" (List.length fs)

let test_default_deadline () =
  let t = make_server ~default_deadline_ms:1 () in
  let conn, frames = recording_conn t in
  Server.feed t conn "{\"id\":1,\"op\":\"ping\"}\n";
  Unix.sleepf 0.01;
  ignore (Server.step t);
  match frames () with
  | [ f ] -> check_string "server default applies" "deadline" (error_code_of_frame f)
  | _ -> Alcotest.fail "expected one frame"

(* A budget too large for int64 nanoseconds means "far future", so the
   request completes; wrapping would give it a 448384 ns deadline. *)
let test_huge_deadline () =
  let t = make_server () in
  let conn, frames = recording_conn t in
  Server.feed t conn "{\"id\":1,\"op\":\"ping\",\"deadline_ms\":18446744073710}\n";
  Unix.sleepf 0.001;
  check_bool "one step" true (Server.step t = `Worked);
  match frames () with
  | [ f ] -> check_bool "request completes" true (J.member "ok" f = Some (J.Bool true))
  | fs -> Alcotest.failf "expected 1 frame, got %d" (List.length fs)

(* One resolver serves both `serve --tcp` and `client --tcp`: an unknown
   host is a typed Io error, never an escaping Not_found.  Reserved
   .invalid names fail without a lookup, so this needs no network. *)
let test_resolve_host () =
  (match Server.resolve_host "127.0.0.1" with
  | Ok a -> check_string "numeric host" "127.0.0.1" (Unix.string_of_inet_addr a)
  | Error e -> Alcotest.failf "numeric host: %s" (SG.Err.to_string e));
  List.iter
    (fun host ->
      match Server.resolve_host host with
      | Error (SG.Err.Io { path; _ }) -> check_string "error names the host" host path
      | Error e -> Alcotest.failf "%s: wrong error %s" host (SG.Err.to_string e)
      | Ok _ -> Alcotest.failf "%s resolved" host)
    [ "nosuchhost.invalid"; "A.B.INVALID"; "invalid" ]

(* reload swaps the repository between queued requests without dropping
   any: a detect queued before and one after the reload both complete, in
   order. *)
let test_reload_keeps_queue () =
  let dir = Filename.temp_file "scag_serve" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  let path = Filename.concat dir "repo.scag" in
  let repo, _ = Lazy.force prepared_repo in
  let config = { C.default with C.repo_format = C.Binary } in
  (match SG.Service.save_repository config ~path repo with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "save_repository: %s" (SG.Err.to_string e));
  let _, prepared = Lazy.force prepared_repo in
  let t =
    Result.get_ok
      (Server.create ~config:C.default ~resolve ~prepared ~repo_path:path ())
  in
  let conn, frames = recording_conn t in
  Server.feed t conn
    "{\"id\":1,\"op\":\"detect\",\"targets\":[\"fr-iaik\"]}\n{\"id\":2,\"op\":\"reload\"}\n{\"id\":3,\"op\":\"detect\",\"targets\":[\"fr-iaik\"]}\n";
  ignore (Server.drain t);
  Sys.remove path;
  Unix.rmdir dir;
  let finals =
    List.filter (fun f -> J.member "event" f = None) (frames ())
  in
  (match finals with
  | [ d1; rl; d3 ] ->
    List.iter
      (fun f ->
        check_bool
          ("frame ok: " ^ J.to_string f)
          true
          (J.member "ok" f = Some (J.Bool true)))
      [ d1; rl; d3 ];
    check_bool "reload reports models" true (member_exn "models" rl = J.Num 2.0);
    check_bool "order: detect, reload, detect" true
      (member_exn "id" d1 = J.Num 1.0
      && member_exn "id" rl = J.Num 2.0
      && member_exn "id" d3 = J.Num 3.0)
  | fs -> Alcotest.failf "expected 3 final frames, got %d" (List.length fs));
  (* both detects emitted a verdict — nothing was dropped *)
  check_int "verdicts around the reload" 2
    (List.length (List.filter (fun f -> J.member "event" f <> None) (frames ())))

(* after a reload the daemon must classify exactly like a freshly started
   one — same repository file, same config (repository index included):
   every detect frame, verdict events and finals alike, is byte-identical.
   This pins the reload path to Service.load_repository's config-aware
   index handling rather than a bare file load. *)
let test_reload_matches_fresh () =
  let dir = Filename.temp_file "scag_serve" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  let path = Filename.concat dir "repo.scag" in
  let repo, _ = Lazy.force prepared_repo in
  let config =
    { C.default with C.repo_format = C.Binary; index = C.Index_vp }
  in
  (match SG.Service.save_repository config ~path repo with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "save_repository: %s" (SG.Err.to_string e));
  let fresh_server () =
    match SG.Service.load_repository ~config ~path () with
    | Error e -> Alcotest.failf "load_repository: %s" (SG.Err.to_string e)
    | Ok (_, prepared, _) ->
      Result.get_ok
        (Server.create ~config ~resolve ~prepared ~repo_path:path ())
  in
  let detect =
    "{\"id\":7,\"op\":\"detect\",\"targets\":[\"fr-iaik\",\"pp-iaik\",\
     \"quicksort\"],\"seed\":11}\n"
  in
  let a = fresh_server () in
  let conn_a, frames_a = recording_conn a in
  Server.feed a conn_a "{\"id\":1,\"op\":\"reload\"}\n";
  ignore (Server.drain a);
  Server.feed a conn_a detect;
  ignore (Server.drain a);
  let b = fresh_server () in
  let conn_b, frames_b = recording_conn b in
  Server.feed b conn_b detect;
  ignore (Server.drain b);
  Sys.remove path;
  Unix.rmdir dir;
  let detect_frames fs =
    List.filter (fun f -> member_exn "id" f = J.Num 7.0) fs
  in
  let after_reload = detect_frames (frames_a ()) in
  let fresh = detect_frames (frames_b ()) in
  check_int "same frame count" (List.length fresh) (List.length after_reload);
  List.iter2
    (fun want got ->
      match J.member "event" want with
      | Some _ ->
        (* verdict events carry the scores: byte-identical, bits included *)
        check_string "verdict frame byte-identical" (J.to_string want)
          (J.to_string got)
      | None ->
        (* the final summary differs only in wall_ms (a timing) *)
        List.iter
          (fun k ->
            check_bool ("final frame field " ^ k) true
              (member_exn k want = member_exn k got))
          [ "ok"; "op"; "targets"; "completed"; "attacks" ])
    fresh after_reload

(* A reload of an image whose CST holds a NaN answers an error frame and
   keeps the repository it had: the detects before and after it return the
   same verdicts. *)
let test_reload_poisoned_image () =
  let dir = Filename.temp_file "scag_serve" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  let path = Filename.concat dir "repo.scag" in
  let repo, prepared = Lazy.force prepared_repo in
  let config = { C.default with C.repo_format = C.Binary } in
  (match SG.Service.save_repository config ~path repo with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "save_repository: %s" (SG.Err.to_string e));
  let float_bytes f =
    let b = Bytes.create 8 in
    Bytes.set_int64_le b 0 (Int64.bits_of_float f);
    Bytes.to_string b
  in
  let image = SG.Persist.read_file ~path in
  let entry = List.hd (List.hd repo).SG.Detector.model.SG.Model.entries in
  let target = float_bytes entry.SG.Model.cst.SG.Cst.after.Cache.State.io in
  let rec find i =
    if i + 8 > String.length image then Alcotest.fail "CST float not found"
    else if String.sub image i 8 = target then i
    else find (i + 1)
  in
  let at = find 0 in
  SG.Persist.write_atomic ~path
    (String.sub image 0 at ^ float_bytes Float.nan
    ^ String.sub image (at + 8) (String.length image - at - 8));
  let t =
    Result.get_ok (Server.create ~config:C.default ~resolve ~prepared ~repo_path:path ())
  in
  let conn, frames = recording_conn t in
  Server.feed t conn
    "{\"id\":1,\"op\":\"detect\",\"targets\":[\"fr-iaik\",\"pp-iaik\"]}\n\
     {\"id\":2,\"op\":\"reload\"}\n\
     {\"id\":3,\"op\":\"detect\",\"targets\":[\"fr-iaik\",\"pp-iaik\"]}\n";
  ignore (Server.drain t);
  Sys.remove path;
  Unix.rmdir dir;
  let with_id n = List.filter (fun f -> member_exn "id" f = J.Num n) (frames ()) in
  (match with_id 2.0 with
  | [ f ] -> check_string "reload is a parse error" "parse" (error_code_of_frame f)
  | fs -> Alcotest.failf "expected one reload frame, got %d" (List.length fs));
  let verdicts n =
    List.filter_map
      (fun f ->
        match J.member "event" f with
        | Some _ ->
          Some (List.map (fun k -> J.to_string (member_exn k f)) [ "target"; "family"; "score"; "matches" ])
        | None -> None)
      (with_id n)
  in
  check_int "two verdicts before" 2 (List.length (verdicts 1.0));
  Alcotest.(check (list (list string))) "the old repository still serves"
    (verdicts 1.0) (verdicts 3.0)

let test_reload_without_path () =
  let t = make_server () in
  let conn, frames = recording_conn t in
  Server.feed t conn "{\"id\":1,\"op\":\"reload\"}\n";
  ignore (Server.drain t);
  match frames () with
  | [ f ] -> check_string "no path to reload" "invalid_config" (error_code_of_frame f)
  | _ -> Alcotest.fail "expected one frame"

let test_shutdown_drain () =
  let t = make_server () in
  let conn, frames = recording_conn t in
  (* ping queued before shutdown still runs; the ack comes last *)
  Server.feed t conn "{\"id\":1,\"op\":\"ping\"}\n{\"id\":2,\"op\":\"shutdown\"}\n";
  check_bool "not yet draining" false (Server.draining t);
  check_bool "ping step" true (Server.step t = `Worked);
  check_bool "shutdown step" true (Server.step t = `Worked);
  check_bool "now draining" true (Server.draining t);
  (* a request arriving during the drain is refused *)
  Server.feed t conn "{\"id\":3,\"op\":\"ping\"}\n";
  check_bool "final step stops" true (Server.step t = `Stop);
  match frames () with
  | [ ping; unavailable; ack ] ->
    check_bool "ping ok" true (J.member "ok" ping = Some (J.Bool true));
    check_string "drain refusal" "unavailable" (error_code_of_frame unavailable);
    check_bool "ack is the shutdown reply" true
      (J.member "op" ack = Some (J.Str "shutdown"))
  | fs -> Alcotest.failf "expected 3 frames, got %d" (List.length fs)

let test_oversized_frame () =
  let t = make_server ~max_line:64 () in
  let conn, frames = recording_conn t in
  Server.feed t conn (String.make 100 'x' ^ "\n{\"id\":1,\"op\":\"ping\"}\n");
  ignore (Server.drain t);
  match frames () with
  | [ err; ping ] ->
    check_string "oversized is a parse error" "parse" (error_code_of_frame err);
    check_bool "id is null (nothing recovered)" true
      (J.member "id" err = Some J.Null);
    check_bool "stream resyncs: next request served" true
      (J.member "ok" ping = Some (J.Bool true))
  | fs -> Alcotest.failf "expected 2 frames, got %d" (List.length fs)

let test_stats_and_metrics_verbs () =
  let t = make_server ~obs:(SG.Obs.create ~metrics:true ()) () in
  let conn, frames = recording_conn t in
  Server.feed t conn
    "{\"id\":1,\"op\":\"detect\",\"targets\":[\"fr-iaik\"]}\n{\"id\":2,\"op\":\"stats\"}\n{\"id\":3,\"op\":\"metrics\"}\n";
  ignore (Server.drain t);
  match frames () with
  | [ _verdict; _done; stats; metrics ] ->
    let requests = member_exn "requests" stats in
    check_bool "stats counts the detect" true
      (member_exn "completed" requests = J.Num 1.0);
    check_bool "stats reports engine pairs" true
      (match member_exn "pairs" (member_exn "engine" stats) with
      | J.Num f -> f > 0.0
      | _ -> false);
    check_bool "latency quantiles present" true
      (match member_exn "p99" (member_exn "latency_ms" stats) with
      | J.Num f -> f >= 0.0
      | _ -> false);
    let body =
      match member_exn "body" metrics with
      | J.Str s -> s
      | _ -> Alcotest.fail "metrics body must be a string"
    in
    let contains sub =
      let n = String.length body and m = String.length sub in
      let rec at i = i + m <= n && (String.sub body i m = sub || at (i + 1)) in
      at 0
    in
    check_bool "exposition has the request counter" true
      (contains "scaguard_server_requests_total{op=\"detect\"} 1");
    check_bool "exposition has the queue gauge" true
      (contains "scaguard_server_queue_depth")
  | fs -> Alcotest.failf "expected 4 frames, got %d" (List.length fs)

(* The stats verb's models_built counts real builds, as
   scaguard_models_built_total does: a repeated detect is served from the
   daemon's model cache and builds nothing. *)
let test_stats_counts_builds () =
  let t = make_server ~obs:(SG.Obs.create ~metrics:true ()) () in
  let conn, frames = recording_conn t in
  let detect id = Printf.sprintf "{\"id\":%d,\"op\":\"detect\",\"targets\":[\"fr-iaik\"]}\n" id in
  Server.feed t conn
    (detect 1 ^ detect 2 ^ "{\"id\":3,\"op\":\"stats\"}\n{\"id\":4,\"op\":\"metrics\"}\n");
  ignore (Server.drain t);
  match List.rev (frames ()) with
  | metrics :: stats :: _ ->
    check_bool "stats: one model built" true
      (member_exn "models_built" (member_exn "engine" stats) = J.Num 1.0);
    check_bool "counter: one model built" true
      (match member_exn "body" metrics with
      | J.Str body ->
        List.mem "scaguard_models_built_total 1" (String.split_on_char '\n' body)
      | _ -> false)
  | fs -> Alcotest.failf "expected stats and metrics frames, got %d frames" (List.length fs)

(* The stats and metrics verbs render one accumulator, so every count they
   share agrees after a mixed session: streamed and unstreamed detects, a
   screen, an explain, a reload, an unparseable line and an unknown op.
   The metrics request comes after stats, so it counts that stats request
   too.  Without --metrics the counters are real all the same. *)
let test_stats_metrics_agree () =
  let dir = Filename.temp_file "scag_agree" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  let path = Filename.concat dir "repo.scag" in
  let repo, prepared = Lazy.force prepared_repo in
  ignore (Result.get_ok (SG.Service.save_repository C.default ~path repo));
  let t =
    Result.get_ok
      (Server.create ~config:C.default ~resolve ~prepared ~repo_path:path ())
  in
  let conn, frames = recording_conn t in
  let targets = {|"targets":["fr-iaik","pp-iaik","quicksort"]|} in
  Server.feed t conn
    (String.concat "\n"
       [
         Printf.sprintf {|{"id":1,"op":"detect",%s}|} targets;
         Printf.sprintf {|{"id":2,"op":"detect",%s}|} targets;
         Printf.sprintf {|{"id":3,"op":"detect",%s,"stream":false}|} targets;
         {|{"id":4,"op":"screen","targets":["fr-iaik","bubble-sort"]}|};
         {|{"id":5,"op":"explain","targets":["pp-iaik"]}|};
         {|{"id":6,"op":"reload"}|};
         "not json";
         {|{"id":7,"op":"frobnicate"}|};
         {|{"id":8,"op":"stats"}|};
         {|{"id":9,"op":"metrics"}|};
         "";
       ]);
  ignore (Server.drain t);
  Sys.remove path;
  Unix.rmdir dir;
  let by_id n =
    List.find (fun f -> J.member "id" f = Some (J.Num (float_of_int n))) (frames ())
  in
  let stats = by_id 8 in
  let body =
    match member_exn "body" (by_id 9) with
    | J.Str b -> String.split_on_char '\n' b
    | _ -> Alcotest.fail "metrics body must be a string"
  in
  let sample series =
    let prefix = series ^ " " in
    let n = String.length prefix in
    match
      List.find_opt
        (fun l -> String.length l > n && String.sub l 0 n = prefix)
        body
    with
    | Some l -> int_of_string (String.sub l n (String.length l - n))
    | None -> Alcotest.failf "exposition lacks %s" series
  in
  let num = function J.Num f -> int_of_float f | _ -> Alcotest.fail "not a number" in
  let obj = function J.Obj kvs -> kvs | _ -> Alcotest.fail "not an object" in
  let engine = obj (member_exn "engine" stats) in
  List.iter
    (fun (key, series) ->
      check_int (key ^ " agrees") (num (List.assoc key engine)) (sample series))
    [
      ("models_built", "scaguard_models_built_total");
      ("targets", "scaguard_engine_targets_total");
      ("pairs", "scaguard_engine_pairs_total");
      ("cells", "scaguard_engine_dp_cells_total");
      ("pairs_pruned_lb", "scaguard_engine_pairs_pruned_lb_total");
      ("pairs_abandoned", "scaguard_engine_pairs_abandoned_total");
      ("cells_saved", "scaguard_engine_dp_cells_saved_total");
      ("lb_evals", "scaguard_engine_lb_evals_total");
      ("pairs_pruned_index", "scaguard_engine_pairs_pruned_index_total");
      ("index_nodes_visited", "scaguard_engine_index_nodes_visited_total");
    ];
  check_bool "the daemon classified" true (num (List.assoc "targets" engine) > 0);
  let requests = member_exn "requests" stats in
  let by_op = obj (member_exn "by_op" requests) in
  check_int "every request executed before stats" 6 (num (member_exn "completed" requests));
  List.iter
    (fun (op, n) ->
      let own = if op = "stats" then 1 else 0 in
      check_int (op ^ " requests agree")
        (num n + own)
        (sample (Printf.sprintf "scaguard_server_requests_total{op=%S}" op)))
    by_op;
  let rejected = obj (member_exn "rejected" requests) in
  check_int "two reasons" 2 (List.length rejected);
  List.iter
    (fun (reason, n) ->
      check_int (reason ^ " rejections agree") (num n)
        (sample (Printf.sprintf "scaguard_server_rejected_total{reason=%S}" reason)))
    rejected;
  check_int "one reload folded" 1
    (sample {|scaguard_stage_seconds_count{stage="load"}|});
  check_int "streamed verdict frames" 9
    (sample "scaguard_server_streamed_verdicts_total")

(* Every frame a request produces echoes its trace_id — success frames,
   error frames, and even the immediate reject of an unknown op (the
   envelope got far enough to carry a well-typed one). *)
let test_trace_id_echo () =
  let t = make_server () in
  let conn, frames = recording_conn t in
  Server.feed t conn
    "{\"id\":1,\"op\":\"ping\",\"trace_id\":\"t-9\"}\n{\"id\":2,\"op\":\"detect\",\"targets\":[\"no-such\"],\"trace_id\":\"t-10\"}\n{\"id\":3,\"op\":\"nonsense\",\"trace_id\":\"t-11\"}\n";
  ignore (Server.drain t);
  (* the unknown-op reject is emitted from feed, before queued work runs *)
  match frames () with
  | [ bad_verb; ping; bad_target ] ->
    check_bool "reject echoes the trace id" true
      (J.member "trace_id" bad_verb = Some (J.Str "t-11"));
    check_string "reject is bad_request" "bad_request"
      (error_code_of_frame bad_verb);
    check_bool "success frame echoes" true
      (J.member "trace_id" ping = Some (J.Str "t-9"));
    check_bool "error frame echoes" true
      (J.member "trace_id" bad_target = Some (J.Str "t-10"));
    (* an untraced request gets no trace_id field at all *)
    let t2 = make_server () in
    let conn2, frames2 = recording_conn t2 in
    Server.feed t2 conn2 "{\"id\":1,\"op\":\"ping\"}\n";
    ignore (Server.drain t2);
    (match frames2 () with
    | [ bare ] ->
      check_bool "no field when untraced" true (J.member "trace_id" bare = None)
    | fs -> Alcotest.failf "expected 1 frame, got %d" (List.length fs))
  | fs -> Alcotest.failf "expected 3 frames, got %d" (List.length fs)

(* The explain verb: screen's verdict summary plus one provenance record
   per target, in target order — each the encoding of Service.explain's
   record on the same jobs, up to the two run-dependent fields (the
   duration and the worker's domain id). *)
let test_explain_verb () =
  let seed = 7 in
  let targets = [ "fr-iaik"; "quicksort" ] in
  let t = make_server () in
  let conn, frames = recording_conn t in
  Server.feed t conn
    (Printf.sprintf
       "{\"id\":1,\"op\":\"explain\",\"targets\":[%s],\"seed\":%d,\"trace_id\":\"tr-ex\"}\n"
       (String.concat "," (List.map (Printf.sprintf "%S") targets))
       seed);
  ignore (Server.drain t);
  let _, prepared = Lazy.force prepared_repo in
  let config = { C.default with C.salt = string_of_int seed } in
  let jobs =
    Array.of_list (List.map (fun n -> Result.get_ok (resolve ~seed n)) targets)
  in
  let expected =
    let obs = SG.Obs.create ~trace_id:"tr-ex" () in
    let _, _, _, records =
      Result.get_ok (SG.Service.explain ~obs config prepared jobs)
    in
    records
  in
  let masked = function
    | J.Obj kvs ->
      J.Obj (List.filter (fun (k, _) -> k <> "duration_ns" && k <> "worker") kvs)
    | j -> j
  in
  match frames () with
  | [ reply ] ->
    check_bool "ok" true (J.member "ok" reply = Some (J.Bool true));
    check_bool "frame echoes the trace id" true
      (J.member "trace_id" reply = Some (J.Str "tr-ex"));
    check_bool "targets counted" true
      (member_exn "targets" reply = J.Num 2.0);
    let records =
      match member_exn "records" reply with
      | J.List rs -> rs
      | _ -> Alcotest.fail "records must be an array"
    in
    check_int "one record per target" (List.length targets)
      (List.length records);
    List.iteri
      (fun i rj ->
        check_bool
          (Printf.sprintf "record %d is Service.explain's record %d" i i)
          true
          (json_equal (masked rj)
             (masked (SG.Provenance.to_json expected.(i)))))
      records
  | fs -> Alcotest.failf "expected 1 frame, got %d" (List.length fs)

(* -- the daemon's model cache ------------------------------------------------ *)

let temp_dir () =
  let dir = Filename.temp_file "scag_cache" "" in
  Sys.remove dir;
  dir

let rm_rf dir =
  if Sys.file_exists dir then begin
    Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
    Unix.rmdir dir
  end

(* The reference a cached daemon must reproduce: an uncached
   Service.screen_prepared on the same (target, seed) — no cache_dir, and
   no ?cache, so every model is built fresh.  Memoized: it is
   deterministic. *)
let references = Hashtbl.create 16

let reference ~seed name =
  match Hashtbl.find_opt references (name, seed) with
  | Some v -> v
  | None ->
    let _, prepared = Lazy.force prepared_repo in
    let job = Result.get_ok (resolve ~seed name) in
    let _, verdicts, _ =
      Result.get_ok (SG.Service.screen_prepared C.default prepared [| job |])
    in
    Hashtbl.add references (name, seed) verdicts.(0);
    verdicts.(0)

let family_json = function Some f -> J.Str f | None -> J.Null

(* A verdict frame carries the reference's score, family and matches, bit
   for bit after the wire round-trip. *)
let same_verdict frame (v : SG.Detector.verdict) =
  json_equal (member_exn "score" frame) (J.Num v.SG.Detector.best_score)
  && member_exn "family" frame = family_json v.SG.Detector.best_family
  && json_equal (member_exn "matches" frame)
       (J.List
          (List.map
             (fun (poc, family, score) ->
               J.Obj [ ("poc", J.Str poc); ("family", J.Str family); ("score", J.Num score) ])
             v.SG.Detector.best_matches))

let detect_line ~id ~seed ?(extra = "") names =
  Printf.sprintf "{\"id\":%d,\"op\":\"detect\",\"targets\":[%s],\"seed\":%d%s}\n" id
    (String.concat "," (List.map (Printf.sprintf "%S") names))
    seed extra

(* build-repo --save-config pins the repository's salt in the config; a
   target's model must still depend on its seed.  A daemon whose disk
   cache was warmed at seed 1 answers a seed-4 detect exactly like a daemon
   over a fresh cache directory (feistel's program is the same at both
   seeds; its input data is not). *)
let test_pinned_salt_warm_fresh () =
  let warm = temp_dir () and fresh = temp_dir () in
  let config dir = { C.default with C.salt = "2026:FR-F,PP-F"; cache_dir = Some dir } in
  let verdicts dir lines =
    let _, prepared = Lazy.force prepared_repo in
    let t = Result.get_ok (Server.create ~config:(config dir) ~resolve ~prepared ()) in
    let conn, frames = recording_conn t in
    Server.feed t conn (String.concat "" lines);
    ignore (Server.drain t);
    List.filter_map
      (fun f ->
        if member_exn "id" f = J.Num 4.0 && J.member "event" f <> None then
          Some (J.to_string f)
        else None)
      (frames ())
  in
  let targets = [ "feistel"; "edit-distance" ] in
  let seed4 = detect_line ~id:4 ~seed:4 targets in
  let warmed = verdicts warm [ detect_line ~id:1 ~seed:1 targets; seed4 ] in
  let reopened = verdicts warm [ seed4 ] in
  let cold = verdicts fresh [ seed4 ] in
  rm_rf warm;
  rm_rf fresh;
  check_int "two verdicts" 2 (List.length cold);
  Alcotest.(check (list string)) "warm daemon = fresh cache" cold warmed;
  Alcotest.(check (list string)) "reopened cache = fresh cache" cold reopened;
  List.iteri
    (fun i name ->
      match J.parse (List.nth cold i) with
      | Ok f -> check_bool (name ^ " = uncached service") true (same_verdict f (reference ~seed:4 name))
      | Error e -> Alcotest.fail e)
    targets

(* Server.create opens the daemon's cache once: a cache_dir that is a file
   is the typed config error every request used to return. *)
let test_create_bad_cache_dir () =
  let file = Filename.temp_file "scag_cache" ".file" in
  let _, prepared = Lazy.force prepared_repo in
  let created =
    Server.create ~config:{ C.default with C.cache_dir = Some file } ~resolve ~prepared ()
  in
  Sys.remove file;
  match created with
  | Error (SG.Err.Invalid_config { field; value; _ }) ->
    check_string "field" "cache_dir" field;
    check_string "value" file value
  | Error e -> Alcotest.failf "wrong error: %s" (SG.Err.to_string e)
  | Ok _ -> Alcotest.fail "a file is not a cache directory"

(* Request scripts against one daemon — repeats, reloads, mixed seeds, an
   optionally pinned salt and an optional cache directory: every verdict
   the daemon returns, from a cold build, a memory hit or a disk hit, is
   bit-identical to the uncached service's on the same (target, seed). *)
type step =
  | S_detect of string list * int * bool
  | S_screen of string list * int
  | S_explain of string list * int
  | S_reload

let script_arb =
  let open QCheck.Gen in
  let targets = list_size (1 -- 2) (oneofl [ "fr-iaik"; "feistel"; "edit-distance"; "quicksort" ]) in
  let seed = oneofl [ 1; 4 ] in
  let step =
    frequency
      [
        (4, map3 (fun ts s st -> S_detect (ts, s, st)) targets seed bool);
        (1, map2 (fun ts s -> S_screen (ts, s)) targets seed);
        (1, map2 (fun ts s -> S_explain (ts, s)) targets seed);
        (1, return S_reload);
      ]
  in
  let print (pinned, disk, steps) =
    Printf.sprintf "pinned=%b disk=%b [%s]" pinned disk
      (String.concat "; "
         (List.map
            (function
              | S_detect (ts, s, st) -> Printf.sprintf "detect %s @%d%s" (String.concat "," ts) s (if st then "" else " batch")
              | S_screen (ts, s) -> Printf.sprintf "screen %s @%d" (String.concat "," ts) s
              | S_explain (ts, s) -> Printf.sprintf "explain %s @%d" (String.concat "," ts) s
              | S_reload -> "reload")
            steps))
  in
  QCheck.make ~print (triple bool bool (list_size (2 -- 8) step))

let repo_image =
  lazy
    (let path = Filename.temp_file "scag_cache" ".scag" in
     let repo, _ = Lazy.force prepared_repo in
     ignore (Result.get_ok (SG.Service.save_repository { C.default with C.repo_format = C.Binary } ~path repo));
     at_exit (fun () -> try Sys.remove path with Sys_error _ -> ());
     path)

let prop_cached_verdicts =
  QCheck.Test.make ~name:"cached daemon verdicts = uncached service" ~count:60 script_arb
    (fun (pinned, disk, steps) ->
      let dir = temp_dir () in
      let config =
        {
          C.default with
          C.salt = (if pinned then "2026:FR-F,PP-F" else "");
          cache_dir = (if disk then Some dir else None);
        }
      in
      let _, prepared = Lazy.force prepared_repo in
      let t =
        Result.get_ok
          (Server.create ~config ~resolve ~prepared ~repo_path:(Lazy.force repo_image) ())
      in
      let conn, frames = recording_conn t in
      List.iteri
        (fun i step ->
          let names ts = String.concat "," (List.map (Printf.sprintf "%S") ts) in
          Server.feed t conn
            (match step with
            | S_detect (ts, seed, stream) ->
              detect_line ~id:i ~seed ~extra:(if stream then "" else ",\"stream\":false") ts
            | S_screen (ts, seed) ->
              Printf.sprintf "{\"id\":%d,\"op\":\"screen\",\"targets\":[%s],\"seed\":%d}\n" i (names ts) seed
            | S_explain (ts, seed) ->
              Printf.sprintf "{\"id\":%d,\"op\":\"explain\",\"targets\":[%s],\"seed\":%d}\n" i (names ts) seed
            | S_reload -> Printf.sprintf "{\"id\":%d,\"op\":\"reload\"}\n" i);
          ignore (Server.drain t))
        steps;
      let all = frames () in
      rm_rf dir;
      let of_step i = List.filter (fun f -> member_exn "id" f = J.Num (float_of_int i)) all in
      let final i = List.find_opt (fun f -> J.member "ok" f = Some (J.Bool true)) (of_step i) in
      List.for_all (fun f -> J.member "ok" f <> Some (J.Bool false)) all
      && List.for_all2
           (fun i step ->
             match step with
             | S_detect (ts, seed, _) ->
               let vs = List.filter (fun f -> J.member "event" f <> None) (of_step i) in
               List.length vs = List.length ts
               && List.for_all2
                    (fun f name -> member_exn "target" f = J.Str name && same_verdict f (reference ~seed name))
                    vs ts
             | S_screen (ts, seed) ->
               let attacks = List.filter (fun n -> SG.Detector.is_attack (reference ~seed n)) ts in
               Option.map (member_exn "attack_targets") (final i)
               = Some (J.List (List.map (fun n -> J.Str n) attacks))
             | S_explain (ts, seed) -> (
               match Option.map (member_exn "records") (final i) with
               | Some (J.List records) when List.length records = List.length ts ->
                 List.for_all2
                   (fun r name ->
                     let v = reference ~seed name in
                     let best = member_exn "best" r in
                     member_exn "family" best = family_json v.SG.Detector.best_family
                     && member_exn "score_bits" best
                        = J.Str (Int64.to_string (Int64.bits_of_float v.SG.Detector.best_score)))
                   records ts
               | _ -> false)
             | S_reload -> final i <> None)
           (List.init (List.length steps) Fun.id)
           steps)

(* -- stdio transport --------------------------------------------------------- *)

(* Drive serve_channels over OS pipes, exactly like `scaguard serve --stdio`:
   requests written up front, EOF, then the reply stream is read back and
   the detect verdict compared bit for bit with Service.screen_prepared. *)
let test_stdio_end_to_end () =
  let t = make_server () in
  let req_r, req_w = Unix.pipe ~cloexec:false () in
  let resp_r, resp_w = Unix.pipe ~cloexec:false () in
  let requests =
    "{\"id\":1,\"op\":\"detect\",\"targets\":[\"fr-iaik\"],\"seed\":5}\n{\"id\":2,\"op\":\"shutdown\"}\n"
  in
  let oc_req = Unix.out_channel_of_descr req_w in
  output_string oc_req requests;
  close_out oc_req;
  let ic = Unix.in_channel_of_descr req_r in
  let oc = Unix.out_channel_of_descr resp_w in
  (match Server.serve_channels t ~ic ~oc with
  | Ok () -> ()
  | Error e -> Alcotest.failf "serve_channels: %s" (SG.Err.to_string e));
  close_out oc;
  close_in ic;
  let ic_resp = Unix.in_channel_of_descr resp_r in
  let rec read_all acc =
    match input_line ic_resp with
    | line -> read_all (Result.get_ok (J.parse line) :: acc)
    | exception End_of_file -> List.rev acc
  in
  let frames = read_all [] in
  close_in ic_resp;
  match frames with
  | [ verdict; done_frame; ack ] ->
    let _, prepared = Lazy.force prepared_repo in
    let config = { C.default with C.salt = "5" } in
    let _, verdicts, _ =
      Result.get_ok
        (SG.Service.screen_prepared config prepared
           [| Result.get_ok (resolve ~seed:5 "fr-iaik") |])
    in
    let score =
      match member_exn "score" verdict with J.Num f -> f | _ -> 0.0
    in
    check_bool "stdio verdict matches Service.screen_prepared bits" true
      (Int64.bits_of_float score
      = Int64.bits_of_float verdicts.(0).SG.Detector.best_score);
    check_bool "done ok" true (J.member "ok" done_frame = Some (J.Bool true));
    check_bool "shutdown acked" true
      (J.member "op" ack = Some (J.Str "shutdown"))
  | fs -> Alcotest.failf "expected 3 frames, got %d" (List.length fs)

(* -- suite ------------------------------------------------------------------- *)

let () =
  Alcotest.run "server"
    [
      ( "json",
        [
          QCheck_alcotest.to_alcotest test_json_roundtrip;
          Alcotest.test_case "hostile input" `Quick test_json_hostile;
          Alcotest.test_case "number printing" `Quick test_json_numbers;
        ] );
      ( "framer",
        [
          Alcotest.test_case "chunk reassembly" `Quick test_framer_chunks;
          Alcotest.test_case "overflow + resync" `Quick
            test_framer_overflow_resync;
        ] );
      ( "parse",
        [
          Alcotest.test_case "defaults" `Quick test_parse_request_ok;
          Alcotest.test_case "explicit fields" `Quick test_parse_request_fields;
          Alcotest.test_case "rejections" `Quick test_parse_request_rejects;
        ] );
      ( "core",
        [
          Alcotest.test_case "ping + unknown target" `Quick
            test_ping_and_unknown_target;
          Alcotest.test_case "detect bit-identical to batch" `Slow
            test_detect_bit_identical;
          Alcotest.test_case "streamed = unstreamed frames" `Slow
            test_detect_stream_parity;
          Alcotest.test_case "queue-full backpressure" `Quick
            test_queue_full_busy;
          Alcotest.test_case "deadline expiry" `Quick test_deadline_expiry;
          Alcotest.test_case "server default deadline" `Quick
            test_default_deadline;
          Alcotest.test_case "huge deadline is far future" `Quick
            test_huge_deadline;
          Alcotest.test_case "unknown host is an io error" `Quick
            test_resolve_host;
          Alcotest.test_case "reload keeps queued requests" `Slow
            test_reload_keeps_queue;
          Alcotest.test_case "reload matches a fresh daemon" `Slow
            test_reload_matches_fresh;
          Alcotest.test_case "reload without a path" `Quick
            test_reload_without_path;
          Alcotest.test_case "reload of a poisoned image" `Slow
            test_reload_poisoned_image;
          Alcotest.test_case "shutdown drains then refuses" `Quick
            test_shutdown_drain;
          Alcotest.test_case "oversized frame" `Quick test_oversized_frame;
          Alcotest.test_case "stats + metrics verbs" `Slow
            test_stats_and_metrics_verbs;
          Alcotest.test_case "stats and metrics agree" `Slow
            test_stats_metrics_agree;
          Alcotest.test_case "trace-id echo" `Quick test_trace_id_echo;
          Alcotest.test_case "explain verb" `Slow test_explain_verb;
        ] );
      ( "model cache",
        [
          Alcotest.test_case "pinned salt keeps seeds apart" `Slow
            test_pinned_salt_warm_fresh;
          Alcotest.test_case "file as cache_dir is a typed error" `Quick
            test_create_bad_cache_dir;
          Alcotest.test_case "stats counts real builds" `Slow
            test_stats_counts_builds;
          QCheck_alcotest.to_alcotest prop_cached_verdicts;
        ] );
      ( "stdio",
        [
          Alcotest.test_case "end to end over pipes" `Slow
            test_stdio_end_to_end;
        ] );
    ]
