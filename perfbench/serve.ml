(* serve-mixed: an in-process daemon ([Server.connect]/[feed]/[drain],
   no sockets) over a 68-model repository saved as a SCAGBIN image and
   loaded back, driven by one closed-loop client: mostly single-target
   detects, half of them repeats, plus a few screens, explains, stats,
   pings and reloads.  It is the only workload that exercises the protocol,
   live reloads, provenance capture, the repository index and repeated
   work.  A closed loop, because the daemon runs one request at a time in
   arrival order. *)

module S = Scaguard
module J = Scaguard.Json
open Meter

(* The repository image lives in the checkout, in a directory the
   benchmark owns; it is removed when the run ends. *)
let work_dir = ".perfbench-work"

let image_path () =
  (try Unix.mkdir work_dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let path = Filename.concat work_dir (Printf.sprintf "serve-%d.scagbin" (Unix.getpid ())) in
  at_exit (fun () ->
      (try Sys.remove path with Sys_error _ -> ());
      try Unix.rmdir work_dir with Unix.Unix_error _ -> ());
  path

let get what = function
  | Ok v -> v
  | Error e -> failwith (what ^ ": " ^ S.Err.to_string e)

let frame_of ~seed id (r : Gen.request) =
  let names ts = J.List (List.map (fun t -> J.Str t) ts) in
  let targets op ts = [ ("op", J.Str op); ("targets", names ts); ("seed", J.Num (float seed)) ] in
  let body =
    match r with
    | Gen.Detect t -> targets "detect" [ t ]
    | Gen.Screen ts -> targets "screen" ts
    | Gen.Explain ts -> targets "explain" ts
    | Gen.Stats -> [ ("op", J.Str "stats") ]
    | Gen.Ping -> [ ("op", J.Str "ping") ]
    | Gen.Reload -> [ ("op", J.Str "reload") ]
  in
  J.to_string (J.Obj (("id", J.Num (float id)) :: body)) ^ "\n"

let member k o what =
  match J.member k o with Some v -> v | None -> mismatch "serve-mixed: %s frame lacks %S" what k

let num k o what = match member k o what with J.Num x -> x | _ -> mismatch "serve-mixed: %s: %S is not a number" what k
let str k o what = match member k o what with J.Str s -> s | _ -> mismatch "serve-mixed: %s: %S is not a string" what k

(* A verdict frame back as a verdict: the scores went through the wire's
   %.17g rendering, so equality below is also a wire round-trip check. *)
let verdict_of_frame f : S.Detector.verdict =
  let what = "verdict" in
  {
    S.Detector.best_score = num "score" f what;
    best_family = (match member "family" f what with J.Str s -> Some s | _ -> None);
    best_matches =
      (match member "matches" f what with
      | J.List l -> List.map (fun o -> (str "poc" o what, str "family" o what, num "score" o what)) l
      | _ -> mismatch "serve-mixed: verdict matches is not a list");
  }

let engine_counts stats =
  let e = member "engine" stats "stats" in
  let i k = int_of_float (num k e "stats engine") in
  {
    pairs = i "pairs";
    cells = i "cells";
    cells_saved = i "cells_saved";
    pruned_lb = i "pairs_pruned_lb";
    abandoned = i "pairs_abandoned";
    lb_evals = i "lb_evals";
    nodes_visited = i "index_nodes_visited";
    pruned_index = i "pairs_pruned_index";
  }

let sub_counts a b =
  {
    pairs = a.pairs - b.pairs;
    cells = a.cells - b.cells;
    cells_saved = a.cells_saved - b.cells_saved;
    pruned_lb = a.pruned_lb - b.pruned_lb;
    abandoned = a.abandoned - b.abandoned;
    lb_evals = a.lb_evals - b.lb_evals;
    nodes_visited = a.nodes_visited - b.nodes_visited;
    pruned_index = a.pruned_index - b.pruned_index;
  }

let run ~seed ~seconds ~trace =
  let inp = Gen.serve (Sutil.Rng.create seed) in
  (* The index is forced ([--index vp]): the default policy would skip it
     below 256 models, and a repository that large made the workload's
     figures swing with the host (see README.md). *)
  let config = { Gen.config with S.Config.repo_format = S.Config.Binary; index = S.Config.Index_vp } in
  (* the daemon's salt policy: the request seed becomes the salt *)
  let salted = { config with S.Config.salt = string_of_int seed } in
  let script = inp.Gen.script in
  let nreq = Array.length script in
  let detect_ops =
    Array.of_list (List.filter (fun j -> match script.(j) with Gen.Detect _ -> true | _ -> false) (List.init nreq Fun.id))
  in
  let n = Array.length detect_ops in
  let op_of_request = Array.make nreq (-1) in
  Array.iteri (fun k j -> op_of_request.(j) <- k) detect_ops;
  let verdicts_per_pass =
    Array.fold_left
      (fun acc r ->
        acc + match r with Gen.Detect _ -> 1 | Gen.Screen ts | Gen.Explain ts -> List.length ts | _ -> 0)
      0 script
  in
  let path = image_path () in
  (* the spans of callbacks need to know which request and phase they
     belong to *)
  let cur_op = ref 0 and cur_pass = ref 0 and phase = ref "feed" and tracing = ref false in
  let frames = ref [] in
  let resolve ~seed:_ name =
    let find () =
      match Hashtbl.find_opt inp.Gen.pool name with
      | Some t -> Ok t.Gen.job
      | None -> Error (S.Err.Invalid_config { field = "target"; value = name; expected = "a generated target" })
    in
    if !tracing then span ~op:!cur_op ~pass:!cur_pass ~parent:!phase "resolve" find else find ()
  in
  let emit line =
    if !tracing then span ~op:!cur_op ~pass:!cur_pass ~parent:!phase "emit" (fun () -> frames := line :: !frames)
    else frames := line :: !frames
  in
  let create prep = get "server" (S.Server.create ~config ~resolve ~prepared:prep ~repo_path:path ()) in
  (* set-up: build the models, save the image, load it back, start the
     server *)
  let save_ms = ref [] and load_ms = ref [] in
  let build_repo () =
    let models = Gen.build_models (Array.map snd inp.Gen.repo_jobs) in
    let repo =
      Array.to_list (Array.mapi (fun i (family, _) -> { S.Detector.family; model = models.(i) }) inp.Gen.repo_jobs)
    in
    let _, s_ms = timed (fun () -> get "save" (S.Service.save_repository config ~path repo)) in
    let (loaded, prep, _), l_ms = timed (fun () -> get "load" (S.Service.load_repository ~config ~path ())) in
    ignore (create prep);
    save_ms := s_ms :: !save_ms;
    load_ms := l_ms :: !load_ms;
    (loaded, prep)
  in
  (* every set-up must save the same image: the reloads read it *)
  let image = ref "" in
  let (repo, prep), setup_again, setup_s =
    setup ~per_pass:1 build_repo ~again:(fun _ _ ->
        if Digest.file path <> !image then mismatch "serve-mixed: set-ups saved different images")
  in
  image := Digest.file path;
  let image_bytes = (Unix.stat path).Unix.st_size in
  if S.Detector.prepared_index prep = None then mismatch "serve-mixed: the image carries no index";
  (* reference verdicts, one service call per distinct target *)
  let refs = Hashtbl.create 128 in
  let reference_of name =
    match Hashtbl.find_opt refs name with
    | Some v -> v
    | None ->
      let job = (Hashtbl.find inp.Gen.pool name).Gen.job in
      let _, vs, _ = get "reference" (S.Service.screen_prepared salted prep [| job |]) in
      Hashtbl.replace refs name vs.(0);
      vs.(0)
  in
  let replies = Array.make nreq [] in
  let attempted = ref 0 and failed = ref 0 and frames_seen = ref 0 and errors_seen = ref 0 in
  let check _pass =
    frames_seen := 0;
    errors_seen := 0;
    Array.iteri
      (fun j lines ->
        incr attempted;
        let fs =
          List.map
            (fun l -> match J.parse l with Ok f -> f | Error e -> mismatch "serve-mixed: invalid frame: %s" e)
            lines
        in
        frames_seen := !frames_seen + List.length fs;
        let errs = List.filter (fun f -> J.member "ok" f = Some (J.Bool false)) fs in
        errors_seen := !errors_seen + List.length errs;
        let final op = List.find_opt (fun f -> J.member "ok" f = Some (J.Bool true) && J.member "op" f = Some (J.Str op)) fs in
        let ok =
          errs = []
          &&
          match script.(j) with
          | Gen.Detect t -> (
            match List.filter (fun f -> J.member "event" f = Some (J.Str "verdict")) fs with
            | [ f ] ->
              expect_same ~what:(Printf.sprintf "serve-mixed request %d (%s)" j t) ~expected:(reference_of t)
                (observed (verdict_of_frame f));
              final "detect" <> None
            | _ -> false)
          | Gen.Screen ts -> (
            match final "screen" with
            | None -> false
            | Some f ->
              let expected = List.filter (fun t -> S.Detector.is_attack (reference_of t)) ts in
              if member "attack_targets" f "screen" <> J.List (List.map (fun t -> J.Str t) expected) then
                mismatch "serve-mixed request %d: screen attack targets differ from the service's" j;
              true)
          | Gen.Explain ts -> (
            match final "explain" with
            | None -> false
            | Some f ->
              let attacks = List.length (List.filter (fun t -> S.Detector.is_attack (reference_of t)) ts) in
              if int_of_float (num "attacks" f "explain") <> attacks then
                mismatch "serve-mixed request %d: explain attack count differs from the service's" j;
              (match member "records" f "explain" with
              | J.List l when List.length l = List.length ts -> ()
              | _ -> mismatch "serve-mixed request %d: explain must carry one record per target" j);
              true)
          | Gen.Stats -> final "stats" <> None
          | Gen.Ping -> final "ping" <> None
          | Gen.Reload -> final "reload" <> None
        in
        if not ok then incr failed)
      replies
  in
  let send server conn ~pass j =
    let line = frame_of ~seed j script.(j) in
    frames := [];
    cur_op := j;
    cur_pass := pass;
    let t0 = now () in
    if !tracing then
      root ~op:j ~pass (fun () ->
          phase := "feed";
          span ~op:j ~pass "feed" (fun () -> S.Server.feed server conn line);
          phase := "drain";
          ignore (span ~op:j ~pass "drain" (fun () -> S.Server.drain server)))
    else begin
      S.Server.feed server conn line;
      ignore (S.Server.drain server)
    end;
    let ms = ms_since t0 in
    replies.(j) <- List.rev !frames;
    ms
  in
  (* engine counters of each traced request, from a stats probe sent after
     it (outside its timing) *)
  let req_counts = Array.make nreq zero_counts in
  let reload_ms = ref [] in
  let stats_probe server conn =
    frames := [];
    S.Server.feed server conn "{\"id\":\"probe\",\"op\":\"stats\"}\n";
    ignore (S.Server.drain server);
    match !frames with
    | [ l ] -> engine_counts (match J.parse l with Ok f -> f | Error e -> mismatch "serve-mixed: stats: %s" e)
    | _ -> mismatch "serve-mixed: stats probe got no single frame"
  in
  let pass ~traced p record =
    tracing := false;
    let server = create prep in
    let conn = S.Server.connect server ~emit in
    let last = ref (if traced then stats_probe server conn else zero_counts) in
    for j = 0 to nreq - 1 do
      tracing := traced;
      let ms = send server conn ~pass:p j in
      tracing := false;
      if op_of_request.(j) >= 0 then record op_of_request.(j) ms;
      if traced then begin
        let c = stats_probe server conn in
        req_counts.(j) <- sub_counts c !last;
        last := c;
        if script.(j) = Gen.Reload then reload_ms := ms :: !reload_ms
      end
    done
  in
  let untraced p record = pass ~traced:false p record and traced p record = pass ~traced:true p record in
  (* the oracle on a seeded sample of distinct detect targets *)
  let reference_check () =
    let names =
      List.sort_uniq compare
        (Array.to_list (Array.map (fun j -> match script.(j) with Gen.Detect t -> t | _ -> "") detect_ops))
    in
    let names = Array.of_list names in
    List.iter
      (fun i ->
        let t = names.(i) in
        let models, _ = get "build" (S.Service.build salted [| (Hashtbl.find inp.Gen.pool t).Gen.job |]) in
        expect_same ~what:(Printf.sprintf "serve-mixed target %s vs unpruned scan" t)
          ~expected:(reference repo models.(0)) (reference_of t))
      (sample ~seed ~n:12 (Array.length names))
  in
  (* over the distinct targets a pass classifies, so a repeated target
     counts once *)
  let f1 () =
    f1
      (List.map
         (fun (t, v) -> (S.Detector.is_attack v, (Hashtbl.find inp.Gen.pool t).Gen.attack))
         (List.of_seq (Hashtbl.to_seq refs)))
  in
  if not trace then begin
    let p = run_passes ~seconds ~ops:n ~check ~between:setup_again untraced in
    reference_check ();
    let meds = op_medians p in
    Printf.printf "serve-mixed: %d requests (%d detect) x %d passes, %d-model repository, %d verdicts per pass\n"
      nreq n (passes_run p) (List.length repo) verdicts_per_pass;
    ( [
        m "setup_s" "s" (setup_s ());
        m "targets_per_s" "1/s" (float verdicts_per_pass /. (median p.pass_ms /. 1e3));
        m "latency_p50_ms" "ms" (median meds);
        m "latency_p90_ms" "ms" (p90 meds);
        m "detect_f1" "ratio" (f1 ());
      ],
      !attempted,
      !failed )
  end
  else begin
    (* the unit costs' target models: 16 of the pool's targets *)
    let targets =
      List.sort compare (List.of_seq (Hashtbl.to_seq_keys inp.Gen.pool))
      |> List.filteri (fun i _ -> i < 16)
      |> List.map (fun t -> (Hashtbl.find inp.Gen.pool t).Gen.job)
      |> Array.of_list |> S.Service.build salted |> get "build" |> fst
      |> Array.map S.Dtw.summarize
    in
    let costs = unit_costs () in
    let pairs = pair_sample ~seed ~targets ~repo:(S.Detector.prepared_summaries prep) in
    let after_traced () = time_unit_costs costs pairs in
    let u, t = run_alternating ~seconds ~ops:n ~check ~between:setup_again ~after_traced ~untraced ~traced () in
    reference_check ();
    let per = span_times () and ops = Array.to_list detect_ops in
    let unit = unit_medians costs in
    let ns_cell, ns_lb, _ = unit in
    let total = List.fold_left (fun acc j -> add_counts acc req_counts.(j)) zero_counts ops in
    let per_op x = float x /. float n in
    let dp = per_op total.cells *. ns_cell /. 1e6 and lb = per_op total.lb_evals *. ns_lb /. 1e6 in
    let op_ms = per_op_ms per ~ops ~total:true "op" in
    let feed = per_op_ms per ~ops "feed" and drain = per_op_ms per ~ops ~total:true "drain" in
    let drain_self = per_op_ms per ~ops "drain" in
    let rows =
      [
        ("server.feed", feed);
        ("resolve callback", per_op_ms per ~ops "resolve");
        ("emit callback", per_op_ms per ~ops "emit");
        ("dtw dp (cells x ns/cell)", dp);
        ("dtw lower bound (evals x ns/eval)", lb);
        ("client glue (op - feed - drain)", per_op_ms per ~ops "op");
      ]
    in
    (* the drain's own time after the DTW estimates: execution, modeling,
       the rest of classification, and the service and server code *)
    let remainder = drain_self -. dp -. lb in
    where_time_goes ~title:"serve-mixed detect" ~op_ms ~remainder rows;
    Printf.printf "serve-mixed reload: %.3f ms median over %d reloads\n" (median !reload_ms) (List.length !reload_ms);
    (* the summaries and index the image carries, recomputed from the
       loaded models: what a load would cost without them *)
    let rebuilds =
      List.init 3 (fun _ ->
          let prep, prepare_ms = timed (fun () -> S.Detector.prepare repo) in
          let _, build_ms =
            timed (fun () ->
                Option.bind (S.Service.spec_of_config config) (fun spec ->
                    S.Vpindex.build spec (S.Detector.prepared_summaries prep)))
          in
          (prepare_ms, build_ms))
    in
    Printf.printf "serve-mixed traced: %d untraced + %d traced passes\n" (passes_run u) (passes_run t);
    ( [
        m "persist.save_ms" "ms" (median !save_ms);
        m "persist.load_ms" "ms" (median !load_ms);
        m "persist.image_bytes" "bytes" (float image_bytes);
        m "detector.prepare_ms" "ms" (median (List.map fst rebuilds));
        m "vpindex.build_ms" "ms" (median (List.map snd rebuilds));
        m "server.feed_ms" "ms" feed;
        m "server.drain_ms" "ms" drain;
        m "server.frames" "count" (float !frames_seen);
        m "server.error_frames" "count" (float !errors_seen);
        m "service.unattributed_ms" "ms" remainder;
        m "trace.overhead_ratio" "ratio" (median t.pass_ms /. median u.pass_ms);
      ]
      @ dtw_metrics ~classify_ms:(dp +. lb) ~unit total
      @ gc_metrics ~ops:n u,
      !attempted,
      !failed )
  end
