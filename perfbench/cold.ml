(* cold-screen: 256 never-seen programs, each screened by its own
   [Service.screen_prepared] call (the call the daemon makes per target)
   against the paper's four-PoC repository.  Simulation and program
   analysis dominate; DTW work is small. *)

module S = Scaguard
open Meter

let layers = [ "exec"; "cfg"; "relevant"; "attack_graph"; "model"; "detector" ]

type counts = {
  mutable instructions : int;
  mutable blocks : int;
  mutable accesses : int;
  mutable step1 : int;
  mutable kept : int;
  mutable nodes : int;
  mutable entries : int;
  mutable dtw : dtw_counts;
}

let new_counts () =
  { instructions = 0; blocks = 0; accesses = 0; step1 = 0; kept = 0; nodes = 0; entries = 0;
    dtw = zero_counts }

(* One target through the layers' public functions, in the order the
   service runs them, each call inside its own span. *)
let replay ~op ~pass ~counts prep (job : S.Pipeline.job) =
  let c = Gen.config in
  let span l f = span ~op ~pass l f in
  let settings = Option.value job.S.Pipeline.settings ~default:c.S.Config.exec in
  let program = job.S.Pipeline.program in
  let exec =
    span "exec" (fun () ->
        Cpu.Exec.run ~settings ?init:job.S.Pipeline.init ?victim:job.S.Pipeline.victim program)
  in
  let cfg = span "cfg" (fun () -> Cfg.Graph.of_program program) in
  let info = span "relevant" (fun () -> S.Relevant.identify cfg exec.Cpu.Exec.collector) in
  let ag =
    span "attack_graph" (fun () ->
        S.Attack_graph.build ?max_paths:c.S.Config.max_paths ?max_len:c.S.Config.max_len cfg
          ~hpc:info.S.Relevant.hpc_of_block ~relevant:info.S.Relevant.relevant)
  in
  let model =
    span "model" (fun () ->
        S.Model.build ~cst_config:c.S.Config.cst_config ~measurer:(S.Cst.measurer ())
          ~name:job.S.Pipeline.job_name info ag)
  in
  let ws = S.Dtw.workspace () and ixc = S.Vpindex.counters () in
  let verdict =
    span "detector" (fun () ->
        S.Detector.classify_prepared ~threshold:c.S.Config.threshold ?alpha:c.S.Config.alpha
          ?band:c.S.Config.band ~prune:c.S.Config.prune ~ws ~ixc prep model)
  in
  counts.instructions <- counts.instructions + exec.Cpu.Exec.instructions;
  counts.blocks <- counts.blocks + Cfg.Graph.n_blocks cfg;
  counts.accesses <-
    Array.fold_left (fun n l -> n + List.length l) counts.accesses info.S.Relevant.accesses_of_block;
  counts.step1 <- counts.step1 + List.length info.S.Relevant.step1;
  counts.kept <- counts.kept + List.length info.S.Relevant.relevant;
  counts.nodes <- counts.nodes + List.length ag.S.Attack_graph.nodes;
  counts.entries <- counts.entries + S.Model.length model;
  counts.dtw <-
    add_counts counts.dtw
      {
        pairs = S.Dtw.pairs_scored ws + ixc.S.Vpindex.pairs_pruned_index;
        cells = S.Dtw.cells_computed ws;
        cells_saved = S.Dtw.cells_saved ws;
        pruned_lb = S.Dtw.pairs_pruned_lb ws;
        abandoned = S.Dtw.pairs_abandoned ws;
        lb_evals = S.Dtw.lb_evals ws;
        nodes_visited = ixc.S.Vpindex.nodes_visited;
        pruned_index = ixc.S.Vpindex.pairs_pruned_index;
      };
  (model, verdict)

let run ~seed ~seconds ~trace =
  let inp = Gen.cold (Sutil.Rng.create seed) in
  let config = Gen.config in
  let targets = inp.Gen.cold_targets in
  let n = Array.length targets in
  let poc_jobs = Array.of_list (List.map snd inp.Gen.cold_pocs) in
  (* set-up: build the four PoC models, summarize them, and apply the index
     policy (which declines an index for four models) *)
  let prepare_ms = ref [] and index_ms = ref [] in
  let build_repo () =
    let models = Gen.build_models poc_jobs in
    let repo =
      List.mapi (fun i (family, _) -> { S.Detector.family; model = models.(i) }) inp.Gen.cold_pocs
    in
    let prep, p_ms = timed (fun () -> S.Detector.prepare repo) in
    let index, i_ms =
      timed (fun () ->
          Option.bind (S.Service.spec_of_config config) (fun spec ->
              S.Vpindex.build spec (S.Detector.prepared_summaries prep)))
    in
    prepare_ms := p_ms :: !prepare_ms;
    index_ms := i_ms :: !index_ms;
    (repo, S.Detector.attach_index prep index)
  in
  let repo_bytes r = List.map (fun p -> S.Persist.model_to_string p.S.Detector.model) r in
  let (repo, prep), setup_again, setup_s =
    setup ~per_pass:2 build_repo ~again:(fun (r0, _) (r, _) ->
        if repo_bytes r <> repo_bytes r0 then mismatch "cold-screen: set-ups built different PoC models")
  in
  (* first-pass models and verdicts are the reference for every later pass *)
  let first = Array.make n S.Detector.empty_verdict and model_of = Array.make n None in
  let got = Array.make n None in
  let attempted = ref 0 and failed = ref 0 in
  let check pass =
    Array.iteri
      (fun i r ->
        incr attempted;
        match r with
        | None -> incr failed
        | Some (model, v) ->
          if pass = 0 then begin
            model_of.(i) <- Some model;
            first.(i) <- v
          end
          else begin
            (* a traced pass replays the layers: its model must be
               byte-identical to the service's *)
            let bytes = Option.map S.Persist.model_to_string in
            if trace && pass mod 2 = 1 && bytes (Some model) <> bytes model_of.(i) then
              mismatch "cold-screen: target %d: replayed model differs from the service's" i;
            expect_same ~what:(Printf.sprintf "cold-screen target %d, pass %d" i pass)
              ~expected:first.(i) v
          end)
      got
  in
  (* per op, the call's time outside the build and detect stages its
     report times: the service's own per-call work *)
  let glue = Array.make n [] in
  let untraced _pass record =
    for i = 0 to n - 1 do
      let t0 = now () in
      let r = S.Service.screen_prepared config prep [| targets.(i).Gen.job |] in
      let ms = ms_since t0 in
      record i ms;
      got.(i) <-
        (match r with
        | Ok (models, vs, report) ->
          glue.(i) <- (ms -. stage_ms report) :: glue.(i);
          Some (models.(0), vs.(0))
        | Error _ -> None)
    done
  in
  (* the counts of the last traced pass (every pass counts the same) *)
  let counts = ref (new_counts ()) in
  let traced pass record =
    counts := new_counts ();
    for i = 0 to n - 1 do
      let t0 = now () in
      let r = root ~op:i ~pass (fun () -> replay ~op:i ~pass ~counts:!counts prep targets.(i).Gen.job) in
      record i (ms_since t0);
      got.(i) <- Some r
    done
  in
  let reference_check () =
    List.iter
      (fun i ->
        match model_of.(i) with
        | None -> ()
        | Some model ->
          expect_same ~what:(Printf.sprintf "cold-screen target %d vs unpruned scan" i)
            ~expected:(reference repo model) (observed first.(i)))
      (sample ~seed ~n:64 n)
  in
  let f1 () = f1 (Array.to_list (Array.mapi (fun i v -> (S.Detector.is_attack v, targets.(i).Gen.attack)) first)) in
  if not trace then begin
    let p = run_passes ~seconds ~ops:n ~check ~between:setup_again untraced in
    reference_check ();
    let meds = op_medians p in
    Printf.printf "cold-screen: %d targets x %d passes, %d-model repository\n" n (passes_run p)
      (List.length repo);
    ( [
        m "setup_s" "s" (setup_s ());
        m "targets_per_s" "1/s" (float n /. (median p.pass_ms /. 1e3));
        m "latency_p50_ms" "ms" (median meds);
        m "latency_p90_ms" "ms" (p90 meds);
        m "detect_f1" "ratio" (f1 ());
      ],
      !attempted,
      !failed )
  end
  else begin
    let costs = unit_costs () in
    let after_traced () =
      time_unit_costs costs
        (pair_sample ~seed
           ~targets:(Array.map S.Dtw.summarize (Array.of_list (List.filter_map Fun.id (Array.to_list model_of))))
           ~repo:(S.Detector.prepared_summaries prep))
    in
    let u, t = run_alternating ~seconds ~ops:n ~check ~between:setup_again ~after_traced ~untraced ~traced () in
    reference_check ();
    let per = span_times () and ops = List.init n Fun.id in
    let layer_ms = List.map (fun l -> (l, per_op_ms per ~ops l)) layers in
    let op_ms = per_op_ms per ~ops ~total:true "op" in
    where_time_goes ~title:"cold-screen" ~op_ms ~remainder:(per_op_ms per ~ops "op") layer_ms;
    let ms l = List.assoc l layer_ms in
    let unit = unit_medians costs in
    Printf.printf "cold-screen traced: %d untraced + %d traced passes\n" (passes_run u) (passes_run t);
    ( [
        m "exec.busy_ms" "ms" (ms "exec");
        m "exec.instructions" "count" (float !counts.instructions);
        m "exec.ns_per_instr" "ns" (ms "exec" *. float n *. 1e6 /. float !counts.instructions);
        m "relevant.busy_ms" "ms" (ms "relevant");
        m "relevant.accesses" "count" (float !counts.accesses);
        m "relevant.kept_ratio" "ratio" (ratio !counts.kept !counts.step1);
        m "model.busy_ms" "ms" (ms "model");
        m "model.entries" "count" (float !counts.entries);
        m "cfg.busy_ms" "ms" (ms "cfg");
        m "cfg.blocks" "count" (float !counts.blocks);
        m "attack_graph.busy_ms" "ms" (ms "attack_graph");
        m "attack_graph.nodes" "count" (float !counts.nodes);
        m "detector.prepare_ms" "ms" (median !prepare_ms);
        m "vpindex.build_ms" "ms" (median !index_ms);
        m "service.unattributed_ms" "ms" (mean (Array.to_list (Array.map median glue)));
        m "trace.overhead_ratio" "ratio" (median t.pass_ms /. median u.pass_ms);
      ]
      @ dtw_metrics ~classify_ms:(ms "detector") ~unit !counts.dtw
      @ gc_metrics ~ops:n u,
      !attempted,
      !failed )
  end
