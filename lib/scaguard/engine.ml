(* The batch detection engine: Detector.classify fanned out over a domain
   pool, one reusable Dtw workspace per worker, with per-batch counters.
   The repository is prepared (summarized) once and shared read-only by all
   workers; the scoring code path is exactly Detector.classify_prepared, so
   verdicts are bit-identical to the sequential path by construction. *)

type stats = {
  domains : int;
  targets : int;
  pairs : int;
  cells : int;
  pairs_pruned_lb : int;
  pairs_abandoned : int;
  cells_saved : int;
  lb_evals : int;
  nodes_visited : int;
  pairs_pruned_index : int;
  wall_s : float;
  cpu_s : float;
  per_worker : int array;
}

let utilization s =
  if s.wall_s <= 0.0 || s.domains = 0 then 0.0
  else min 1.0 (s.cpu_s /. (s.wall_s *. float_of_int s.domains))

let throughput s = if s.wall_s <= 0.0 then 0.0 else float_of_int s.pairs /. s.wall_s

(* Observed variant of one classify task: times the verdict, feeds the
   latency histograms, and (when this task index is sampled) emits an
   engine:classify span.  Lives outside the hot closure so the un-observed
   path below stays allocation-free. *)
let classify_observed ~classify ~ws ~worker ~target i out =
  let p0 = Dtw.pairs_scored ws in
  let t0 = Obs.Clock.now_ns () in
  out.(i) <- classify ();
  let dur_ns = Obs.Clock.elapsed_ns ~since:t0 in
  let dp = Dtw.pairs_scored ws - p0 in
  if Obs.metrics () then begin
    let dt = Obs.Clock.ns_to_s dur_ns in
    Obs.Registry.observe Obs.Metrics.verdict_seconds dt;
    if dp > 0 then
      Obs.Registry.observe Obs.Metrics.dtw_pair_seconds
        (dt /. float_of_int dp)
  end;
  if Obs.sampled i then
    Obs.emit_span ~cat:"engine" ~tid:worker
      ~args:
        [ ("target", target.Model.name); ("pairs", string_of_int dp) ]
      ~name:"engine:classify" ~ts_ns:t0 ~dur_ns ()

let publish_stats s =
  let open Obs.Metrics in
  Obs.Registry.incr batches_total;
  Obs.Registry.add targets_total s.targets;
  Obs.Registry.add pairs_total s.pairs;
  Obs.Registry.add cells_total s.cells;
  Obs.Registry.add pairs_pruned_lb_total s.pairs_pruned_lb;
  Obs.Registry.add pairs_abandoned_total s.pairs_abandoned;
  Obs.Registry.add cells_saved_total s.cells_saved;
  Obs.Registry.add lb_evals_total s.lb_evals;
  Obs.Registry.add pairs_pruned_index_total s.pairs_pruned_index;
  Obs.Registry.add index_nodes_visited_total s.nodes_visited

let classify_batch ?(threshold = Detector.default_threshold) ?alpha ?band
    ?domains ?prune ?(explain = false) prep targets =
  let tasks = Array.length targets in
  let d = Sutil.Pool.domains_for ?domains tasks in
  let wss = Array.init d (fun _ -> Dtw.workspace ()) in
  let ixcs = Array.init d (fun _ -> Vpindex.counters ()) in
  let out = Array.make tasks Detector.empty_verdict in
  (* slot i holds target i's record, whichever worker sealed it *)
  let records = Array.make (if explain then tasks else 0) None in
  let classify ~worker i =
    let target = targets.(i) in
    let prov =
      if explain then Some (Provenance.start ~target:target.Model.name ~threshold)
      else None
    in
    let v =
      Detector.classify_prepared ~threshold ?alpha ?band ?prune
        ~ws:wss.(worker) ~ixc:ixcs.(worker) ?prov prep target
    in
    (match prov with
    | None -> ()
    | Some b ->
      records.(i) <-
        Some
          (Provenance.finish b ~seq:i ~best_matches:v.Detector.best_matches
             ~best_family:v.Detector.best_family
             ~best_score:v.Detector.best_score));
    v
  in
  let observing = Obs.enabled () in
  let probe = if observing then Obs.pool_probe ~stage:"engine" else None in
  let wall0 = Obs.Clock.now_ns () and cpu0 = Sys.time () in
  let per_worker =
    Sutil.Pool.run ~domains:d ?probe ~tasks (fun ~worker i ->
        if observing then
          classify_observed
            ~classify:(fun () -> classify ~worker i)
            ~ws:wss.(worker) ~worker ~target:targets.(i) i out
        else out.(i) <- classify ~worker i)
  in
  let wall_s = Obs.Clock.elapsed_s ~since:wall0
  and cpu_s = Sys.time () -. cpu0 in
  let sum f = Array.fold_left (fun acc w -> acc + f w) 0 wss in
  let sumix f = Array.fold_left (fun acc c -> acc + f c) 0 ixcs in
  let pairs_pruned_index =
    sumix (fun c -> c.Vpindex.pairs_pruned_index)
  in
  let stats =
    {
      domains = d;
      targets = tasks;
      (* index-pruned pairs were never handed to the scorer, so they are
         added back here: [pairs] stays targets x repository however the
         candidates were enumerated *)
      pairs = sum Dtw.pairs_scored + pairs_pruned_index;
      cells = sum Dtw.cells_computed;
      pairs_pruned_lb = sum Dtw.pairs_pruned_lb;
      pairs_abandoned = sum Dtw.pairs_abandoned;
      cells_saved = sum Dtw.cells_saved;
      lb_evals = sum Dtw.lb_evals;
      nodes_visited = sumix (fun c -> c.Vpindex.nodes_visited);
      pairs_pruned_index;
      wall_s;
      cpu_s;
      per_worker;
    }
  in
  if Obs.metrics () then publish_stats stats;
  (out, Array.map Option.get records, stats)

let pp_stats fmt s =
  Format.fprintf fmt
    "@[<v>engine: %d targets, %d pairs, %d DP cells@,\
     pruning: %d pairs by lower bound, %d abandoned mid-DP, %d cells saved@,\
     index: %d pairs pruned, %d nodes visited, %d lower bounds evaluated@,\
     domains %d, wall %.4fs, cpu %.4fs, utilization %.0f%%, %.0f pairs/s@,\
     per-worker targets: [%s]@]"
    s.targets s.pairs s.cells s.pairs_pruned_lb s.pairs_abandoned s.cells_saved
    s.pairs_pruned_index s.nodes_visited s.lb_evals
    s.domains s.wall_s s.cpu_s
    (100.0 *. utilization s)
    (throughput s)
    (String.concat "; "
       (Array.to_list (Array.map string_of_int s.per_worker)))
