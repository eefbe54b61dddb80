(* The two-tier ensemble: a cheap HPC-feature fast path (the anomaly
   baseline's largest-|z| score against the benign training profile) screens
   every run, and only runs scoring at least [ctx.ensemble_tau] pay the DTW
   slow path (SCAGuard proper).  Anomaly scores are non-negative, so a
   threshold of 0 sends every run to the slow path and the ensemble is
   verdict-bit-identical to pure SCAGuard — the tuning anchor the tests
   assert. *)

module L = Workloads.Label
open Iface

let name = "ENSEMBLE"

type stats = {
  screened : int;  (** runs that entered the fast path *)
  fast_rejects : int;  (** runs rejected as benign without DTW *)
  slow_path : int;  (** runs escalated to DTW *)
  slow_confirms : int;  (** slow-path runs classified as an attack *)
}

(* Module-level tallies (the registry hides each detector's model type, so
   per-model counters would be unreachable from driver code).  Drivers
   bracket an evaluation with [reset_stats]/[stats]. *)
let screened = ref 0
let fast_rejects = ref 0
let slow_path = ref 0
let slow_confirms = ref 0

let reset_stats () =
  screened := 0;
  fast_rejects := 0;
  slow_path := 0;
  slow_confirms := 0

let stats () =
  {
    screened = !screened;
    fast_rejects = !fast_rejects;
    slow_path = !slow_path;
    slow_confirms = !slow_confirms;
  }

let slow_path_rate s =
  if s.screened = 0 then 0.0
  else float_of_int s.slow_path /. float_of_int s.screened

type model = {
  screen : Baselines.Anomaly.t option;
      (* [None] when the training split had no benign runs: nothing to
         screen against, everything escalates *)
  tau : float;
  scaguard : Adapters.Scaguard_dtw.model;
}

let train ctx labelled =
  let screen =
    match Adapters.benign_results labelled with
    | [] -> None
    | benign ->
      (* totals-only features: the fast path must stay far cheaper than
         the DTW it gates *)
      Some
        (Baselines.Anomaly.train ~features:Baselines.Features.screen_profile
           benign)
  in
  {
    screen;
    tau = ctx.ensemble_tau;
    scaguard = Adapters.Scaguard_dtw.train ctx labelled;
  }

let bump counter n =
  if Scaguard.Obs.metrics () then Scaguard.Obs.Registry.add counter n

let screen_z m run =
  match m.screen with
  | None -> infinity
  | Some a -> Baselines.Anomaly.score a (Run.result run)

(* The screening decision: anomaly scores are >= 0, so [tau = 0] never
   rejects. *)
let suspicious m run =
  incr screened;
  bump Scaguard.Obs.Metrics.ensemble_screened_total 1;
  let z = screen_z m run in
  if z < m.tau then begin
    incr fast_rejects;
    bump Scaguard.Obs.Metrics.ensemble_fast_rejects_total 1;
    false
  end
  else begin
    incr slow_path;
    bump Scaguard.Obs.Metrics.ensemble_slow_path_total 1;
    true
  end

let confirm () =
  incr slow_confirms;
  bump Scaguard.Obs.Metrics.ensemble_slow_confirms_total 1

let predict m run =
  if suspicious m run then begin
    let p = Adapters.Scaguard_dtw.predict m.scaguard run in
    if not (L.equal p L.Benign) then confirm ();
    p
  end
  else L.Benign

let binary_detect m run =
  if suspicious m run then begin
    let d = Adapters.Scaguard_dtw.binary_detect m.scaguard run in
    if d then confirm ();
    d
  end
  else false

let score m run =
  if suspicious m run then Adapters.Scaguard_dtw.score m.scaguard run
  else None

(* A fast-rejected run never reaches DTW, so its verdict is the empty one:
   no matches, no family, score 0. *)
let classify m run =
  if suspicious m run then begin
    let v = Adapters.Scaguard_dtw.classify m.scaguard run in
    if Scaguard.Detector.is_attack v then confirm ();
    v
  end
  else Scaguard.Detector.empty_verdict
