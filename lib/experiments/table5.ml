type row = { id : string; scenario : string; description : string; score : float }

let model_of_spec ~rng spec =
  Detect.Run.model
    (Detect.Run.execute
       (Workloads.Dataset.with_harness ~rng (Workloads.Dataset.of_spec spec)))

(* A benign sample with a non-empty model, so S5 compares real models
   rather than trivially scoring 0 against an empty one. *)
let benign_model ~rng =
  let rec pick tries =
    let candidates = Workloads.Dataset.benign_samples ~rng ~count:4 in
    let models = List.map (fun s -> Detect.Run.model (Detect.Run.execute s)) candidates in
    match List.find_opt (fun m -> not (Scaguard.Model.is_empty m)) models with
    | Some m -> m
    | None when tries > 0 -> pick (tries - 1)
    | None -> List.hd models
  in
  pick 8

let evaluate ~rng =
  let open Workloads.Attacks in
  let fr = model_of_spec ~rng (flush_reload ~style:Iaik ()) in
  let fr' = model_of_spec ~rng (flush_reload ~style:Mastik ()) in
  let er = model_of_spec ~rng (evict_reload ()) in
  let pp = model_of_spec ~rng (prime_probe ~style:Iaik ()) in
  let sfr = model_of_spec ~rng (spectre_fr ~style:Classic ()) in
  let ben = benign_model ~rng in
  let s m1 m2 = Scaguard.Dtw.compare_models m1 m2 in
  [
    { id = "S1"; scenario = "FR vs another FR implementation";
      description = "different implementations of the same attack";
      score = s fr fr' };
    { id = "S2"; scenario = "FR vs Evict+Reload";
      description = "different variants of the same attack";
      score = s fr er };
    { id = "S3"; scenario = "FR vs Prime+Probe";
      description = "different attacks exploiting the same vulnerability";
      score = s fr pp };
    { id = "S4"; scenario = "FR vs its Spectre variant";
      description = "variants exploiting different vulnerabilities";
      score = s fr sfr };
    { id = "S5"; scenario = "FR vs benign program";
      description = "an attack program and a benign program";
      score = s fr ben };
  ]

let to_table rows =
  let t =
    Sutil.Table.create ~title:"Table V: similarity of 5 typical scenarios"
      [ "No."; "Scenario"; "Description"; "Score" ]
  in
  List.iter
    (fun r ->
      Sutil.Table.add_row t
        [ r.id; r.scenario; r.description; Sutil.Table.pct r.score ])
    rows;
  t
