module D = Workloads.Dataset
module L = Workloads.Label

(* The executed-sample type now lives in [Detect.Run] (the detector
   abstraction is defined over it); the alias keeps the record's fields and
   every existing [Common.run] consumer unchanged. *)
type run = Detect.Run.t = {
  sample : D.sample;
  result : Cpu.Exec.result;
  analysis : Scaguard.Pipeline.analysis Lazy.t;
}

let execute = Detect.Run.execute
let execute_all = Detect.Run.execute_all
let model = Detect.Run.model
let label = Detect.Run.label
let label_to_int = Detect.label_to_int
let label_of_int = Detect.label_of_int

(* One representative PoC per family, harnessed like every dataset sample. *)
let poc_of_family label =
  match label with
  | L.Fr_family -> Workloads.Attacks.flush_reload ~style:Workloads.Attacks.Iaik ()
  | L.Pp_family -> Workloads.Attacks.prime_probe ~style:Workloads.Attacks.Iaik ()
  | L.Spectre_fr -> Workloads.Attacks.spectre_fr ~style:Workloads.Attacks.Classic ()
  | L.Spectre_pp -> Workloads.Attacks.spectre_pp ()
  | L.Benign -> invalid_arg "Experiments.Common: benign has no PoC"

let families_of_strings names =
  match List.filter (fun n -> L.of_string n = None) names with
  | [] -> (
    match List.filter_map L.of_string names with
    | [] -> Error Scaguard.Err.Empty_repository
    | families -> Ok families)
  | unknown ->
    (* A typo'd family must not silently shrink the repository. *)
    Error
      (Scaguard.Err.Invalid_config
         {
           field = "families";
           value = String.concat "," unknown;
           expected =
             "family names among "
             ^ String.concat ", " (List.map L.to_string L.all);
         })

let job (s : D.sample) =
  Scaguard.Pipeline.job ?settings:s.D.settings ~init:s.D.init
    ?victim:s.D.victim ~name:s.D.name s.D.program

let repository_service ?obs ~config ~rng families =
  if families = [] then Error Scaguard.Err.Empty_repository
  else
    (* Harness construction consumes the rng; execution does not.  Building
       every sample first (sequentially, in family order) therefore preserves
       the rng stream exactly, and the executions can then fan out over the
       pool — or be skipped outright on a model-cache hit — with models
       byte-identical to the old sequential loop. *)
    let samples =
      List.map
        (fun family -> D.with_harness ~rng (D.of_spec (poc_of_family family)))
        families
    in
    (* no per-job salt: jobs pick up [config.salt] inside the service *)
    let jobs = Array.of_list (List.map job samples) in
    Result.map
      (fun (models, report) ->
        ( List.mapi
            (fun i family ->
              {
                Scaguard.Detector.family = L.to_string family;
                model = models.(i);
              })
            families,
          report ))
      (Scaguard.Service.build ?obs config jobs)

let repository ?(config = Scaguard.Config.default) ~rng families =
  match families with
  | [] -> []
  | _ -> (
    match repository_service ~config ~rng families with
    | Ok (repo, _) -> repo
    | Error e ->
      invalid_arg
        ("Experiments.Common.repository: " ^ Scaguard.Err.to_string e))

let scaguard_predict ?threshold ?alpha repo run =
  let verdict = Scaguard.Detector.classify ?threshold ?alpha repo (model run) in
  match verdict.Scaguard.Detector.best_family with
  | Some f -> Option.value ~default:L.Benign (L.of_string f)
  | None -> L.Benign

let binarize = function L.Benign -> L.Benign | _ -> L.Fr_family

let metrics ~classes pairs =
  let to_int = label_to_int in
  Ml.Metrics.evaluate
    ~classes:(List.map to_int classes)
    (List.map (fun (p, a) -> (to_int p, to_int a)) pairs)
