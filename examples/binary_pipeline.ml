(* The end-to-end binary workflow §V describes for a server cluster:
   (1) a repository of PoC models is curated once and saved to disk;
   (2) untrusted binaries arrive as files;
   (3) the repository file is loaded back, already prepared for
       classification (Scaguard.Service.load_repository), and the whole
       batch is sandbox-executed, modelled, and classified in one
       Scaguard.Service.screen_prepared call.

     dune exec examples/binary_pipeline.exe *)

let tmp name = Filename.concat (Filename.get_temp_dir_name ()) name

let or_die = function
  | Ok v -> v
  | Error e ->
    prerr_endline (Scaguard.Err.to_string e);
    exit 1

let () =
  let config = Scaguard.Config.default in
  let rng = Sutil.Rng.create 99 in

  (* --- 1. build and persist the repository ---------------------------- *)
  let repo_path = tmp "scaguard_demo.repo" in
  let repo, _ =
    or_die
      (Experiments.Common.repository_service ~config ~rng
         [ Workloads.Label.Fr_family; Workloads.Label.Pp_family;
           Workloads.Label.Spectre_fr; Workloads.Label.Spectre_pp ])
  in
  ignore (or_die (Scaguard.Service.save_repository config ~path:repo_path repo));
  Printf.printf "repository: %d PoC models -> %s\n" (List.length repo) repo_path;

  (* --- 2. "someone ships us binaries" --------------------------------- *)
  let incoming =
    List.map
      (fun (s : Workloads.Dataset.sample) ->
        let path = tmp (s.Workloads.Dataset.name ^ ".bin") in
        Isa.Binary.write_file ~path s.Workloads.Dataset.program;
        (path, s))
      (Workloads.Dataset.mutated_attacks ~rng ~count:2 Workloads.Label.Fr_family
      @ Workloads.Dataset.benign_samples ~rng ~count:2
      @ Workloads.Dataset.obfuscated_attacks ~rng ~count:1 Workloads.Label.Pp_family)
  in
  Printf.printf "received %d binaries (%s...)\n\n" (List.length incoming)
    (Filename.basename (fst (List.hd incoming)));

  (* --- 3. screen the whole batch --------------------------------------- *)
  let _repo, prepared, _ =
    or_die (Scaguard.Service.load_repository ~config ~path:repo_path ())
  in
  let jobs =
    Array.of_list
      (List.map
         (fun (path, (s : Workloads.Dataset.sample)) ->
           let prog = Isa.Binary.read_file ~path in
           (* the sandbox re-runs the binary with its environment; here the
              dataset sample supplies init/victim like the sandbox would *)
           Scaguard.Pipeline.job ?settings:s.Workloads.Dataset.settings
             ~init:s.Workloads.Dataset.init ?victim:s.Workloads.Dataset.victim
             ~name:(Filename.basename path) prog)
         incoming)
  in
  let _, verdicts, _ =
    or_die (Scaguard.Service.screen_prepared config prepared jobs)
  in
  List.iteri
    (fun i (path, _) ->
      let v = verdicts.(i) in
      Printf.printf "%-36s %6.1f%%  %s\n" (Filename.basename path)
        (100.0 *. v.Scaguard.Detector.best_score)
        (match v.Scaguard.Detector.best_family with
        | Some f -> "ATTACK (" ^ f ^ ")"
        | None -> "allowed");
      Sys.remove path)
    incoming;
  Sys.remove repo_path
