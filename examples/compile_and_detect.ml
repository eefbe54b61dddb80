(* The compiler story: SCAGuard's instruction normalization exists because
   different compilers lower the same attack differently.  Here a
   Flush+Reload attack written in MinC (the bundled mini-language) is
   compiled at two optimization levels — standing in for two compilers — and
   both binaries leak, look alike to the similarity comparison, and are
   classified into the right family.

     dune exec examples/compile_and_detect.exe *)

let () =
  print_endline "MinC source (excerpt):";
  String.split_on_char '\n' Minc.Programs.flush_reload_source
  |> List.filteri (fun i _ -> i < 12)
  |> List.iter (fun l -> Printf.printf "    %s\n" l);
  print_endline "    ...";

  let victim = Workloads.Victim.shared_lib () in
  let compile optimize =
    Minc.Codegen.compile_source ~optimize ~name:"minc-fr"
      Minc.Programs.flush_reload_source
  in
  let or_die = function
    | Ok v -> v
    | Error e ->
      prerr_endline (Scaguard.Err.to_string e);
      exit 1
  in

  (* both compilations leak the victim's access pattern *)
  List.iter
    (fun optimize ->
      let prog = compile optimize in
      let res = Cpu.Exec.run ~victim prog in
      let hist =
        Array.init 8 (fun i ->
            Cpu.Machine.load res.Cpu.Exec.machine
              (Workloads.Layout.attacker_results_base + (8 * i)))
      in
      Printf.printf "\n%-22s (%3d instructions) probe hits: "
        (if optimize then "optimized compile" else "unoptimized compile")
        (Isa.Program.length prog);
      Array.iteri (fun i v -> Printf.printf "%d:%d " i v) hist)
    [ false; true ];

  (* the two binaries are different code but the same behavior: build both
     models in one service batch *)
  let job optimize name =
    Scaguard.Pipeline.job ~victim ~name (compile optimize)
  in
  let models, _ =
    or_die
      (Scaguard.Service.build Scaguard.Config.default
         [| job false "minc-fr (unoptimized)"; job true "minc-fr (optimized)" |])
  in
  Printf.printf "\n\nsimilarity(unoptimized, optimized) = %.1f%%\n"
    (100.0 *. Scaguard.Dtw.compare_models models.(0) models.(1));

  (* and both are recognized against the hand-written PoC repository;
     MinC-compiled code scores a touch lower than hand-written asm, so the
     config lowers the threshold to 55% *)
  let config = { Scaguard.Config.default with Scaguard.Config.threshold = 0.55 } in
  let rng = Sutil.Rng.create 1 in
  let repo, _ =
    or_die
      (Experiments.Common.repository_service ~config ~rng
         Workloads.Label.attack_labels)
  in
  let prepared = or_die (Scaguard.Service.prepare config repo) in
  let verdicts, _ =
    or_die (Scaguard.Service.detect_prepared config prepared models)
  in
  List.iteri
    (fun i name ->
      let v = verdicts.(i) in
      Printf.printf "%s: best %.1f%% -> %s\n" name
        (100.0 *. v.Scaguard.Detector.best_score)
        (Option.value ~default:"benign" v.Scaguard.Detector.best_family))
    [ "unoptimized"; "optimized" ]
