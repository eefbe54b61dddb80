(* The deployment scenario of Section V: a server-cluster guard checks
   untrusted programs before installation.  A repository of PoC models is
   built once; each incoming program is executed in the sandbox, modelled,
   and classified by similarity — the repository prepared once
   (Scaguard.Service.prepare), then one Scaguard.Service.screen_prepared
   call.

     dune exec examples/detect_unknown.exe *)

let () =
  let rng = Sutil.Rng.create 2026 in

  (* One PoC model per known attack family. *)
  let repo =
    Experiments.Common.repository ~rng
      [ Workloads.Label.Fr_family; Workloads.Label.Pp_family;
        Workloads.Label.Spectre_fr; Workloads.Label.Spectre_pp ]
  in
  Printf.printf "Repository: %d PoC models (%s)\n\n" (List.length repo)
    (String.concat ", "
       (List.map (fun p -> p.Scaguard.Detector.family) repo));

  (* A mixed bag of unknown programs: mutated attack variants the defender
     has never seen, plus benign applications. *)
  let unknown =
    Workloads.Dataset.mutated_attacks ~rng ~count:2 Workloads.Label.Fr_family
    @ Workloads.Dataset.mutated_attacks ~rng ~count:2 Workloads.Label.Spectre_pp
    @ Workloads.Dataset.obfuscated_attacks ~rng ~count:2 Workloads.Label.Pp_family
    @ Workloads.Dataset.benign_samples ~rng ~count:4
  in
  let shuffled = Sutil.Rng.shuffle rng unknown in

  (* Screen the whole batch: build every model, classify every model, one
     report for the run. *)
  let jobs = Array.of_list (List.map Experiments.Common.job shuffled) in
  let config = Scaguard.Config.default in
  let verdicts, report =
    match
      Result.bind (Scaguard.Service.prepare config repo) (fun prepared ->
          Scaguard.Service.screen_prepared config prepared jobs)
    with
    | Ok (_models, verdicts, report) -> (verdicts, report)
    | Error e ->
      prerr_endline (Scaguard.Err.to_string e);
      exit 1
  in

  Printf.printf "%-34s %-8s %-10s %s\n" "program" "verdict" "score" "truth";
  Printf.printf "%s\n" (String.make 70 '-');
  let correct = ref 0 in
  List.iteri
    (fun i (s : Workloads.Dataset.sample) ->
      let verdict = verdicts.(i) in
      let predicted =
        Option.value ~default:"benign" verdict.Scaguard.Detector.best_family
      in
      let truth = Workloads.Label.to_string s.Workloads.Dataset.label in
      let truth_str = if truth = "Benign" then "benign" else truth in
      if predicted = truth_str then incr correct;
      Printf.printf "%-34s %-8s %8.1f%%  %s %s\n" s.Workloads.Dataset.name
        predicted
        (100.0 *. verdict.Scaguard.Detector.best_score)
        truth_str
        (if predicted = truth_str then "" else "  <-- MISCLASSIFIED"))
    shuffled;
  Printf.printf "%s\n%d/%d correct\n\n" (String.make 70 '-') !correct
    (List.length shuffled);
  Format.printf "%a@." Scaguard.Service.pp_report report
