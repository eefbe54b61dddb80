(* Write a brand-new cache attack with the Builder DSL — a "Flush+Prefetch"
   variant nobody trained on — verify it leaks, and check whether SCAGuard's
   behavior models generalize to it (the paper's central claim: new variants
   still prepare and probe the cache, so their CST-BBS stays recognizably
   attack-like).

     dune exec examples/custom_attack.exe *)

module B = Isa.Builder
module I = Isa.Instr
module O = Isa.Operand
module R = Isa.Reg

let lines = Workloads.Layout.monitored_lines
let stride = Workloads.Layout.monitored_stride
let shared = Workloads.Layout.shared_lib_base
let results = Workloads.Layout.attacker_results_base

(* Flush+Prefetch: flush the shared lines, let the victim run, then time a
   PREFETCH of each line (prefetch of a cached line is fast).  Structurally
   different from every PoC in the repository: no reload loads, prefetch
   instead. *)
let flush_prefetch ~rounds =
  let b = B.create () in
  let round = B.fresh_label b "round" in
  B.emit b (I.Mov (O.reg R.RDI, O.imm rounds));
  B.label b round;
  (* flush phase *)
  let fl = B.fresh_label b "flush" in
  B.emit b (I.Mov (O.reg R.RSI, O.imm 0));
  B.label b fl;
  B.emit b (I.Clflush (O.mem ~index:R.RSI ~scale:stride ~disp:shared ()));
  B.emit b (I.Inc (O.reg R.RSI));
  B.emit b (I.Cmp (O.reg R.RSI, O.imm lines));
  B.emit b (I.Jcc (I.Ne, fl));
  (* wait for the victim *)
  let w = B.fresh_label b "wait" in
  B.emit b (I.Mov (O.reg R.RCX, O.imm 60));
  B.label b w;
  B.emit b (I.Dec (O.reg R.RCX));
  B.emit b (I.Cmp (O.reg R.RCX, O.imm 0));
  B.emit b (I.Jcc (I.Ne, w));
  (* timed prefetch probe *)
  let pr = B.fresh_label b "probe" in
  B.emit b (I.Mov (O.reg R.RSI, O.imm 0));
  B.label b pr;
  B.emit b I.Lfence;
  B.emit b I.Rdtsc;
  B.emit b (I.Mov (O.reg R.R8, O.reg R.RAX));
  B.emit b (I.Prefetch (O.mem ~index:R.RSI ~scale:stride ~disp:shared ()));
  B.emit b I.Rdtscp;
  B.emit b (I.Sub (O.reg R.RAX, O.reg R.R8));
  B.emit b (I.Sub (O.reg R.RAX, O.imm 150));
  B.emit b (I.Shr (O.reg R.RAX, 62));
  B.emit b (I.Add (O.mem ~index:R.RSI ~scale:8 ~disp:results (), O.reg R.RAX));
  B.emit b (I.Inc (O.reg R.RSI));
  B.emit b (I.Cmp (O.reg R.RSI, O.imm lines));
  B.emit b (I.Jcc (I.Ne, pr));
  B.emit b (I.Dec (O.reg R.RDI));
  B.emit b (I.Cmp (O.reg R.RDI, O.imm 0));
  B.emit b (I.Jcc (I.Ne, round));
  B.emit b I.Halt;
  B.to_program ~name:"Flush+Prefetch" b

let () =
  let program = flush_prefetch ~rounds:16 in
  Printf.printf "Custom attack: %s (%d instructions)\n\n"
    (Isa.Program.name program) (Isa.Program.length program);

  (* 1. it leaks: the victim touches lines {2,3,5} *)
  let victim = Workloads.Victim.shared_lib () in
  let res = Cpu.Exec.run ~victim program in
  let hist =
    Array.init lines (fun i -> Cpu.Machine.load res.Cpu.Exec.machine (results + (8 * i)))
  in
  Printf.printf "probe hit counts: ";
  Array.iteri (fun i v -> Printf.printf "%d:%d " i v) hist;
  let guessed =
    List.filter (fun i -> hist.(i) >= 8) (List.init lines Fun.id)
  in
  Printf.printf "\nrecovered victim access pattern: {%s} (planted: {2,3,5})\n\n"
    (String.concat "," (List.map string_of_int guessed));

  (* 2. SCAGuard has never seen Flush+Prefetch, but classifies it *)
  let or_die = function
    | Ok v -> v
    | Error e ->
      prerr_endline (Scaguard.Err.to_string e);
      exit 1
  in
  let config = Scaguard.Config.default in
  let rng = Sutil.Rng.create 7 in
  let repo, _ =
    or_die
      (Experiments.Common.repository_service ~config ~rng
         [ Workloads.Label.Fr_family; Workloads.Label.Pp_family ])
  in
  let models, _ =
    or_die
      (Scaguard.Service.build config
         [| Scaguard.Pipeline.job ~victim ~name:(Isa.Program.name program) program |])
  in
  let prepared = or_die (Scaguard.Service.prepare config repo) in
  let verdicts, _ =
    or_die (Scaguard.Service.detect_prepared config prepared models)
  in
  let v = verdicts.(0) in
  List.iter
    (fun (name, family, score) ->
      Printf.printf "similarity vs %s (%s): %.1f%%\n" name family (100.0 *. score))
    (Scaguard.Detector.score_all prepared models.(0));
  match v.Scaguard.Detector.best_family with
  | Some f ->
    Printf.printf
      "=> detected as a %s variant, despite never appearing in any repository\n" f
  | None -> Printf.printf "=> missed!\n"
