(* Tests for the workload substrate: every attack PoC leaks its planted
   secret, mutation preserves attack behavior, obfuscation inflates basic
   blocks without breaking attacks, benign programs terminate, and dataset
   assembly works end to end. *)

module A = Workloads.Attacks
module D = Workloads.Dataset
module L = Workloads.Label

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let victim_values = [ 2; 3; 5 ] (* the default victim secret's alphabet *)

let guess_excluding_training res =
  (* Spectre PoCs architecturally touch probe line 0 during training; the
     recovery step skips known-training lines, like real PoCs do. *)
  let h = A.result_histogram res in
  let best = ref 1 in
  Array.iteri (fun i v -> if i >= 1 && v > h.(!best) then best := i) h;
  !best

(* ---- attack leakage -------------------------------------------------------- *)

let leak_case name spec ~check =
  Alcotest.test_case name `Quick (fun () ->
      let res = A.run_spec spec in
      check_bool "halted" true res.Cpu.Exec.halted_normally;
      check res)

let check_victim_alphabet res =
  check_bool "recovers a victim value" true
    (List.mem (A.secret_guess res) victim_values)

let check_spectre_secret expected res =
  check_int "recovers the planted secret" expected (guess_excluding_training res)

let leakage_tests =
  [
    leak_case "FR-IAIK leaks" (A.flush_reload ~style:A.Iaik ())
      ~check:check_victim_alphabet;
    leak_case "FR-Mastik leaks" (A.flush_reload ~style:A.Mastik ())
      ~check:check_victim_alphabet;
    leak_case "FR-Nepoche leaks" (A.flush_reload ~style:A.Nepoche ())
      ~check:check_victim_alphabet;
    leak_case "FF leaks" (A.flush_flush ()) ~check:check_victim_alphabet;
    leak_case "ER leaks" (A.evict_reload ()) ~check:check_victim_alphabet;
    leak_case "PP-IAIK leaks" (A.prime_probe ~style:A.Iaik ())
      ~check:check_victim_alphabet;
    leak_case "PP-Jzhang leaks" (A.prime_probe ~style:A.Jzhang ())
      ~check:check_victim_alphabet;
    leak_case "Spectre-FR-Classic leaks" (A.spectre_fr ~style:A.Classic ())
      ~check:(check_spectre_secret 11);
    leak_case "Spectre-FR-Idea leaks" (A.spectre_fr ~style:A.Idea ())
      ~check:(check_spectre_secret 11);
    leak_case "Spectre-FR-Good leaks" (A.spectre_fr ~style:A.Good ())
      ~check:(check_spectre_secret 11);
    leak_case "Spectre-PP leaks" (A.spectre_pp ())
      ~check:(fun res ->
        check_int "recovers the planted secret" 5 (guess_excluding_training res));
  ]

let test_meltdown_extension_leaks () =
  let res = A.run_spec (A.meltdown_fr ()) in
  check_bool "halted" true res.Cpu.Exec.halted_normally;
  (* the secret lives behind the protected range; only the deferred-fault
     transient window can reveal it *)
  check_int "kernel secret recovered" 11 (A.secret_guess res)

let test_meltdown_needs_transient_window () =
  let spec = A.meltdown_fr () in
  let settings =
    match spec.A.settings with
    | Some s -> { s with Cpu.Exec.spec_window = 0 }
    | None -> Alcotest.fail "meltdown must carry settings"
  in
  let res = A.run_spec ~settings spec in
  let h = A.result_histogram res in
  check_int "no leak without the window" 0 h.(11)

let test_cross_core_leakage () =
  (* the shared-memory and LLC attacks still leak when attacker and victim
     sit on different cores with private L1s *)
  List.iter
    (fun (s : A.spec) ->
      match s.A.label with
      | L.Fr_family | L.Pp_family ->
        let res = A.run_spec_cross_core s in
        let h = A.result_histogram res in
        let signal = h.(2) + h.(3) + h.(5) in
        let noise = h.(1) + h.(4) + h.(6) + h.(7) in
        check_bool (s.A.name ^ " leaks cross-core") true (signal > noise)
      | _ -> ())
    (A.base_pocs ())

let test_all_pocs_have_ground_truth () =
  List.iter
    (fun (s : A.spec) ->
      check_bool
        (s.A.name ^ " has attack tags")
        true
        (Isa.Program.tagged_indices s.A.program Isa.Program.attack_tag <> []))
    (A.base_pocs ())

let test_base_pocs_count () =
  check_int "eleven collected PoCs" 11 (List.length (A.base_pocs ()))

(* ---- mutation ----------------------------------------------------------------- *)

let test_mutation_preserves_leakage () =
  let rng = Sutil.Rng.create 404 in
  List.iter
    (fun (s : A.spec) ->
      let m =
        Workloads.Mutate.mutate ~intensity:Workloads.Mutate.heavy ~rng
          ~name:(s.A.name ^ "-mut") s.A.program
      in
      let res = A.run_spec { s with A.program = m } in
      check_bool (s.A.name ^ " halts") true res.Cpu.Exec.halted_normally;
      match s.A.label with
      | L.Fr_family | L.Pp_family ->
        check_bool
          (s.A.name ^ " mutant still leaks")
          true
          (List.mem (A.secret_guess res) victim_values)
      | L.Spectre_fr ->
        check_int (s.A.name ^ " mutant still leaks") 11
          (guess_excluding_training res)
      | L.Spectre_pp ->
        check_int (s.A.name ^ " mutant still leaks") 5
          (guess_excluding_training res)
      | L.Benign -> ())
    (A.base_pocs ())

let test_mutation_changes_syntax () =
  let rng = Sutil.Rng.create 7 in
  let s = A.flush_reload ~style:A.Iaik () in
  let m = Workloads.Mutate.mutate ~rng ~name:"m" s.A.program in
  check_bool "program differs" true
    (Isa.Program.length m <> Isa.Program.length s.A.program
    || Array.exists2 (fun a b -> not (Isa.Instr.equal a b))
         (Isa.Program.code m) (Isa.Program.code s.A.program))

let test_mutation_preserves_tags () =
  let rng = Sutil.Rng.create 8 in
  let s = A.flush_reload ~style:A.Iaik () in
  let m = Workloads.Mutate.mutate ~rng ~name:"m" s.A.program in
  check_bool "attack tags survive" true
    (Isa.Program.tagged_indices m Isa.Program.attack_tag <> [])

let test_mutation_benign_semantics () =
  (* A mutated benign kernel computes the same result. *)
  let rng = Sutil.Rng.create 9 in
  let g = Workloads.Benign.build "bubble-sort" (Sutil.Rng.create 1) in
  let run p =
    let res = Cpu.Exec.run ~init:g.Workloads.Benign.init p in
    (* read back the sorted prefix *)
    List.init 16 (fun i ->
        Cpu.Machine.load res.Cpu.Exec.machine (Workloads.Layout.benign_data_base + (8 * i)))
  in
  let base = run g.Workloads.Benign.program in
  let mutated =
    run (Workloads.Mutate.mutate ~intensity:Workloads.Mutate.heavy ~rng ~name:"m"
           g.Workloads.Benign.program)
  in
  Alcotest.(check (list int)) "same array contents" base mutated

let stack_and_kernel addr = addr >= 0x7000_0000

let final_memory p init =
  let res = Cpu.Exec.run ~init p in
  Cpu.Machine.fold_mem res.Cpu.Exec.machine ~init:[] ~f:(fun a v acc ->
      if stack_and_kernel a then acc else (a, v) :: acc)
  |> List.sort compare

let prop_mutation_preserves_memory =
  (* Heavy mutation of any benign kernel leaves all non-stack memory
     identical (registers may legally differ after renaming). *)
  QCheck.Test.make ~name:"mutation preserves final memory" ~count:30
    QCheck.small_int
    (fun seed ->
      let g = Workloads.Benign.generate (Sutil.Rng.create seed) in
      let mutated =
        Workloads.Mutate.mutate ~intensity:Workloads.Mutate.heavy
          ~rng:(Sutil.Rng.create (seed + 1000)) ~name:"m"
          g.Workloads.Benign.program
      in
      final_memory g.Workloads.Benign.program g.Workloads.Benign.init
      = final_memory mutated g.Workloads.Benign.init)

let prop_obfuscation_preserves_memory =
  QCheck.Test.make ~name:"obfuscation preserves final memory" ~count:30
    QCheck.small_int
    (fun seed ->
      let g = Workloads.Benign.generate (Sutil.Rng.create seed) in
      let obf =
        Workloads.Obfuscate.obfuscate ~rng:(Sutil.Rng.create (seed + 2000))
          ~name:"o" g.Workloads.Benign.program
      in
      final_memory g.Workloads.Benign.program g.Workloads.Benign.init
      = final_memory obf g.Workloads.Benign.init)

(* ---- obfuscation ---------------------------------------------------------------- *)

let test_obfuscation_inflates_bbs () =
  let rng = Sutil.Rng.create 10 in
  let ratios =
    List.map
      (fun (s : A.spec) ->
        let o = Workloads.Obfuscate.obfuscate ~rng ~name:"o" s.A.program in
        let bb0 = Workloads.Obfuscate.count_basic_blocks s.A.program in
        let bb1 = Workloads.Obfuscate.count_basic_blocks o in
        float_of_int (bb1 - bb0) /. float_of_int bb0)
      (A.base_pocs ())
  in
  let mean = Sutil.Stats.mean ratios in
  (* paper: ~70% more BBs on average *)
  check_bool "mean inflation in [0.4, 1.2]" true (mean >= 0.4 && mean <= 1.2)

let test_obfuscation_preserves_leakage () =
  let rng = Sutil.Rng.create 20 in
  List.iter
    (fun (s : A.spec) ->
      let o =
        Workloads.Obfuscate.obfuscate ~rng ~name:(s.A.name ^ "-obf") s.A.program
      in
      let res = A.run_spec { s with A.program = o } in
      check_bool (s.A.name ^ " obfuscated halts") true res.Cpu.Exec.halted_normally;
      match s.A.label with
      | L.Fr_family | L.Pp_family ->
        check_bool
          (s.A.name ^ " obfuscated still leaks")
          true
          (List.mem (A.secret_guess res) victim_values)
      | _ -> ())
    (A.base_pocs ())

(* ---- benign -------------------------------------------------------------------- *)

let test_benign_families_terminate () =
  List.iter
    (fun (family, _) ->
      let rng = Sutil.Rng.create 31 in
      let g = Workloads.Benign.build family rng in
      let res = Cpu.Exec.run ~init:g.Workloads.Benign.init g.Workloads.Benign.program in
      check_bool (family ^ " halts") true res.Cpu.Exec.halted_normally;
      check_bool (family ^ " does work") true (res.Cpu.Exec.instructions > 20))
    Workloads.Benign.families

let test_benign_bubble_sorts () =
  let g = Workloads.Benign.build "bubble-sort" (Sutil.Rng.create 77) in
  let res = Cpu.Exec.run ~init:g.Workloads.Benign.init g.Workloads.Benign.program in
  (* after enough passes the prefix must be non-decreasing for at least the
     first few elements (full sort needs n passes; generator uses fewer) *)
  let m = res.Cpu.Exec.machine in
  let a = Cpu.Machine.load m Workloads.Layout.benign_data_base in
  let b = Cpu.Machine.load m (Workloads.Layout.benign_data_base + 8) in
  check_bool "first two ordered" true (a <= b)

let test_benign_quicksort_sorts () =
  let g = Workloads.Benign.build "quicksort" (Sutil.Rng.create 5) in
  let res = Cpu.Exec.run ~init:g.Workloads.Benign.init g.Workloads.Benign.program in
  check_bool "halted" true res.Cpu.Exec.halted_normally;
  (* recover n from the sample name "leetcode-quicksort-<n>" *)
  let n =
    int_of_string
      (List.nth (String.split_on_char '-' g.Workloads.Benign.name) 2)
  in
  let a =
    List.init n (fun i ->
        Cpu.Machine.load res.Cpu.Exec.machine
          (Workloads.Layout.benign_data_base + (8 * i)))
  in
  Alcotest.(check (list int)) "fully sorted" (List.sort compare a) a

let test_benign_edit_distance_correct () =
  (* replicate the generator's rng draws to know the planted strings *)
  let rng = Sutil.Rng.create 6 in
  let n = Sutil.Rng.in_range rng 12 24 in
  let m = Sutil.Rng.in_range rng 12 24 in
  let s1 = Array.init n (fun _ -> Sutil.Rng.int rng 4) in
  let s2 = Array.init m (fun _ -> Sutil.Rng.int rng 4) in
  let expected =
    Sutil.Levenshtein.distance_ints ~ws:(Sutil.Levenshtein.workspace ()) s1 s2
  in
  let g = Workloads.Benign.build "edit-distance" (Sutil.Rng.create 6) in
  let res = Cpu.Exec.run ~init:g.Workloads.Benign.init g.Workloads.Benign.program in
  (* the DP's final row lives at data2 (prev); answer at prev[m] *)
  let got =
    Cpu.Machine.load res.Cpu.Exec.machine
      (Workloads.Layout.benign_data2_base + (8 * m))
  in
  check_int "edit distance matches reference" expected got

let test_benign_diverse_seeds () =
  let r1 = Workloads.Benign.build "stream" (Sutil.Rng.create 1) in
  let r2 = Workloads.Benign.build "stream" (Sutil.Rng.create 2) in
  check_bool "parameterized differently" true
    (r1.Workloads.Benign.name <> r2.Workloads.Benign.name
    || Isa.Program.length r1.Workloads.Benign.program
       <> Isa.Program.length r2.Workloads.Benign.program)

let test_benign_category_lookup () =
  check_bool "unknown family rejected" true
    (try ignore (Workloads.Benign.build "nope" (Sutil.Rng.create 0)); false
     with Invalid_argument _ -> true);
  let g = Workloads.Benign.generate_of_category (Sutil.Rng.create 3) "Encryption" in
  check_bool "crypto category" true (g.Workloads.Benign.category = "Encryption")

(* ---- victim --------------------------------------------------------------------- *)

let test_victim_programs_touch_shared_lines () =
  let prog, init = Workloads.Victim.shared_lib () in
  (* run the victim as the main program to observe its accesses *)
  let res = Cpu.Exec.run ~init prog in
  let touched =
    List.filter
      (fun (a : Hpc.Collector.access) ->
        a.Hpc.Collector.target >= Workloads.Layout.shared_lib_base
        && a.Hpc.Collector.target
           < Workloads.Layout.shared_lib_base
             + (Workloads.Layout.monitored_lines * Workloads.Layout.monitored_stride))
      (Hpc.Collector.accesses res.Cpu.Exec.collector)
  in
  check_bool "touches monitored lines" true (List.length touched > 0)

(* ---- dataset -------------------------------------------------------------------- *)

let test_dataset_counts_and_labels () =
  let rng = Sutil.Rng.create 50 in
  let ds = D.attack_dataset ~rng ~per_family:3 in
  check_int "four families" 4 (List.length ds);
  List.iter
    (fun (label, samples) ->
      check_int "count per family" 3 (List.length samples);
      List.iter
        (fun (s : D.sample) ->
          check_bool "label consistent" true (L.equal s.D.label label))
        samples)
    ds

let test_dataset_samples_run () =
  let rng = Sutil.Rng.create 51 in
  List.iter
    (fun (label : L.t) ->
      List.iter
        (fun (s : D.sample) ->
          let res = D.run s in
          check_bool (s.D.name ^ " halts") true res.Cpu.Exec.halted_normally)
        (D.mutated_attacks ~rng ~count:2 label))
    L.attack_labels

let test_dataset_benign_all_benign () =
  let rng = Sutil.Rng.create 52 in
  List.iter
    (fun (s : D.sample) ->
      check_bool "benign label" true (L.equal s.D.label L.Benign);
      check_bool "no victim" true (s.D.victim = None))
    (D.benign_samples ~rng ~count:8)

let test_dataset_determinism () =
  let names rng = List.map (fun (s : D.sample) -> s.D.name)
      (D.mutated_attacks ~rng ~count:3 L.Fr_family) in
  Alcotest.(check (list string)) "same seed, same dataset"
    (names (Sutil.Rng.create 99)) (names (Sutil.Rng.create 99))

let test_harness_adds_code () =
  let rng = Sutil.Rng.create 53 in
  let base = D.of_spec (A.flush_reload ~style:A.Iaik ()) in
  let h = D.with_harness ~rng base in
  check_bool "longer" true
    (Isa.Program.length h.D.program > Isa.Program.length base.D.program)

let () =
  Alcotest.run "workloads"
    [
      ("leakage", leakage_tests);
      ( "pocs",
        [
          Alcotest.test_case "ground truth tags" `Quick test_all_pocs_have_ground_truth;
          Alcotest.test_case "collected count" `Quick test_base_pocs_count;
          Alcotest.test_case "meltdown extension leaks" `Quick
            test_meltdown_extension_leaks;
          Alcotest.test_case "meltdown needs the window" `Quick
            test_meltdown_needs_transient_window;
          Alcotest.test_case "cross-core leakage" `Slow test_cross_core_leakage;
        ] );
      ( "mutation",
        [
          Alcotest.test_case "preserves leakage" `Slow test_mutation_preserves_leakage;
          Alcotest.test_case "changes syntax" `Quick test_mutation_changes_syntax;
          Alcotest.test_case "preserves tags" `Quick test_mutation_preserves_tags;
          Alcotest.test_case "benign semantics" `Quick test_mutation_benign_semantics;
          QCheck_alcotest.to_alcotest prop_mutation_preserves_memory;
        ] );
      ( "obfuscation",
        [
          Alcotest.test_case "inflates BBs" `Quick test_obfuscation_inflates_bbs;
          Alcotest.test_case "preserves leakage" `Slow test_obfuscation_preserves_leakage;
          QCheck_alcotest.to_alcotest prop_obfuscation_preserves_memory;
        ] );
      ( "benign",
        [
          Alcotest.test_case "families terminate" `Quick test_benign_families_terminate;
          Alcotest.test_case "bubble sorts" `Quick test_benign_bubble_sorts;
          Alcotest.test_case "quicksort sorts" `Quick test_benign_quicksort_sorts;
          Alcotest.test_case "edit distance correct" `Quick
            test_benign_edit_distance_correct;
          Alcotest.test_case "diverse seeds" `Quick test_benign_diverse_seeds;
          Alcotest.test_case "category lookup" `Quick test_benign_category_lookup;
        ] );
      ( "victim",
        [
          Alcotest.test_case "touches shared lines" `Quick
            test_victim_programs_touch_shared_lines;
        ] );
      ( "dataset",
        [
          Alcotest.test_case "counts and labels" `Quick test_dataset_counts_and_labels;
          Alcotest.test_case "samples run" `Quick test_dataset_samples_run;
          Alcotest.test_case "benign labels" `Quick test_dataset_benign_all_benign;
          Alcotest.test_case "determinism" `Quick test_dataset_determinism;
          Alcotest.test_case "harness adds code" `Quick test_harness_adds_code;
        ] );
    ]
