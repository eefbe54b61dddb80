(* Tests for the SCAGuard core: attack-relevant identification, Algorithm 1,
   CST measurement, distances, DTW similarity, and end-to-end detection. *)

module A = Workloads.Attacks
module D = Workloads.Dataset
module L = Workloads.Label
module SG = Scaguard

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_float = Alcotest.(check (float 1e-9))

let analyze_sample (s : D.sample) =
  let res = D.run s in
  SG.Pipeline.analyze ~name:s.D.name ~program:s.D.program res

let fr_analysis =
  lazy (analyze_sample (D.of_spec (A.flush_reload ~style:A.Iaik ())))

let model_of_spec spec = (analyze_sample (D.of_spec spec)).SG.Pipeline.model

(* Persist returns typed results everywhere; tests that expect success
   unwrap them here *)
let ok_exn = function Ok v -> v | Error e -> failwith (SG.Err.to_string e)

(* ---- Relevant ------------------------------------------------------------- *)

let test_identification_finds_ground_truth () =
  let a = Lazy.force fr_analysis in
  let truth = SG.Relevant.ground_truth_blocks a.SG.Pipeline.cfg in
  check_bool "has ground truth" true (truth <> []);
  List.iter
    (fun b ->
      check_bool
        (Printf.sprintf "truth BB%d identified" b)
        true
        (List.mem b a.SG.Pipeline.info.SG.Relevant.relevant))
    truth

let test_identification_prunes () =
  let a = Lazy.force fr_analysis in
  let info = a.SG.Pipeline.info in
  let n = Cfg.Graph.n_blocks a.SG.Pipeline.cfg in
  check_bool "step1 below total" true (List.length info.SG.Relevant.step1 < n);
  check_bool "step2 below step1" true
    (List.length info.SG.Relevant.relevant <= List.length info.SG.Relevant.step1);
  check_bool "step2 subset of step1" true
    (List.for_all
       (fun b -> List.mem b info.SG.Relevant.step1)
       info.SG.Relevant.relevant)

let test_identification_hpc_values () =
  let a = Lazy.force fr_analysis in
  let info = a.SG.Pipeline.info in
  (* every relevant block has a non-zero HPC value (step 1's criterion) *)
  List.iter
    (fun b ->
      check_bool "nonzero hpc" true (info.SG.Relevant.hpc_of_block.(b) > 0.0))
    info.SG.Relevant.relevant

let test_identification_first_times () =
  let a = Lazy.force fr_analysis in
  let info = a.SG.Pipeline.info in
  List.iter
    (fun b ->
      check_bool "executed blocks have timestamps" true
        (info.SG.Relevant.first_time_of_block.(b) <> None))
    info.SG.Relevant.relevant

let test_accuracy_helper () =
  check_float "full" 1.0 (SG.Relevant.accuracy ~identified:[ 1; 2; 3 ] ~truth:[ 1; 2 ]);
  check_float "half" 0.5 (SG.Relevant.accuracy ~identified:[ 1 ] ~truth:[ 1; 2 ]);
  check_float "empty truth" 1.0 (SG.Relevant.accuracy ~identified:[] ~truth:[])

(* ---- Attack_graph ------------------------------------------------------------ *)

let test_attack_graph_covers_relevant () =
  let a = Lazy.force fr_analysis in
  let ag = a.SG.Pipeline.attack_graph in
  List.iter
    (fun b -> check_bool "relevant in graph" true (List.mem b ag.SG.Attack_graph.nodes))
    a.SG.Pipeline.info.SG.Relevant.relevant

let test_attack_graph_restores_paths () =
  let a = Lazy.force fr_analysis in
  let ag = a.SG.Pipeline.attack_graph in
  (* the flush and reload blocks are connected through restored interiors *)
  check_bool "interior blocks restored" true
    (List.length ag.SG.Attack_graph.nodes
    > List.length a.SG.Pipeline.info.SG.Relevant.relevant);
  check_bool "edges restored" true (ag.SG.Attack_graph.edges <> []);
  (* spanning forest has fewer edges than nodes *)
  check_bool "forest bound" true
    (List.length ag.SG.Attack_graph.tree_edges
    < max 1 (List.length a.SG.Pipeline.info.SG.Relevant.relevant))

let test_attack_graph_empty_for_no_relevant () =
  let cfg =
    Cfg.Graph.of_program
      (Isa.Program.assemble ~name:"nop" [ Isa.Program.Ins Isa.Instr.Halt ])
  in
  let ag = SG.Attack_graph.build cfg ~hpc:[| 0.0 |] ~relevant:[] in
  check_bool "empty" true (ag.SG.Attack_graph.nodes = [])

(* ---- Cst ----------------------------------------------------------------------- *)

let test_cst_starts_full () =
  let cst = SG.Cst.measure [] in
  check_float "IO=1" 1.0 cst.SG.Cst.before.Cache.State.io;
  check_float "AO=0" 0.0 cst.SG.Cst.before.Cache.State.ao;
  check_float "no accesses, no change" 0.0 (SG.Cst.change_magnitude cst)

let test_cst_loads_shift_occupancy () =
  let accesses = List.init 30 (fun i -> (i * 64, Hpc.Collector.Load)) in
  let cst = SG.Cst.measure accesses in
  check_bool "AO grew" true (cst.SG.Cst.after.Cache.State.ao > 0.2);
  check_bool "IO shrank" true (cst.SG.Cst.after.Cache.State.io < 0.8);
  check_bool "magnitude meaningful" true (SG.Cst.change_magnitude cst > 0.1)

let test_cst_flushes_reduce_io () =
  let accesses = List.init 10 (fun i -> (i * 64, Hpc.Collector.Flush)) in
  let cst = SG.Cst.measure accesses in
  check_float "AO untouched" 0.0 cst.SG.Cst.after.Cache.State.ao;
  check_bool "IO reduced" true (cst.SG.Cst.after.Cache.State.io < 1.0)

let test_cst_distance () =
  let heavy = SG.Cst.measure (List.init 100 (fun i -> (i * 64, Hpc.Collector.Load))) in
  let light = SG.Cst.measure [ (0, Hpc.Collector.Load) ] in
  check_float "self distance" 0.0 (SG.Cst.distance heavy heavy);
  check_bool "heavy vs light large" true (SG.Cst.distance heavy light > 0.3)

(* ---- Distance -------------------------------------------------------------------- *)

let entry_of_instrs ?(accesses = []) instrs =
  SG.Model.make_entry ~block:0 ~instrs
    ~normalized:(Isa.Normalize.sequence instrs)
    ~cst:(SG.Cst.measure accesses) ~first_time:0

let test_entry_distance_bounds () =
  let e1 = entry_of_instrs [ Isa.Instr.Nop; Isa.Instr.Rdtsc ] in
  let e2 =
    entry_of_instrs
      [ Isa.Instr.Clflush (Isa.Operand.abs 0); Isa.Instr.Mfence ]
      ~accesses:(List.init 50 (fun i -> (i * 64, Hpc.Collector.Load)))
  in
  let d = SG.Distance.entry_distance e1 e2 in
  check_bool "in [0,1]" true (d >= 0.0 && d <= 1.0);
  check_float "identity" 0.0 (SG.Distance.entry_distance e1 e1)

let test_entry_distance_alpha () =
  let e1 = entry_of_instrs [ Isa.Instr.Nop ] in
  let e2 =
    entry_of_instrs [ Isa.Instr.Rdtsc ]
      ~accesses:(List.init 50 (fun i -> (i * 64, Hpc.Collector.Load)))
  in
  let syntax_only = SG.Distance.entry_distance ~alpha:1.0 e1 e2 in
  let cst_only = SG.Distance.entry_distance ~alpha:0.0 e1 e2 in
  check_float "syntax only = IS" 1.0 syntax_only;
  check_bool "cst only matches csp term" true (cst_only > 0.0 && cst_only < 1.0)

(* ---- Dtw ---------------------------------------------------------------------------- *)

(* A model whose entries share one token and whose CSTs have the given
   cache-change magnitudes, so at alpha = 0 a DTW step costs exactly the
   magnitude difference.  Dyadic magnitudes keep every float exact. *)
let mag_model mags =
  SG.Model.make ~name:"mags"
    (List.map
       (fun x ->
         SG.Model.make_entry ~block:0 ~instrs:[] ~normalized:[| "load m" |]
           ~cst:
             { SG.Cst.before = Cache.State.full_other;
               after = Cache.State.make ~ao:x ~io:(1.0 -. x) }
           ~first_time:0)
       mags)

(* 1/(1+D) of the raw accumulated distance D over magnitude sequences *)
let raw_sim a b = SG.Dtw.compare_models_raw ~alpha:0.0 (mag_model a) (mag_model b)

let mags_arb = QCheck.(list (float_range 0.0 1.0))

let test_dtw_known_values () =
  check_float "identical" 1.0 (raw_sim [ 0.25; 0.5 ] [ 0.25; 0.5 ]);
  check_float "both empty" 0.0 (raw_sim [] []);
  check_float "one empty" 0.0 (raw_sim [ 0.25 ] []);
  (* classic alignment: [a;b;c] vs [a;b;b;c] aligns the repeated b at cost 0 *)
  check_float "warp absorbs repeats" 1.0
    (raw_sim [ 0.25; 0.5; 0.75 ] [ 0.25; 0.5; 0.5; 0.75 ]);
  check_float "substitution cost" (1.0 /. 1.25) (raw_sim [ 0.25; 0.5 ] [ 0.25; 0.75 ])

let test_dtw_normalized_bounds () =
  let d =
    SG.Dtw.compare_models ~alpha:0.0 (mag_model [ 0.0; 1.0; 0.0 ])
      (mag_model [ 1.0; 0.0; 1.0; 0.0 ])
  in
  check_bool "in [0,1]" true (d >= 0.0 && d <= 1.0)

let prop_dtw_symmetric =
  QCheck.Test.make ~name:"dtw symmetric" ~count:100 QCheck.(pair mags_arb mags_arb)
    (fun (a, b) ->
      let d1 = raw_sim a b and d2 = raw_sim b a in
      d1 = d2 || abs_float (d1 -. d2) < 1e-9)

let prop_dtw_identity =
  QCheck.Test.make ~name:"dtw self distance zero" ~count:100 mags_arb (fun a ->
      a = [] || raw_sim a a = 1.0)

let test_similarity_conversion () =
  check_float "zero distance" 1.0 (SG.Dtw.similarity_of_distance 0.0);
  check_float "distance one" 0.5 (SG.Dtw.similarity_of_distance 1.0);
  check_float "infinite" 0.0 (SG.Dtw.similarity_of_distance infinity)

(* Exhaustive reference DTW for tiny inputs: enumerate all monotone warping
   paths recursively. *)
let rec brute_dtw cost a b i j =
  let n = Array.length a and m = Array.length b in
  if i = n - 1 && j = m - 1 then cost a.(i) b.(j)
  else begin
    let c = cost a.(i) b.(j) in
    let candidates =
      (if i + 1 < n then [ brute_dtw cost a b (i + 1) j ] else [])
      @ (if j + 1 < m then [ brute_dtw cost a b i (j + 1) ] else [])
      @ (if i + 1 < n && j + 1 < m then [ brute_dtw cost a b (i + 1) (j + 1) ] else [])
    in
    c +. List.fold_left min infinity candidates
  end

let prop_dtw_matches_brute_force =
  QCheck.Test.make ~name:"dtw equals exhaustive search on small inputs" ~count:200
    QCheck.(pair
              (list_of_size (QCheck.Gen.int_range 1 5) (float_range 0.0 1.0))
              (list_of_size (QCheck.Gen.int_range 1 5) (float_range 0.0 1.0)))
    (fun (a, b) ->
      (* the cost runs over the magnitudes the CSTs actually carry *)
      let mags l = SG.Dtw.summary_mags (SG.Dtw.summarize (mag_model l)) in
      let brute = brute_dtw (fun x y -> abs_float (y -. x)) (mags a) (mags b) 0 0 in
      abs_float (raw_sim a b -. SG.Dtw.similarity_of_distance brute) < 1e-9)

(* ---- Model ----------------------------------------------------------------------------- *)

let test_model_ordered_by_time () =
  let a = Lazy.force fr_analysis in
  let times =
    List.map (fun e -> e.SG.Model.first_time) a.SG.Pipeline.model.SG.Model.entries
  in
  check_bool "non-decreasing" true (List.sort compare times = times);
  check_bool "non-empty" false (SG.Model.is_empty a.SG.Pipeline.model)

let test_model_self_similarity () =
  let m = (Lazy.force fr_analysis).SG.Pipeline.model in
  check_float "identical model" 1.0 (SG.Dtw.compare_models m m)

(* ---- Detector (end to end) ---------------------------------------------------------------- *)

let repo =
  lazy
    [
      { SG.Detector.family = "FR-F"; model = model_of_spec (A.flush_reload ~style:A.Iaik ()) };
      { SG.Detector.family = "PP-F"; model = model_of_spec (A.prime_probe ~style:A.Iaik ()) };
    ]

let test_detector_classifies_variant () =
  let target = model_of_spec (A.flush_reload ~style:A.Mastik ()) in
  let v = SG.Detector.classify (Lazy.force repo) target in
  Alcotest.(check (option string)) "classified FR" (Some "FR-F")
    v.SG.Detector.best_family;
  check_bool "is attack" true (SG.Detector.is_attack v)

let test_detector_scores_sorted () =
  let target = model_of_spec (A.evict_reload ()) in
  let prep = SG.Detector.prepare (Lazy.force repo) in
  (* the verdict's best ties agree with the head of the full matrix under
     the same alpha — the table `detect` prints above its verdict *)
  List.iter
    (fun alpha ->
      let all = SG.Detector.score_all ?alpha prep target in
      let scores = List.map (fun (_, _, s) -> s) all in
      check_bool "descending" true
        (List.sort (fun a b -> compare b a) scores = scores);
      check_int "two pocs" 2 (List.length scores);
      let v = SG.Detector.classify_prepared ?alpha prep target in
      check_float "best_score = head of score_all"
        (match scores with s :: _ -> s | [] -> nan)
        v.SG.Detector.best_score;
      check_bool "best_matches is the head of score_all" true
        (match (all, v.SG.Detector.best_matches) with
        | a :: _, b :: _ -> a = b
        | _ -> false);
      List.iter
        (fun (_, _, s) ->
          check_float "every match at best_score" v.SG.Detector.best_score s)
        v.SG.Detector.best_matches)
    [ None; Some 0.9; Some 0.0 ]

let test_detector_rejects_benign () =
  let benign =
    List.find
      (fun (s : D.sample) -> true && s.D.name <> "")
      (D.benign_samples ~rng:(Sutil.Rng.create 61) ~count:1)
  in
  let m = (analyze_sample benign).SG.Pipeline.model in
  let v = SG.Detector.classify (Lazy.force repo) m in
  check_bool "below threshold" true
    (v.SG.Detector.best_score < SG.Detector.default_threshold);
  check_bool "not attack" false (SG.Detector.is_attack v)

let test_detector_empty_repository () =
  let v = SG.Detector.classify [] (Lazy.force fr_analysis).SG.Pipeline.model in
  check_bool "benign verdict" false (SG.Detector.is_attack v);
  check_float "zero score" 0.0 v.SG.Detector.best_score

let test_detector_threshold_effect () =
  let target = model_of_spec (A.flush_reload ~style:A.Nepoche ()) in
  let strict = SG.Detector.classify ~threshold:0.999 (Lazy.force repo) target in
  let lax = SG.Detector.classify ~threshold:0.01 (Lazy.force repo) target in
  check_bool "strict rejects" false (SG.Detector.is_attack strict);
  check_bool "lax accepts" true (SG.Detector.is_attack lax)

let test_meltdown_detected_cross_family () =
  (* a transient attack family absent from the repository is still flagged
     via its Flush+Reload recovery behavior (zero-day scenario) *)
  let m = model_of_spec (A.meltdown_fr ()) in
  let v = SG.Detector.classify (Lazy.force repo) m in
  check_bool "flagged" true (SG.Detector.is_attack v)

let test_scenario_ordering () =
  (* the Table V shape: same-implementation family closest, benign far *)
  let fr = model_of_spec (A.flush_reload ~style:A.Iaik ()) in
  let fr' = model_of_spec (A.flush_reload ~style:A.Mastik ()) in
  let pp = model_of_spec (A.prime_probe ~style:A.Iaik ()) in
  let s1 = SG.Dtw.compare_models fr fr' in
  let s3 = SG.Dtw.compare_models fr pp in
  check_bool "S1 > S3" true (s1 > s3);
  check_bool "S1 high" true (s1 > 0.8);
  check_bool "S3 above benign band" true (s3 > 0.5)

let test_empty_model_pipeline () =
  (* a program with no cache-relevant behavior yields an empty model that
     classifies as benign against any repository *)
  let prog =
    Isa.Program.assemble ~name:"alu-only"
      (List.map (fun i -> Isa.Program.Ins i)
         [ Isa.Instr.Mov (Isa.Operand.reg Isa.Reg.RAX, Isa.Operand.imm 1);
           Isa.Instr.Add (Isa.Operand.reg Isa.Reg.RAX, Isa.Operand.imm 2);
           Isa.Instr.Halt ])
  in
  let a = SG.Pipeline.run_and_analyze prog in
  check_bool "empty model" true (SG.Model.is_empty a.SG.Pipeline.model);
  let v = SG.Detector.classify (Lazy.force repo) a.SG.Pipeline.model in
  check_bool "benign verdict" false (SG.Detector.is_attack v)

let test_threshold_monotonicity () =
  (* a stricter threshold never flags more programs *)
  let rng = Sutil.Rng.create 777 in
  let targets =
    List.map (fun s -> (analyze_sample s).SG.Pipeline.model)
      (D.mutated_attacks ~rng ~count:2 L.Fr_family
      @ D.benign_samples ~rng ~count:2)
  in
  let flagged t =
    List.length
      (List.filter
         (fun m -> SG.Detector.is_attack (SG.Detector.classify ~threshold:t (Lazy.force repo) m))
         targets)
  in
  let counts = List.map flagged [ 0.1; 0.3; 0.5; 0.7; 0.9 ] in
  check_bool "monotonically non-increasing" true
    (List.sort (fun a b -> compare b a) counts = counts)

(* ---- Cluster -------------------------------------------------------------------------- *)

let test_clustering_recovers_families () =
  let labelled =
    List.map
      (fun (s : A.spec) -> (model_of_spec s, s.A.label))
      (A.base_pocs ())
  in
  let clusters =
    SG.Cluster.by_similarity ~threshold:0.85 (List.map fst labelled)
  in
  check_int "four families discovered" 4 (List.length clusters);
  (* every cluster is label-pure *)
  List.iter
    (fun cluster ->
      let labels =
        List.sort_uniq compare
          (List.map
             (fun m ->
               L.to_string (List.assq m labelled))
             cluster)
      in
      check_int "label-pure cluster" 1 (List.length labels))
    clusters

let test_pairwise_count () =
  let ms =
    List.filteri (fun i _ -> i < 4)
      (List.map (fun (s : A.spec) -> model_of_spec s) (A.base_pocs ()))
  in
  check_int "n*(n-1)/2 pairs" 6 (List.length (SG.Cluster.pairwise ms))

let test_curated_repository_detects () =
  (* build the repository from mutated samples (no hand-picked PoCs), then
     classify fresh variants with it *)
  let rng = Sutil.Rng.create 321 in
  let model_of_sample (s : D.sample) = (analyze_sample s).SG.Pipeline.model in
  let samples =
    List.concat_map
      (fun l ->
        List.map
          (fun s -> (L.to_string l, model_of_sample s))
          (D.mutated_attacks ~rng ~count:3 l))
      [ L.Fr_family; L.Pp_family ]
  in
  let repo = SG.Cluster.curate_repository ~threshold:0.85 samples in
  check_bool "repository is compact" true
    (List.length repo <= List.length samples);
  check_bool "has both families" true
    (List.exists (fun p -> p.SG.Detector.family = "FR-F") repo
    && List.exists (fun p -> p.SG.Detector.family = "PP-F") repo);
  (* fresh variants classify correctly through the curated repository *)
  let fresh l = model_of_sample (List.hd (D.mutated_attacks ~rng ~count:1 l)) in
  let verdict l = SG.Detector.classify repo (fresh l) in
  Alcotest.(check (option string)) "fresh FR" (Some "FR-F")
    (verdict L.Fr_family).SG.Detector.best_family;
  Alcotest.(check (option string)) "fresh PP" (Some "PP-F")
    (verdict L.Pp_family).SG.Detector.best_family

let test_medoid_is_most_central () =
  let ms =
    List.map (fun (s : A.spec) -> model_of_spec s)
      [ A.flush_reload ~style:A.Iaik (); A.flush_reload ~style:A.Mastik ();
        A.flush_reload ~style:A.Nepoche () ]
  in
  let m = SG.Cluster.medoid ms in
  check_bool "medoid from the cluster" true (List.memq m ms)

(* ---- The Limitation scenario (section V) ---------------------------------------------- *)

let test_guarded_attack_limitation () =
  let base = A.flush_reload ~style:A.Iaik () in
  let guarded = A.with_input_guard base in
  let model_with init =
    let res = Cpu.Exec.run ~init ?victim:guarded.A.victim guarded.A.program in
    (SG.Pipeline.analyze ~name:guarded.A.name ~program:guarded.A.program res)
      .SG.Pipeline.model
  in
  let repository = Lazy.force repo in
  (* untriggered: the attack body never runs; dynamic modeling misses it *)
  let untriggered = model_with guarded.A.init in
  let v1 = SG.Detector.classify repository untriggered in
  check_bool "untriggered run evades detection (the paper's limitation)"
    false (SG.Detector.is_attack v1);
  (* triggered: the same binary is detected *)
  let triggered = model_with (A.triggering_init guarded.A.init) in
  let v2 = SG.Detector.classify repository triggered in
  check_bool "triggered run is detected" true (SG.Detector.is_attack v2);
  (match v2.SG.Detector.best_family with
  | Some f -> Alcotest.(check string) "right family" "FR-F" f
  | None -> Alcotest.fail "expected a family")

(* ---- Empty-model regression (bug: empty vs empty scored 1.0) -------------------------- *)

let empty_model = SG.Model.make ~name:"empty" []

let test_empty_model_similarity_zero () =
  check_float "empty vs empty" 0.0 (SG.Dtw.compare_models empty_model empty_model);
  let fr = (Lazy.force fr_analysis).SG.Pipeline.model in
  check_float "empty vs nonempty" 0.0 (SG.Dtw.compare_models empty_model fr);
  check_float "nonempty vs empty" 0.0 (SG.Dtw.compare_models fr empty_model);
  check_float "raw mapping too" 0.0 (SG.Dtw.compare_models_raw empty_model empty_model)

let test_empty_target_never_attack () =
  (* regression: a repository containing an empty PoC model must not classify
     an empty target as a perfect-score attack *)
  let repo =
    { SG.Detector.family = "XX"; model = empty_model } :: Lazy.force repo
  in
  let v = SG.Detector.classify repo empty_model in
  check_bool "not an attack" false (SG.Detector.is_attack v);
  check_float "score 0" 0.0 v.SG.Detector.best_score

(* ---- Tie-break regression (bug: ties resolved by repository order) -------------------- *)

let test_classify_tie_break_deterministic () =
  let m = (Lazy.force fr_analysis).SG.Pipeline.model in
  let pz = { SG.Detector.family = "ZZ"; model = m } in
  let pa = { SG.Detector.family = "AA"; model = m } in
  let v1 = SG.Detector.classify [ pz; pa ] m in
  let v2 = SG.Detector.classify [ pa; pz ] m in
  (* both PoCs score 1.0; the verdict must not depend on assembly order *)
  Alcotest.(check (option string)) "first order" (Some "AA") v1.SG.Detector.best_family;
  Alcotest.(check (option string)) "swapped order" (Some "AA") v2.SG.Detector.best_family;
  check_bool "identical match lists" true
    (v1.SG.Detector.best_matches = v2.SG.Detector.best_matches);
  (* both tied PoCs are reported, family-ordered *)
  Alcotest.(check (list string)) "both ties present, deterministic order"
    [ "AA"; "ZZ" ]
    (List.map (fun (_, f, _) -> f) v1.SG.Detector.best_matches)

(* ---- Batch engine --------------------------------------------------------------------- *)

let test_batch_matches_sequential () =
  let repository = Lazy.force repo in
  let targets =
    [|
      model_of_spec (A.flush_reload ~style:A.Mastik ());
      model_of_spec (A.evict_reload ());
      model_of_spec (A.prime_probe ~style:A.Jzhang ());
      empty_model;
    |]
  in
  let seq = Array.map (SG.Detector.classify repository) targets in
  let par, _, stats =
    SG.Engine.classify_batch ~domains:4 (SG.Detector.prepare repository) targets
  in
  check_bool "Engine.classify_batch byte-identical" true (par = seq);
  check_int "pairs = targets x pocs"
    (Array.length targets * List.length repository)
    stats.SG.Engine.pairs;
  check_int "every target classified once"
    (Array.length targets)
    (Array.fold_left ( + ) 0 stats.SG.Engine.per_worker);
  check_bool "cells counted" true (stats.SG.Engine.cells > 0)

(* random CST-BBS models for the property tests *)
let model_gen =
  let open QCheck.Gen in
  let unit_float = map (fun i -> float_of_int i /. 1000.0) (int_range 0 1000) in
  let token =
    (* includes the writer's worst cases: empty tokens, embedded newlines,
       backslashes, and the literal spelling of the empty-token escape *)
    oneofl
      [
        "load m"; "store m"; "clflush m"; "mov r r"; "rdtsc"; "mfence";
        ""; "new\nline"; "back\\slash"; "\\_";
      ]
  in
  let cst =
    let* ao = unit_float in
    let* io = map (fun f -> f *. (1.0 -. ao)) unit_float in
    let* ao' = unit_float in
    let* io' = map (fun f -> f *. (1.0 -. ao')) unit_float in
    return
      {
        SG.Cst.before = Cache.State.make ~ao ~io;
        after = Cache.State.make ~ao:ao' ~io:io';
      }
  in
  let entry =
    let* block = int_range 0 50 in
    let* first_time = oneof [ int_range 0 10_000; return max_int ] in
    let* cst = cst in
    (* sizes include 1: single-token entries round-trip too *)
    let* normalized = list_size (int_range 1 5) token in
    return
      (SG.Model.make_entry ~block ~instrs:[]
         ~normalized:(Array.of_list normalized) ~cst ~first_time)
  in
  let* name = oneofl [ "m"; "poc-a"; "fr mastik"; "x_1"; "evil\nname"; "" ] in
  let* entries = list_size (int_range 0 5) entry in
  return (SG.Model.make ~name entries)

let model_arb = QCheck.make ~print:(fun m -> SG.Persist.model_to_string m) model_gen

(* ---- Dtw banding --------------------------------------------------------------------- *)

let test_band_bailout () =
  (* lengths differing by more than the band: no in-band path, no DP work *)
  let one = mag_model [ 0.25 ] and five = mag_model [ 0.25; 0.25; 0.25; 0.25; 0.25 ] in
  check_float "raw similarity 0" 0.0 (SG.Dtw.compare_models_raw ~band:1 one five);
  check_float "similarity 0" 0.0 (SG.Dtw.compare_models ~band:1 one five);
  let ws = SG.Dtw.workspace () in
  check_bool "summaries bail out to 0" true
    (SG.Dtw.compare_summaries ~ws ~band:1 (SG.Dtw.summarize one)
       (SG.Dtw.summarize five)
    = Some 0.0);
  check_int "no DP cells" 0 (SG.Dtw.cells_computed ws)

let prop_band_full_width_exact =
  QCheck.Test.make ~name:"full-width band equals unbanded dtw" ~count:200
    QCheck.(pair model_arb model_arb)
    (fun (a, b) ->
      let band = max (SG.Model.length a) (SG.Model.length b) in
      SG.Dtw.compare_models a b = SG.Dtw.compare_models ~band a b
      && SG.Dtw.compare_models_raw a b = SG.Dtw.compare_models_raw ~band a b)

let prop_band_never_below_exact =
  QCheck.Test.make ~name:"banded dtw is an upper bound" ~count:200
    QCheck.(pair model_arb model_arb)
    (fun (a, b) ->
      (* a band only removes paths: the raw distance never falls *)
      SG.Dtw.compare_models_raw ~band:1 a b <= SG.Dtw.compare_models_raw a b)

let prop_workspace_identical =
  QCheck.Test.make ~name:"workspace reuse never changes dtw results" ~count:100
    QCheck.(pair model_arb model_arb)
    (fun (a, b) ->
      let ws = SG.Dtw.workspace () in
      (* two ws calls so the second sees dirty buffers *)
      ignore (SG.Dtw.compare_models ~ws b a);
      SG.Dtw.compare_models ~ws a b = SG.Dtw.compare_models a b
      && SG.Dtw.compare_models_raw ~ws a b = SG.Dtw.compare_models_raw a b)

let entry_equal (a : SG.Model.entry) (b : SG.Model.entry) =
  a.SG.Model.block = b.SG.Model.block
  && a.SG.Model.first_time = b.SG.Model.first_time
  && a.SG.Model.normalized = b.SG.Model.normalized
  && a.SG.Model.cst = b.SG.Model.cst

let prop_persist_roundtrip =
  QCheck.Test.make ~name:"persist round-trips arbitrary models" ~count:200
    model_arb
    (fun m ->
      let m' =
        ok_exn (SG.Persist.model_of_string_result (SG.Persist.model_to_string m))
      in
      m.SG.Model.name = m'.SG.Model.name
      && List.length m.SG.Model.entries = List.length m'.SG.Model.entries
      && List.for_all2 entry_equal m.SG.Model.entries m'.SG.Model.entries)

let prop_persist_repository_roundtrip =
  QCheck.Test.make ~name:"persist round-trips arbitrary repositories" ~count:50
    QCheck.(
      list_of_size (Gen.int_range 0 4)
        (pair (oneofl [ "FR-F"; "PP-F"; "fam x"; "fam\nnl" ]) model_arb))
    (fun pocs ->
      let repository =
        List.map (fun (family, model) -> { SG.Detector.family; model }) pocs
      in
      let loaded =
        ok_exn
          (SG.Persist.repository_of_string_result
             (SG.Persist.repository_to_string repository))
      in
      List.length repository = List.length loaded
      && List.for_all2
           (fun (a : SG.Detector.poc) (b : SG.Detector.poc) ->
             a.SG.Detector.family = b.SG.Detector.family
             && a.SG.Detector.model.SG.Model.name
                = b.SG.Detector.model.SG.Model.name
             && List.for_all2 entry_equal a.SG.Detector.model.SG.Model.entries
                  b.SG.Detector.model.SG.Model.entries)
           repository loaded)

let prop_batch_equals_sequential =
  QCheck.Test.make ~name:"classify_batch equals sequential classify" ~count:60
    QCheck.(
      pair
        (list_of_size (Gen.int_range 0 4)
           (pair (oneofl [ "FR-F"; "PP-F"; "S-FR" ]) model_arb))
        (list_of_size (Gen.int_range 0 6) model_arb))
    (fun (pocs, targets) ->
      let repository =
        List.map (fun (family, model) -> { SG.Detector.family; model }) pocs
      in
      let targets = Array.of_list targets in
      let seq = Array.map (SG.Detector.classify repository) targets in
      let eng, _, _ =
        SG.Engine.classify_batch ~domains:3 (SG.Detector.prepare repository)
          targets
      in
      eng = seq)

(* ---- Pruning cascade (exactness invariants) -------------------------------------------- *)

(* alphas on the sound [0,1] grid, including both pure-term endpoints *)
let alpha_gen = QCheck.Gen.map (fun i -> float_of_int i /. 10.0) (QCheck.Gen.int_range 0 10)
let alpha_arb = QCheck.make ~print:string_of_float alpha_gen

let prop_lower_bound_sound =
  QCheck.Test.make ~name:"every lower bound <= true normalized dtw distance"
    ~count:300
    QCheck.(triple model_arb model_arb alpha_arb)
    (fun (m1, m2, alpha) ->
      let lb = SG.Dtw.lower_bound ~alpha (SG.Dtw.summarize m1) (SG.Dtw.summarize m2) in
      if SG.Model.is_empty m1 || SG.Model.is_empty m2 then lb = 0.0
      else
        let dnorm = 1.0 -. SG.Dtw.compare_models ~alpha m1 m2 in
        (* 1e-9 is the pruning margin: a bound may exceed the true distance
           by float rounding at most, which the margin absorbs *)
        lb <= dnorm +. 1e-9)

let prop_cutoff_abandon_sound =
  QCheck.Test.make
    ~name:"?cutoff dp returns infinity only when distance exceeds cutoff"
    ~count:300
    QCheck.(triple model_arb model_arb (float_range 0.0 1.0))
    (fun (a, b, cutoff) ->
      (* a pair is resolved to None only when its score misses the cutoff *)
      let exact = SG.Dtw.compare_models a b in
      match SG.Dtw.compare_summaries ~cutoff (SG.Dtw.summarize a) (SG.Dtw.summarize b) with
      | None -> exact < cutoff
      | Some s -> s = exact)

(* ---- DTW reference (the scoring kernel against test/refdtw) ------------------------ *)

(* Tokens from a small pool, 0-7 per entry, and CSTs on a quarter grid, so
   equal tokens, equal costs and tied predecessors all happen. *)
let grid_model_gen =
  let open QCheck.Gen in
  let token = oneofl [ "load m"; "store m"; "clflush m"; "rdtsc" ] in
  let state =
    let* ao = int_range 0 4 in
    let* io = int_range 0 (4 - ao) in
    return
      (Cache.State.make ~ao:(float_of_int ao /. 4.0) ~io:(float_of_int io /. 4.0))
  in
  let entry =
    let* before = state in
    let* after = state in
    let* toks = list_size (int_range 0 7) token in
    return
      (SG.Model.make_entry ~block:0 ~instrs:[] ~normalized:(Array.of_list toks)
         ~cst:{ SG.Cst.before; after } ~first_time:0)
  in
  let* entries = list_size (int_range 0 20) entry in
  return (SG.Model.make ~name:"grid" entries)

(* Independent pairs, and pairs where one model is the other with entries
   dropped, so high scores, abandonment and lower-bound pruning all show. *)
let grid_pair_gen =
  let open QCheck.Gen in
  frequency
    [
      (3, pair grid_model_gen grid_model_gen);
      ( 1,
        let* m = grid_model_gen in
        let* keep = list_repeat (List.length m.SG.Model.entries) bool in
        let kept = List.filteri (fun i _ -> List.nth keep i) m.SG.Model.entries in
        return (m, SG.Model.make ~name:"drop" kept) );
    ]

let ref_alpha_gen =
  QCheck.Gen.(
    frequency
      [ (10, map (fun i -> float_of_int i /. 10.0) (int_range 0 10)); (1, return 1.5) ])

(* [`Above d] puts the cutoff [d] above the pair's own score, so the pair
   is pruned or abandoned, or (at [d = 0]) ties the boundary *)
let ref_cutoff_gen =
  QCheck.Gen.(
    oneof
      [
        return `None;
        map (fun i -> `Grid (float_of_int i /. 20.0)) (int_range 0 20);
        map (fun d -> `Above d) (oneofl [ 0.0; 1e-12; 0.01; 0.05; 0.1; 0.3 ]);
      ])

let bits_equal a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let opt_bits_equal a b =
  match (a, b) with
  | None, None -> true
  | Some x, Some y -> bits_equal x y
  | _ -> false

(* One dirty workspace per side, shared by every case and both orientations *)
let kernel_ws = SG.Dtw.workspace ()
let ref_ws = Refdtw.Dtw.workspace ()

let counters_equal () =
  let k = kernel_ws and r = ref_ws in
  SG.Dtw.pairs_scored k = Refdtw.Dtw.pairs_scored r
  && SG.Dtw.cells_computed k = Refdtw.Dtw.cells_computed r
  && SG.Dtw.pairs_pruned_lb k = Refdtw.Dtw.pairs_pruned_lb r
  && SG.Dtw.pairs_abandoned k = Refdtw.Dtw.pairs_abandoned r
  && SG.Dtw.cells_saved k = Refdtw.Dtw.cells_saved r
  && SG.Dtw.lb_evals k = Refdtw.Dtw.lb_evals r

let same_as_ref_dtw ~alpha ~band ~cutoff m1 m2 =
  let kws = kernel_ws and rws = ref_ws in
  let fail fmt = QCheck.Test.fail_reportf fmt in
  let sa = SG.Dtw.summarize m1 and sb = SG.Dtw.summarize m2 in
  let ra = Refdtw.Dtw.summarize m1 and rb = Refdtw.Dtw.summarize m2 in
  let lb = SG.Dtw.lower_bound ~ws:kws ~alpha sa sb in
  let rlb = Refdtw.Dtw.lower_bound ~ws:rws ~alpha ra rb in
  if not (bits_equal lb rlb) then fail "lower_bound %h <> %h" lb rlb;
  let full = SG.Dtw.compare_summaries ~ws:kws ?band ~alpha sa sb in
  let rfull = Refdtw.Dtw.compare_summaries ~ws:rws ?band ~alpha ra rb in
  if not (opt_bits_equal full rfull) then fail "compare_summaries differs";
  let cutoff =
    match (cutoff, rfull) with
    | `None, _ -> None
    | `Grid c, _ -> Some c
    | `Above d, Some s -> Some (s +. d)
    | `Above _, None -> None
  in
  let cut = SG.Dtw.compare_summaries ~ws:kws ?band ~alpha ?cutoff sa sb in
  let rcut = Refdtw.Dtw.compare_summaries ~ws:rws ?band ~alpha ?cutoff ra rb in
  if not (opt_bits_equal cut rcut) then fail "compare_summaries ?cutoff differs";
  let pre = SG.Dtw.compare_summaries ~ws:kws ?band ~alpha ?cutoff ~lb sa sb in
  let rpre = Refdtw.Dtw.compare_summaries ~ws:rws ?band ~alpha ?cutoff ~lb:rlb ra rb in
  if not (opt_bits_equal pre rpre) then fail "compare_summaries ?lb differs";
  let score = SG.Dtw.compare_models ~ws:kws ?band ~alpha m1 m2 in
  let rscore = Refdtw.Dtw.compare_models ~ws:rws ?band ~alpha m1 m2 in
  let sscore = Refdtw.Dtw.compare_models ~interned:false ?band ~alpha m1 m2 in
  if not (bits_equal score rscore && bits_equal score sscore) then
    fail "compare_models %h, reference %h, string tokens %h" score rscore sscore;
  if not (bits_equal score (SG.Dtw.compare_models ?band ~alpha m1 m2)) then
    fail "compare_models differs without a workspace";
  let raw = SG.Dtw.compare_models_raw ~ws:kws ?band ~alpha m1 m2 in
  let rraw = Refdtw.Dtw.compare_models_raw ~ws:rws ?band ~alpha m1 m2 in
  let sraw = Refdtw.Dtw.compare_models_raw ~interned:false ?band ~alpha m1 m2 in
  if not (bits_equal raw rraw && bits_equal raw sraw) then
    fail "compare_models_raw %h, reference %h, string tokens %h" raw rraw sraw;
  if not (counters_equal ()) then fail "workspace counters differ";
  true

(* Steady-state scoring allocates a constant per call, whatever the model
   size: with a warm workspace a call's minor words are equal for 1- and
   20-entry models, and small. *)
let test_warm_scoring_allocation () =
  let model n =
    SG.Model.make ~name:"alloc"
      (List.init n (fun i ->
           SG.Model.make_entry ~block:i ~instrs:[]
             ~normalized:
               (Array.init (3 + (i mod 4)) (fun k ->
                    if (i + k) mod 3 = 0 then "load m" else "mov r r"))
             ~cst:
               { SG.Cst.before = Cache.State.full_other;
                 after =
                   Cache.State.make ~ao:(float_of_int (i mod 5) /. 8.0)
                     ~io:(1.0 -. (float_of_int (i mod 5) /. 8.0)) }
             ~first_time:i))
  in
  let ws = SG.Dtw.workspace () in
  let reversed m = SG.Model.make ~name:"rev" (List.rev m.SG.Model.entries) in
  let s1 = SG.Dtw.summarize (model 1) and s20 = SG.Dtw.summarize (model 20) in
  let s20' = SG.Dtw.summarize (reversed (model 20)) in
  let per_call f =
    ignore (Sys.opaque_identity (f ()));
    let reps = 100 in
    let before = Gc.minor_words () in
    for _ = 1 to reps do
      ignore (Sys.opaque_identity (f ()))
    done;
    Float.round ((Gc.minor_words () -. before) /. float_of_int reps)
  in
  let scored a b = per_call (fun () -> SG.Dtw.compare_summaries ~ws a b) in
  let bounded a b = per_call (fun () -> SG.Dtw.lower_bound ~ws a b) in
  let small = scored s1 s1 and large = scored s20 s20' in
  Alcotest.(check (float 0.0)) "compare_summaries: 1 entry = 20 entries" small large;
  check_bool (Printf.sprintf "compare_summaries: %g words < 32" large) true (large < 32.0);
  let small = bounded s1 s1 and large = bounded s20 s20' in
  Alcotest.(check (float 0.0)) "lower_bound: 1 entry = 20 entries" small large;
  check_bool (Printf.sprintf "lower_bound: %g words < 32" large) true (large < 32.0)

let prop_dtw_reference =
  QCheck.Test.make ~name:"scoring kernel equals the reference bit for bit"
    ~count:2000
    (QCheck.make
       ~print:(fun ((m1, m2), _) ->
         SG.Persist.model_to_string m1 ^ "--\n" ^ SG.Persist.model_to_string m2)
       QCheck.Gen.(
         pair grid_pair_gen
           (triple ref_alpha_gen (opt (int_range 0 6)) ref_cutoff_gen)))
    (fun ((m1, m2), (alpha, band, cutoff)) ->
      same_as_ref_dtw ~alpha ~band ~cutoff m1 m2
      && same_as_ref_dtw ~alpha ~band ~cutoff m2 m1)

let repo_arb =
  QCheck.(
    list_of_size (Gen.int_range 0 5)
      (pair (oneofl [ "FR-F"; "PP-F"; "S-FR"; "EV-F" ]) model_arb))

let band_arb =
  QCheck.(option (int_range 0 6))

let prop_classify_prune_identical =
  QCheck.Test.make
    ~name:"classify with pruning equals pruning disabled, verdict for verdict"
    ~count:120
    QCheck.(pair (pair repo_arb (list_of_size (Gen.int_range 0 5) model_arb))
              (pair alpha_arb band_arb))
    (fun ((pocs, targets), (alpha, band)) ->
      let repository =
        List.map (fun (family, model) -> { SG.Detector.family; model }) pocs
      in
      List.for_all
        (fun target ->
          SG.Detector.classify ~alpha ?band ~prune:true repository target
          = SG.Detector.classify ~alpha ?band ~prune:false repository target)
        targets)

let prop_engine_prune_identical =
  QCheck.Test.make
    ~name:"engine batch with pruning equals pruning disabled" ~count:40
    QCheck.(pair repo_arb (list_of_size (Gen.int_range 0 5) model_arb))
    (fun (pocs, targets) ->
      let repository =
        List.map (fun (family, model) -> { SG.Detector.family; model }) pocs
      in
      let targets = Array.of_list targets in
      let prep = SG.Detector.prepare repository in
      let on, _, son =
        SG.Engine.classify_batch ~domains:3 ~prune:true prep targets
      in
      let off, _, soff =
        SG.Engine.classify_batch ~domains:3 ~prune:false prep targets
      in
      on = off
      (* pairs counts considered pairs, pruned or not *)
      && son.SG.Engine.pairs = soff.SG.Engine.pairs
      && soff.SG.Engine.pairs_pruned_lb = 0
      && soff.SG.Engine.pairs_abandoned = 0
      && soff.SG.Engine.cells_saved = 0)

let test_classify_prepared_reuse () =
  let repository = Lazy.force repo in
  let prep = SG.Detector.prepare repository in
  check_int "prepared size" (List.length repository)
    (SG.Detector.prepared_size prep);
  List.iter
    (fun spec ->
      let target = model_of_spec spec in
      check_bool "prepared classify = classify" true
        (SG.Detector.classify_prepared prep target
        = SG.Detector.classify repository target))
    [ A.flush_reload ~style:A.Mastik (); A.evict_reload () ]

(* ---- Repository index (Vpindex) -------------------------------------------------------- *)

let index_spec_gen =
  QCheck.Gen.(
    let* leaf = int_range 2 6 in
    let* pivots = int_range 1 4 in
    let* seed = int_range 0 10_000 in
    return { SG.Vpindex.mode = SG.Vpindex.Force; leaf; pivots; seed })

let index_spec_arb =
  QCheck.make
    ~print:(fun (s : SG.Vpindex.spec) ->
      Printf.sprintf "leaf=%d pivots=%d seed=%d" s.SG.Vpindex.leaf
        s.SG.Vpindex.pivots s.SG.Vpindex.seed)
    index_spec_gen

(* small repositories give trees of a leaf or a few; the >64-model ones
   split many times *)
let indexed_repo_arb ~lo ~hi =
  QCheck.(
    list_of_size
      (Gen.int_range lo hi)
      (pair (oneofl [ "FR-F"; "PP-F"; "S-FR"; "EV-F" ]) model_arb))

let prop_indexed_classify_identical ~name ~count ~lo ~hi =
  QCheck.Test.make ~name ~count
    QCheck.(
      pair
        (pair (indexed_repo_arb ~lo ~hi) (list_of_size (Gen.int_range 1 3) model_arb))
        (pair index_spec_arb (pair alpha_arb band_arb)))
    (fun ((pocs, targets), (spec, (alpha, band))) ->
      let repository =
        List.map (fun (family, model) -> { SG.Detector.family; model }) pocs
      in
      let linear = SG.Detector.prepare repository in
      let indexed = SG.Detector.prepare ~index:spec repository in
      List.for_all
        (fun target ->
          SG.Detector.classify_prepared ~alpha ?band indexed target
          = SG.Detector.classify_prepared ~alpha ?band linear target
          && SG.Detector.score_all ~alpha ?band indexed target
             = SG.Detector.score_all ~alpha ?band linear target)
        targets)

let prop_index_small_identical =
  prop_indexed_classify_identical
    ~name:"indexed classify/score_all equal linear (small repository)"
    ~count:60 ~lo:0 ~hi:5

let prop_index_tree_identical =
  prop_indexed_classify_identical
    ~name:"indexed classify/score_all equal linear (vp tree)" ~count:10 ~lo:66
    ~hi:80

let prop_index_search_sound =
  QCheck.Test.make
    ~name:"index search skips a member only when its distance exceeds dmax"
    ~count:40
    QCheck.(
      pair
        (pair (list_of_size (Gen.int_range 0 70) model_arb) model_arb)
        (pair index_spec_arb (float_range 0.0 1.1)))
    (fun ((models, target), (spec, dmax)) ->
      let summaries =
        Array.of_list (List.map SG.Dtw.summarize models)
      in
      match SG.Vpindex.build spec summaries with
      | None -> QCheck.Test.fail_report "Force build returned no index"
      | Some ix ->
        let st = SG.Dtw.summarize target in
        let visited = Hashtbl.create 64 in
        let ixc = SG.Vpindex.counters () in
        SG.Vpindex.search ~ixc ix st ~dmax:(fun () -> dmax)
          ~visit:(fun i -> Hashtbl.replace visited i ());
        (* accounting: every member is either visited or counted as pruned *)
        Hashtbl.length visited + ixc.SG.Vpindex.pairs_pruned_index
        = Array.length summaries
        && Array.for_all
             (fun i ->
               Hashtbl.mem visited i
               ||
               (* skipped: the exact score proves the skip was sound *)
               match SG.Dtw.compare_summaries st summaries.(i) with
               | None -> false
               | Some score -> 1.0 -. score > dmax -. 1e-6)
             (Array.init (Array.length summaries) Fun.id))

let prop_index_build_deterministic =
  QCheck.Test.make
    ~name:"index construction is deterministic, byte for byte" ~count:15
    QCheck.(pair (list_of_size (Gen.int_range 0 80) model_arb) index_spec_arb)
    (fun (models, spec) ->
      let summaries =
        Array.of_list (List.map SG.Dtw.summarize models)
      in
      match (SG.Vpindex.build spec summaries, SG.Vpindex.build spec summaries)
      with
      | Some a, Some b -> SG.Vpindex.to_bytes a = SG.Vpindex.to_bytes b
      | _ -> false)

let prop_index_bytes_roundtrip =
  QCheck.Test.make ~name:"index serialization round-trips structurally"
    ~count:20
    QCheck.(
      pair
        (list_of_size
           (Gen.oneof [ Gen.int_range 0 8; Gen.int_range 66 80 ])
           model_arb)
        index_spec_arb)
    (fun (models, spec) ->
      let summaries =
        Array.of_list (List.map SG.Dtw.summarize models)
      in
      match SG.Vpindex.build spec summaries with
      | None -> false
      | Some ix ->
        (* the shape alone re-derives every bound bit for bit *)
        SG.Vpindex.of_bytes_result summaries (SG.Vpindex.to_bytes ix) = Ok ix)

let prop_persist_index_section =
  QCheck.Test.make
    ~name:"scagbin index section round-trips; absent section loads as None"
    ~count:30
    QCheck.(pair repo_arb index_spec_arb)
    (fun (pocs, spec) ->
      let repository =
        List.map (fun (family, model) -> { SG.Detector.family; model }) pocs
      in
      let ix =
        SG.Detector.prepared_index (SG.Detector.prepare ~index:spec repository)
      in
      let loaded_index bytes =
        match SG.Persist.repository_of_bytes_prepared_result bytes with
        | Error e -> QCheck.Test.fail_report (SG.Err.to_string e)
        | Ok (loaded, prep) ->
          if List.length loaded <> List.length repository then
            QCheck.Test.fail_report "wrong repository size";
          SG.Detector.prepared_index prep
      in
      loaded_index (SG.Persist.repository_to_bytes repository) = None
      && loaded_index (SG.Persist.repository_to_bytes ?index:ix repository) = ix)

let test_index_auto_thresholds () =
  let repository = Lazy.force repo in
  let prep =
    SG.Detector.prepare ~index:SG.Vpindex.default_spec repository
  in
  (* Auto skips small repositories entirely *)
  check_bool "auto skips small repos" true
    (SG.Detector.prepared_index prep = None);
  let spec = { SG.Vpindex.default_spec with SG.Vpindex.mode = SG.Vpindex.Force } in
  match SG.Detector.prepared_index (SG.Detector.prepare ~index:spec repository) with
  | None -> Alcotest.fail "Force built no index"
  | Some ix ->
    check_int "index covers the repository" (List.length repository)
      (SG.Vpindex.size ix)

(* ---- Image integrity ------------------------------------------------------------------- *)

(* The suite's 4-PoC repository: one PoC per attack family, as in the CLI's
   default repository. *)
let repo4 =
  lazy
    (Lazy.force repo
    @ List.map
        (fun (family, spec) -> { SG.Detector.family; model = model_of_spec spec })
        [ ("S-FR", A.spectre_fr ~style:A.Classic ()); ("S-PP", A.spectre_pp ()) ])

let fr_mastik = lazy (model_of_spec (A.flush_reload ~style:A.Mastik ()))

let targets4 =
  lazy
    (Lazy.force fr_mastik
    :: List.map (fun (p : SG.Detector.poc) -> p.SG.Detector.model) (Lazy.force repo4))

let force_spec = { SG.Vpindex.default_spec with SG.Vpindex.mode = SG.Vpindex.Force }

(* Images of [repo4] written by the SCAGBIN v2 writer, which still stored
   magnitudes and index bounds: poc4-v2.scagbin and poc4-v2-index.scagbin
   (saved with a forced index), and poc4-v1.scagbin, which is
   poc4-v2.scagbin without its index-presence byte and stamped version 1. *)
let fixture name = SG.Persist.read_file ~path:(Filename.concat "fixtures" name)

let offsets_of sub s =
  let n = String.length s and m = String.length sub in
  List.filter (fun i -> String.sub s i m = sub) (List.init (max 0 (n - m + 1)) Fun.id)

let splice s at ~len replacement =
  String.sub s 0 at ^ replacement ^ String.sub s (at + len) (String.length s - at - len)

(* An image must load to exactly [repo4] and classify like it. *)
let check_loads_like_repo4 what bytes =
  let repository = Lazy.force repo4 in
  let loaded, prep = ok_exn (SG.Persist.repository_of_bytes_prepared_result bytes) in
  Alcotest.(check string) (what ^ " loads the repository")
    (SG.Persist.repository_to_string repository)
    (SG.Persist.repository_to_string loaded);
  List.iter
    (fun target ->
      check_bool (what ^ " classifies like the repository") true
        (SG.Detector.classify_prepared prep target
        = SG.Detector.classify repository target))
    (Lazy.force targets4);
  prep

let test_persist_v1_image_loads () =
  let prep = check_loads_like_repo4 "v1 image" (fixture "poc4-v1.scagbin") in
  check_bool "v1 image has no index" true (SG.Detector.prepared_index prep = None)

(* A v2 index section is skipped as if absent (its stored bounds cannot be
   trusted), so the config's policy decides; only the section's presence is
   reported, for migrate-repo to rebuild an index. *)
let test_persist_v2_images_load () =
  List.iter
    (fun (name, indexed) ->
      let bytes = fixture name in
      let prep = check_loads_like_repo4 name bytes in
      check_bool "v2 index section skipped" true
        (SG.Detector.prepared_index prep = None);
      check_bool "index section reported" indexed
        (SG.Persist.has_index_section bytes);
      let config = { SG.Config.default with SG.Config.index = SG.Config.Index_vp } in
      let _, prep, _ =
        ok_exn
          (SG.Service.load_repository ~config
             ~path:(Filename.concat "fixtures" name) ())
      in
      check_bool "the config's policy builds an index" true
        (SG.Detector.prepared_index prep <> None))
    [ ("poc4-v2.scagbin", false); ("poc4-v2-index.scagbin", true) ]

let float_bytes fs =
  String.concat ""
    (List.map
       (fun f ->
         let b = Bytes.create 8 in
         Bytes.set_int64_le b 0 (Int64.bits_of_float f);
         Bytes.to_string b)
       (Array.to_list fs))

(* Regression: the v2 loader trusted the magnitudes stored after each blob,
   so rewriting the FR-F PoC's (its CST floats untouched) turned fr-mastik's
   FR-F verdict into S-FR.  Magnitudes are now always derived. *)
let test_v2_magnitudes_ignored () =
  let repository = Lazy.force repo4 in
  let fr = (List.hd repository).SG.Detector.model in
  let mags = SG.Dtw.summary_mags (SG.Dtw.summarize fr) in
  let stored = float_bytes mags in
  let image = fixture "poc4-v2.scagbin" in
  let at =
    match offsets_of stored image with
    | [ at ] -> at
    | l -> Alcotest.failf "FR-F magnitudes found %d times" (List.length l)
  in
  let forged =
    splice image at ~len:(String.length stored)
      (float_bytes (Array.map (fun _ -> 1000.0) mags))
  in
  let _, prep = ok_exn (SG.Persist.repository_of_bytes_prepared_result forged) in
  let indexed =
    SG.Detector.attach_index prep
      (SG.Vpindex.build force_spec (SG.Detector.prepared_summaries prep))
  in
  let target = Lazy.force fr_mastik in
  let expected = SG.Detector.classify repository target in
  Alcotest.(check (option string)) "fr-mastik is FR-F" (Some "FR-F")
    expected.SG.Detector.best_family;
  check_bool "linear verdict unchanged" true
    (SG.Detector.classify_prepared prep target = expected);
  check_bool "indexed verdict unchanged" true
    (SG.Detector.classify_prepared indexed target = expected)

(* Regression: one byte of a v2 index could list PoC 2 twice and PoC 0
   never, and pruning trusted it.  A v3 shape must partition the models. *)
let test_shape_duplicate_member () =
  let repository = Lazy.force repo4 in
  let prep = SG.Detector.prepare ~index:force_spec repository in
  let ix = Option.get (SG.Detector.prepared_index prep) in
  let shape = SG.Vpindex.to_bytes ix in
  (* every kind, count and position is below 128, so each is one byte *)
  let forged = Bytes.of_string shape in
  let rec walk i =
    let n = Char.code shape.[i + 1] in
    if shape.[i] = '\000' then begin
      for j = i + 2 to i + 1 + n do
        if shape.[j] = '\000' then Bytes.set forged j '\002'
      done;
      i + 2 + n
    end
    else List.fold_left (fun j _ -> walk j) (i + 2) (List.init n Fun.id)
  in
  check_int "walked the whole shape" (String.length shape) (walk 0);
  let forged = Bytes.to_string forged in
  (match SG.Vpindex.of_bytes_result (SG.Detector.prepared_summaries prep) forged with
  | Error (SG.Err.Parse _) -> ()
  | _ -> Alcotest.fail "a shape listing position 2 twice decoded");
  let section s = "\001" ^ String.make 1 (Char.chr (String.length s)) ^ s in
  let image = SG.Persist.repository_to_bytes ~index:ix repository in
  let at =
    match offsets_of (section shape) image with
    | [ at ] -> at
    | l -> Alcotest.failf "index section found %d times" (List.length l)
  in
  match
    SG.Persist.repository_of_bytes_prepared_result
      (splice image at ~len:(String.length shape + 2) (section forged))
  with
  | Error (SG.Err.Parse _) -> ()
  | _ -> Alcotest.fail "an image whose shape lists position 2 twice loaded"

type mutation =
  | Flip of int * int
  | Overwrite of int * char
  | Insert of int * char
  | Delete of int
  | Truncate of int

let mutation_gen =
  QCheck.Gen.(
    let* pos = int_bound 1_000_000 in
    let* c = char in
    oneof
      [
        map (fun bit -> Flip (pos, bit)) (int_bound 7);
        return (Overwrite (pos, c));
        return (Insert (pos, c));
        return (Delete pos);
        return (Truncate pos);
      ])

let show_mutation = function
  | Flip (i, b) -> Printf.sprintf "flip bit %d at %d" b i
  | Overwrite (i, c) -> Printf.sprintf "overwrite %C at %d" c i
  | Insert (i, c) -> Printf.sprintf "insert %C at %d" c i
  | Delete i -> Printf.sprintf "delete at %d" i
  | Truncate i -> Printf.sprintf "truncate at %d" i

(* positions are taken modulo the image length, so one generator serves
   every image *)
let mutate s m =
  let n = String.length s in
  match m with
  | Flip (i, bit) ->
    let i = i mod n in
    splice s i ~len:1 (String.make 1 (Char.chr (Char.code s.[i] lxor (1 lsl bit))))
  | Overwrite (i, c) -> splice s (i mod n) ~len:1 (String.make 1 c)
  | Insert (i, c) -> splice s (i mod (n + 1)) ~len:0 (String.make 1 c)
  | Delete i -> splice s (i mod n) ~len:1 ""
  | Truncate i -> String.sub s 0 (i mod n)

(* A mutated image either fails with a typed error or loads a repository
   whose prepared (possibly indexed) classification equals the reference
   scan over the very models it loaded. *)
let mutant_sound image targets m =
  match SG.Persist.repository_of_bytes_prepared_result (mutate image m) with
  | Error (SG.Err.Parse _) -> true
  | Error e ->
    QCheck.Test.fail_reportf "%s: untyped error %s" (show_mutation m)
      (SG.Err.to_string e)
  | Ok (loaded, prep) ->
    List.for_all
      (fun target ->
        SG.Detector.classify_prepared prep target
        = SG.Detector.classify ~prune:false loaded target
        || QCheck.Test.fail_reportf "%s changed a verdict" (show_mutation m))
      targets

let mutations_arb k =
  QCheck.make
    ~print:(fun ms -> String.concat "; " (List.map show_mutation ms))
    (QCheck.Gen.list_repeat k mutation_gen)

let prop_mutated_poc4_image =
  QCheck.Test.make
    ~name:"mutated 4-PoC image: Ok classifies like the reference, else Err"
    ~count:40 (mutations_arb 25)
    (fun ms ->
      let repository = Lazy.force repo4 in
      let ix =
        SG.Detector.prepared_index
          (SG.Detector.prepare ~index:force_spec repository)
      in
      let image = SG.Persist.repository_to_bytes ?index:ix repository in
      List.for_all (mutant_sound image (Lazy.force targets4)) ms)

let prop_mutated_tree_image =
  QCheck.Test.make
    ~name:"mutated vp-tree image: Ok classifies like the reference, else Err"
    ~count:8
    QCheck.(
      triple (indexed_repo_arb ~lo:66 ~hi:80)
        (pair (list_of_size (Gen.int_range 1 3) model_arb) index_spec_arb)
        (mutations_arb 25))
    (fun (pocs, (targets, spec), ms) ->
      let repository =
        List.map (fun (family, model) -> { SG.Detector.family; model }) pocs
      in
      let ix = SG.Detector.prepared_index (SG.Detector.prepare ~index:spec repository) in
      let image = SG.Persist.repository_to_bytes ?index:ix repository in
      List.for_all (mutant_sound image targets) ms)

(* ---- Engine stats conventions (bug: nan/infinity on zero-duration batches) ------------- *)

let test_engine_zero_wall_stats () =
  let s =
    {
      SG.Engine.domains = 4;
      targets = 0;
      pairs = 0;
      cells = 0;
      pairs_pruned_lb = 0;
      pairs_abandoned = 0;
      cells_saved = 0;
      lb_evals = 0;
      nodes_visited = 0;
      pairs_pruned_index = 0;
      wall_s = 0.0;
      cpu_s = 0.0;
      per_worker = [| 0; 0; 0; 0 |];
      latency = None;
    }
  in
  check_float "utilization is 0, not nan" 0.0 (SG.Engine.utilization s);
  check_float "throughput is 0, not infinity" 0.0 (SG.Engine.throughput s)

(* ---- Persist strictness / atomicity regressions ---------------------------------------- *)

let test_persist_rejects_malformed_cst () =
  (* regression: `cst 1 2 junk 3 4` used to be silently accepted because
     malformed tokens were filtered out instead of rejected *)
  let model_with cst_line =
    Printf.sprintf "cstbbs 1\nname x\nentry 0 0\n%s\ntokens 0\nend\n" cst_line
  in
  let rejects s =
    match SG.Persist.model_of_string_result (model_with s) with
    | Error (SG.Err.Parse _) -> true
    | _ -> false
  in
  check_bool "junk token among four floats" true (rejects "cst 1 2 junk 3 4");
  check_bool "too few floats" true (rejects "cst 1 2 3");
  check_bool "trailing junk" true (rejects "cst 0 1 0 1 nonsense");
  (* regression: an out-of-range occupancy escaped as Invalid_argument *)
  check_bool "occupancy out of range" true (rejects "cst 5 5 0 0");
  check_bool "well-formed still accepted" true (not (rejects "cst 0 1 0 1"))

(* A NaN occupancy fails every range comparison, so it used to load: the
   detector then died on an unscored pair or printed another verdict.  Both
   formats now reject it with the typed error, and a poisoned cache entry
   is stale. *)
let poison_text s =
  match offsets_of "\ncst " s with
  | [] -> Alcotest.fail "no cst line"
  | at :: _ ->
    let first = at + 5 in
    let stop = String.index_from s first ' ' in
    splice s first ~len:(stop - first) "nan"

let poison_binary (m : SG.Model.t) bytes =
  let e = List.hd m.SG.Model.entries in
  let target = float_bytes [| e.SG.Model.cst.SG.Cst.after.Cache.State.io |] in
  match offsets_of target bytes with
  | [] -> Alcotest.fail "CST float not found in the image"
  | at :: _ -> splice bytes at ~len:8 (float_bytes [| Float.nan |])

let is_bad_cst = function
  | Error (SG.Err.Parse { msg; _ }) -> offsets_of "bad cst" msg <> []
  | _ -> false

let test_persist_rejects_nan_cst () =
  let repository = Lazy.force repo in
  let m = (List.hd repository).SG.Detector.model in
  check_bool "text model" true
    (is_bad_cst (SG.Persist.model_of_string_result (poison_text (SG.Persist.model_to_string m))));
  check_bool "text repository" true
    (is_bad_cst
       (SG.Persist.repository_of_string_result
          (poison_text (SG.Persist.repository_to_string repository))));
  check_bool "binary model" true
    (is_bad_cst (SG.Persist.model_of_bytes_result (poison_binary m (SG.Persist.model_to_bytes m))));
  check_bool "binary repository" true
    (is_bad_cst
       (SG.Persist.repository_of_bytes_result
          (poison_binary m (SG.Persist.repository_to_bytes repository))));
  check_bool "infinite occupancy too" true
    (is_bad_cst
       (SG.Persist.model_of_string_result
          "cstbbs 1\nname x\nentry 0 0\ncst inf 0 0 1\ntokens 0\nend\n"))

let test_persist_save_atomic () =
  let repository = Lazy.force repo in
  let dir = Filename.temp_file "scaguard" ".d" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  let path = Filename.concat dir "r.repo" in
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
      Unix.rmdir dir)
    (fun () ->
      (* overwriting an existing repository goes through rename, and no temp
         files are left behind *)
      ok_exn (SG.Persist.save_repository_result ~path repository);
      ok_exn (SG.Persist.save_repository_result ~path repository);
      let loaded = fst (ok_exn (SG.Persist.load_repository_prepared_result ~path)) in
      check_int "poc count" (List.length repository) (List.length loaded);
      let leftovers =
        Array.to_list (Sys.readdir dir)
        |> List.filter (fun f -> f <> "r.repo")
      in
      Alcotest.(check (list string)) "no temp files left" [] leftovers)

(* ---- Persist ------------------------------------------------------------------------ *)

let test_persist_model_roundtrip () =
  let m = (Lazy.force fr_analysis).SG.Pipeline.model in
  let m' =
    ok_exn (SG.Persist.model_of_string_result (SG.Persist.model_to_string m))
  in
  Alcotest.(check string) "name" m.SG.Model.name m'.SG.Model.name;
  check_int "entries" (SG.Model.length m) (SG.Model.length m');
  check_float "similarity 1 after roundtrip" 1.0 (SG.Dtw.compare_models m m');
  List.iter2
    (fun a b ->
      check_int "block" a.SG.Model.block b.SG.Model.block;
      check_int "time" a.SG.Model.first_time b.SG.Model.first_time;
      Alcotest.(check (array string)) "tokens" a.SG.Model.normalized b.SG.Model.normalized)
    m.SG.Model.entries m'.SG.Model.entries

let test_persist_repository_roundtrip () =
  let repo = Lazy.force repo in
  let path = Filename.temp_file "scaguard" ".repo" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      ok_exn (SG.Persist.save_repository_result ~path repo);
      let loaded = fst (ok_exn (SG.Persist.load_repository_prepared_result ~path)) in
      check_int "poc count" (List.length repo) (List.length loaded);
      (* classification through the loaded repository is identical *)
      let target = model_of_spec (A.evict_reload ()) in
      let v1 = SG.Detector.classify repo target in
      let v2 = SG.Detector.classify loaded target in
      Alcotest.(check (option string)) "same family"
        v1.SG.Detector.best_family v2.SG.Detector.best_family;
      check_float "same score" v1.SG.Detector.best_score v2.SG.Detector.best_score)

let test_persist_rejects_garbage () =
  let parse_error = function Error (SG.Err.Parse _) -> true | _ -> false in
  check_bool "bad magic" true
    (parse_error (SG.Persist.model_of_string_result "nonsense"));
  check_bool "bad repo magic" true
    (parse_error (SG.Persist.repository_of_string_result "cstbbs 1"));
  check_bool "truncated" true
    (parse_error
       (SG.Persist.model_of_string_result "cstbbs 1\nname x\nentry 0 0"))

(* ---- Binary format (SCAGBIN) --------------------------------------------------------- *)

let model_bytes = SG.Persist.model_to_string

(* byte-identity through the canonical text encoding is the round-trip
   criterion everywhere below: it covers names, tokens, blocks, timings and
   the exact CST float bits in one comparison *)
let prop_persist_binary_roundtrip =
  QCheck.Test.make
    ~name:"binary model encoding round-trips byte-identically" ~count:200
    model_arb
    (fun m ->
      match SG.Persist.model_of_bytes_result (SG.Persist.model_to_bytes m) with
      | Error e -> QCheck.Test.fail_report (SG.Err.to_string e)
      | Ok m' ->
        SG.Persist.model_to_string m' = SG.Persist.model_to_string m)

let prop_persist_binary_repository_roundtrip =
  QCheck.Test.make
    ~name:"binary repository image round-trips and classifies identically"
    ~count:50
    QCheck.(
      pair
        (list_of_size (Gen.int_range 0 4)
           (pair (oneofl [ "FR-F"; "PP-F"; "fam x"; "fam\nnl" ]) model_arb))
        model_arb)
    (fun (pocs, target) ->
      let repository =
        List.map (fun (family, model) -> { SG.Detector.family; model }) pocs
      in
      let bytes = SG.Persist.repository_to_bytes repository in
      match SG.Persist.repository_of_bytes_result bytes with
      | Error e -> QCheck.Test.fail_report (SG.Err.to_string e)
      | Ok loaded ->
        SG.Persist.repository_to_string loaded
        = SG.Persist.repository_to_string repository
        &&
        (* the prepared load classifies bit-identically to the original
           repository *)
        (match SG.Persist.repository_of_bytes_prepared_result bytes with
        | Error e -> QCheck.Test.fail_report (SG.Err.to_string e)
        | Ok (_, prep) ->
          SG.Detector.classify_prepared prep target
          = SG.Detector.classify repository target))

let test_persist_newline_tokens () =
  (* regression: tokens/names/families containing newlines, backslashes or
     nothing at all used to hit a [failwith] in the text writers *)
  let entry =
    SG.Model.make_entry ~block:3 ~instrs:[]
      ~normalized:[| "new\nline"; "back\\slash"; ""; "\\_"; "plain" |]
      ~cst:
        {
          SG.Cst.before = Cache.State.make ~ao:0.5 ~io:0.25;
          after = Cache.State.make ~ao:0.125 ~io:0.5;
        }
      ~first_time:7
  in
  let m = SG.Model.make ~name:"evil\nname" [ entry ] in
  let m' =
    ok_exn (SG.Persist.model_of_string_result (SG.Persist.model_to_string m))
  in
  Alcotest.(check string) "name survives" m.SG.Model.name m'.SG.Model.name;
  List.iter2
    (fun a b ->
      Alcotest.(check (array string)) "tokens survive"
        a.SG.Model.normalized b.SG.Model.normalized)
    m.SG.Model.entries m'.SG.Model.entries;
  let repository = [ { SG.Detector.family = "fam\nnl"; model = m } ] in
  let text_rt =
    ok_exn
      (SG.Persist.repository_of_string_result
         (SG.Persist.repository_to_string repository))
  in
  Alcotest.(check string) "family survives" "fam\nnl"
    (List.hd text_rt).SG.Detector.family;
  (* binary agrees *)
  (match
     SG.Persist.repository_of_bytes_result
       (SG.Persist.repository_to_bytes repository)
   with
  | Error e -> Alcotest.fail (SG.Err.to_string e)
  | Ok bin_rt ->
    Alcotest.(check string) "binary = text"
      (SG.Persist.repository_to_string text_rt)
      (SG.Persist.repository_to_string bin_rt));
  (* and through a file, in both formats *)
  List.iter
    (fun save ->
      let path = Filename.temp_file "scaguard" ".repo" in
      Fun.protect
        ~finally:(fun () -> Sys.remove path)
        (fun () ->
          (match save ~path repository with
          | Ok () -> ()
          | Error e -> Alcotest.fail (SG.Err.to_string e));
          let loaded = fst (ok_exn (SG.Persist.load_repository_prepared_result ~path)) in
          Alcotest.(check string) "file roundtrip"
            (SG.Persist.repository_to_string repository)
            (SG.Persist.repository_to_string loaded)))
    [
      SG.Persist.save_repository_result;
      (fun ~path repo -> SG.Persist.save_repository_bin_result ~path repo);
    ]

let err_msg_contains e sub =
  let s = SG.Err.to_string e in
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let test_persist_binary_errors () =
  let m = (Lazy.force fr_analysis).SG.Pipeline.model in
  let bytes = SG.Persist.model_to_bytes m in
  (* truncation at every boundary-ish point is a Parse error, never a raise *)
  List.iter
    (fun len ->
      match
        SG.Persist.model_of_bytes_result (String.sub bytes 0 len)
      with
      | Error (SG.Err.Parse { line = None; _ }) -> ()
      | Error e ->
        Alcotest.fail ("unexpected error kind: " ^ SG.Err.to_string e)
      | Ok _ -> Alcotest.fail "truncated bytes accepted")
    [ 0; 3; 8; 9; String.length bytes - 1 ];
  (* version byte (offset 7, right after the 7-byte magic) *)
  let wrong_version = Bytes.of_string bytes in
  Bytes.set wrong_version 7 '\xff';
  (match
     SG.Persist.model_of_bytes_result (Bytes.to_string wrong_version)
   with
  | Error e ->
    check_bool "mentions version" true (err_msg_contains e "version")
  | Ok _ -> Alcotest.fail "wrong version accepted");
  (* a repository image is not a model file: the kind byte is checked *)
  let repo_bytes =
    SG.Persist.repository_to_bytes [ { SG.Detector.family = "F"; model = m } ]
  in
  (match SG.Persist.model_of_bytes_result repo_bytes with
  | Error (SG.Err.Parse _) -> ()
  | Error e -> Alcotest.fail ("unexpected error kind: " ^ SG.Err.to_string e)
  | Ok _ -> Alcotest.fail "repository bytes accepted as a model");
  (* errors from file loads carry the file name *)
  let path = Filename.temp_file "scaguard" ".bin" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out_bin path in
      output_string oc (String.sub repo_bytes 0 9);
      close_out oc;
      match SG.Persist.load_repository_prepared_result ~path with
      | Error (SG.Err.Parse { file = Some f; _ }) ->
        Alcotest.(check string) "file context" path f
      | Error e ->
        Alcotest.fail ("error lost file context: " ^ SG.Err.to_string e)
      | Ok _ -> Alcotest.fail "truncated file accepted")

let test_persist_save_io_error () =
  let repository = Lazy.force repo in
  let path = "/nonexistent-scaguard-dir/r.repo" in
  List.iter
    (fun save ->
      match save ~path repository with
      | Error (SG.Err.Io { path = p; _ }) ->
        Alcotest.(check string) "error names the path" path p
      | Error e -> Alcotest.fail ("unexpected error kind: " ^ SG.Err.to_string e)
      | Ok () -> Alcotest.fail "save into missing directory succeeded")
    [
      SG.Persist.save_repository_result;
      (fun ~path repo -> SG.Persist.save_repository_bin_result ~path repo);
    ]

(* ---- Batch model building + model cache ---------------------------------------------- *)

let batch_samples () =
  List.map D.of_spec
    [
      A.flush_reload ~style:A.Iaik ();
      A.prime_probe ~style:A.Jzhang ();
      A.evict_reload ();
    ]

let job_of_sample (s : D.sample) =
  SG.Pipeline.job ?settings:s.D.settings ~init:s.D.init ?victim:s.D.victim
    ~name:s.D.name s.D.program

let test_cst_measurer_reuse () =
  let m = SG.Cst.measurer () in
  let acc1 = List.init 30 (fun i -> (i * 64, Hpc.Collector.Load)) in
  let acc2 = List.init 10 (fun i -> (i * 128, Hpc.Collector.Flush)) in
  (* a reused (dirty) measurer must reproduce the fresh-simulator result *)
  check_bool "first" true (SG.Cst.measure ~measurer:m acc1 = SG.Cst.measure acc1);
  check_bool "after dirty state" true
    (SG.Cst.measure ~measurer:m acc2 = SG.Cst.measure acc2);
  check_bool "empty short-circuit" true (SG.Cst.measure ~measurer:m [] = SG.Cst.measure [])

let test_entries_array_memoized () =
  let m = (Lazy.force fr_analysis).SG.Pipeline.model in
  check_bool "one array, shared" true
    (SG.Model.entries_array m == SG.Model.entries_array m)

(* Built twice in a row, on one domain and then on four: the first batch
   leaves this domain's simulator spares behind, and every model of both
   must still equal the sequential analysis byte for byte. *)
let test_build_batch_matches_sequential () =
  let samples = batch_samples () in
  let jobs = Array.of_list (List.map job_of_sample samples) in
  let batches =
    List.map (fun domains -> (domains, fst (SG.Pipeline.build_models_batch ~domains jobs))) [ 1; 4 ]
  in
  List.iteri
    (fun i (s : D.sample) ->
      let seq = model_bytes (analyze_sample s).SG.Pipeline.model in
      List.iter
        (fun (domains, models) ->
          Alcotest.(check string)
            (Printf.sprintf "build_models_batch model (%d domains)" domains)
            seq (model_bytes models.(i)))
        batches)
    samples

let with_temp_cache f =
  let dir = Filename.temp_file "scaguard" ".cache" in
  Sys.remove dir;
  Fun.protect
    ~finally:(fun () ->
      if Sys.file_exists dir then begin
        Array.iter
          (fun x ->
            try Sys.remove (Filename.concat dir x) with Sys_error _ -> ())
          (Sys.readdir dir);
        try Unix.rmdir dir with Unix.Unix_error _ -> ()
      end)
    (fun () -> f (Result.get_ok (SG.Model_cache.create ~dir ())))

(* Another handle on [cache]'s directory: an empty memory tier, so every
   lookup reaches the disk tier. *)
let reopen cache =
  Result.get_ok (SG.Model_cache.create ?dir:(SG.Model_cache.dir cache) ())

let entry_file cache ~key = Option.get (SG.Model_cache.file cache ~key)

(* One lookup, the way the batch builder makes it: the memory tier, then
   the disk tier or the build, then the memory tier again. *)
let find_or_build cache ~key build =
  match SG.Model_cache.recall cache ~key with
  | Some model -> model
  | None ->
    let model, entry = SG.Model_cache.fetch cache ~key build in
    Option.iter (SG.Model_cache.remember cache ~key) entry;
    model

(* A builder that counts its calls. *)
let counting model =
  let calls = ref 0 in
  (calls, fun () -> incr calls; model)

let test_model_cache_hit_bit_identical () =
  with_temp_cache (fun cache ->
      let fr = D.of_spec (A.flush_reload ~style:A.Iaik ()) in
      let fresh = (Lazy.force fr_analysis).SG.Pipeline.model in
      let key = SG.Model_cache.key ~name:fr.D.name fr.D.program in
      let calls, build = counting fresh in
      let first = find_or_build cache ~key build in
      check_int "initially absent: built" 1 !calls;
      check_int "miss counted" 1 (SG.Model_cache.misses cache);
      check_bool "the build is returned" true (first == fresh);
      check_bool "stored on disk" true (Sys.file_exists (entry_file cache ~key));
      let memory = find_or_build cache ~key build in
      let disk = find_or_build (reopen cache) ~key build in
      check_int "both hits skip the build" 1 !calls;
      check_int "memory hit counted" 1 (SG.Model_cache.hits cache);
      List.iter
        (fun (tier, cached) ->
          Alcotest.(check string) (tier ^ " hit bytes identical") (model_bytes fresh)
            (model_bytes cached);
          (* the property detection relies on: scoring through the cached
             model is bit-identical to scoring through the freshly built one *)
          let probe = (List.nth (Lazy.force repo) 1).SG.Detector.model in
          check_bool (tier ^ " probe score bit-identical") true
            (SG.Dtw.compare_models cached probe
            = SG.Dtw.compare_models fresh probe);
          check_float (tier ^ " self similarity") 1.0
            (SG.Dtw.compare_models cached fresh))
        [ ("memory", memory); ("disk", disk) ])

let prop_cache_hit_scores_identical =
  QCheck.Test.make ~name:"cache hit scores bit-identical to fresh model"
    ~count:40
    QCheck.(pair model_arb model_arb)
    (fun (m, probe) ->
      with_temp_cache (fun cache ->
          let stored = find_or_build cache ~key:"k" (fun () -> m) in
          let rebuilt () = Alcotest.fail "a hit must not rebuild" in
          let memory = find_or_build cache ~key:"k" rebuilt in
          let disk = find_or_build (reopen cache) ~key:"k" rebuilt in
          stored == m
          && SG.Dtw.compare_models memory probe = SG.Dtw.compare_models m probe
          && SG.Dtw.compare_models disk probe = SG.Dtw.compare_models m probe))

let test_model_cache_stale_fallback () =
  with_temp_cache (fun cache ->
      let key = "deadbeef" in
      let path = entry_file cache ~key in
      let oc = open_out path in
      output_string oc "cstbbs 1\nname x\nentry garbage\n";
      close_out oc;
      (* the disk tier refuses the entry and deletes it before the builder
         runs; the builder's model is stored in its place *)
      let fresh = (Lazy.force fr_analysis).SG.Pipeline.model in
      let built, _ =
        SG.Model_cache.fetch cache ~key (fun () ->
            check_bool "corrupt file deleted" false (Sys.file_exists path);
            fresh)
      in
      check_int "stale counted" 1 (SG.Model_cache.stale cache);
      Alcotest.(check string) "rebuilt" (model_bytes fresh) (model_bytes built);
      let again = reopen cache in
      match SG.Model_cache.recall again ~key with
      | Some _ -> Alcotest.fail "a fresh handle's memory tier is empty"
      | None ->
        let stored =
          find_or_build again ~key (fun () ->
              Alcotest.fail "rebuilt entry not stored")
        in
        check_int "stored entry hits" 1 (SG.Model_cache.hits again);
        Alcotest.(check string) "stored after rebuild" (model_bytes fresh)
          (model_bytes stored))

(* A model whose encoding the strict loader refuses: one CST holds NaN. *)
let nan_model (m : SG.Model.t) =
  match m.SG.Model.entries with
  | [] -> Alcotest.fail "empty model"
  | e :: rest ->
    let after = { Cache.State.ao = Float.nan; io = 0.5 } in
    SG.Model.make ~name:m.SG.Model.name
      ({ e with SG.Model.cst = { e.SG.Model.cst with SG.Cst.after } } :: rest)

let test_model_cache_nan_stale () =
  with_temp_cache (fun cache ->
      let fresh = (Lazy.force fr_analysis).SG.Pipeline.model in
      let key = "poisoned" in
      ignore (find_or_build cache ~key (fun () -> fresh));
      let path = entry_file cache ~key in
      SG.Persist.write_atomic ~path (poison_binary fresh (SG.Persist.read_file ~path));
      let cache2 = reopen cache in
      let calls, build = counting fresh in
      let built = find_or_build cache2 ~key build in
      check_int "poisoned entry rejected and rebuilt" 1 !calls;
      check_int "stale counted" 1 (SG.Model_cache.stale cache2);
      Alcotest.(check string) "rebuilt" (model_bytes fresh) (model_bytes built);
      ignore (find_or_build (reopen cache) ~key build);
      check_int "rebuilt entry stored" 1 !calls;
      (* the memory tier never keeps an entry a hit could not decode: a
         build whose CST is NaN is rebuilt on every lookup *)
      let memory = Result.get_ok (SG.Model_cache.create ()) in
      let calls, build = counting (nan_model fresh) in
      ignore (find_or_build memory ~key build);
      ignore (find_or_build memory ~key build);
      check_int "undecodable build not kept" 2 !calls;
      check_int "nothing resident" 0 (SG.Model_cache.resident_bytes memory))

let test_model_cache_version_stale () =
  (* a cache entry written by a future (or past) binary format version is
     stale — rebuilt and recounted, never a fatal parse error *)
  with_temp_cache (fun cache ->
      let fresh = (Lazy.force fr_analysis).SG.Pipeline.model in
      let key = "versioned" in
      ignore (find_or_build cache ~key (fun () -> fresh));
      let path = entry_file cache ~key in
      let data = SG.Persist.read_file ~path in
      check_bool "cache entries are binary" true (SG.Persist.is_binary data);
      let tampered = Bytes.of_string data in
      Bytes.set tampered 7 '\xff';
      let oc = open_out_bin path in
      output_bytes oc tampered;
      close_out oc;
      (* a fresh handle (an empty memory tier) must treat it as stale *)
      let cache2 = reopen cache in
      let built, _ =
        SG.Model_cache.fetch cache2 ~key (fun () ->
            check_bool "stale entry deleted" false (Sys.file_exists path);
            fresh)
      in
      check_int "version mismatch is a miss" 0 (SG.Model_cache.hits cache2);
      check_int "stale counted" 1 (SG.Model_cache.stale cache2);
      Alcotest.(check string) "rebuilt" (model_bytes fresh) (model_bytes built);
      (* a well-formed text entry is not an entry this build writes *)
      let oc = open_out_bin path in
      output_string oc (SG.Persist.model_to_string fresh);
      close_out oc;
      let cache3 = reopen cache in
      ignore (SG.Model_cache.fetch cache3 ~key (fun () -> fresh));
      check_int "text entry is stale" 1 (SG.Model_cache.stale cache3))

let test_model_cache_key_sensitivity () =
  let fr = D.of_spec (A.flush_reload ~style:A.Iaik ()) in
  let pp = D.of_spec (A.prime_probe ~style:A.Iaik ()) in
  let k = SG.Model_cache.key ~name:"x" fr.D.program in
  Alcotest.(check string) "deterministic" k
    (SG.Model_cache.key ~name:"x" fr.D.program);
  Alcotest.(check string) "explicit defaults, same key" k
    (SG.Model_cache.key ~settings:Cpu.Exec.default_settings
       ~cst_config:Cache.Config.cst_probe ~name:"x" fr.D.program);
  let variants =
    [
      SG.Model_cache.key ~name:"y" fr.D.program;
      SG.Model_cache.key ~salt:"other" ~name:"x" fr.D.program;
      SG.Model_cache.key ~max_paths:3 ~name:"x" fr.D.program;
      SG.Model_cache.key ~max_len:9 ~name:"x" fr.D.program;
      SG.Model_cache.key
        ~settings:{ Cpu.Exec.default_settings with Cpu.Exec.fuel = 1 }
        ~name:"x" fr.D.program;
      SG.Model_cache.key ~cst_config:Cache.Config.l1d ~name:"x" fr.D.program;
      SG.Model_cache.key ~victim:pp.D.program ~name:"x" fr.D.program;
      SG.Model_cache.key ~name:"x" pp.D.program;
    ]
  in
  List.iteri
    (fun i k' ->
      check_bool (Printf.sprintf "ingredient %d changes the key" i) false
        (k' = k))
    variants;
  check_int "variants pairwise distinct" (List.length variants)
    (List.length (List.sort_uniq compare variants));
  (* the disk tier names an entry by the key's hex MD5, as before the
     memory tier: existing cache directories keep hitting *)
  with_temp_cache (fun cache ->
      Alcotest.(check string) "disk file name"
        (Digest.to_hex (Digest.string k) ^ ".cstbbs")
        (Filename.basename (entry_file cache ~key:k)))

let test_build_models_batch_cached () =
  with_temp_cache (fun cache ->
      let jobs = Array.of_list (List.map job_of_sample (batch_samples ())) in
      let n = Array.length jobs in
      let cold, _ = SG.Pipeline.build_models_batch ~domains:2 ~cache jobs in
      check_int "cold misses" n (SG.Model_cache.misses cache);
      check_int "cold hits" 0 (SG.Model_cache.hits cache);
      List.iteri
        (fun i s ->
          Alcotest.(check string) "cold = sequential"
            (model_bytes (analyze_sample s).SG.Pipeline.model)
            (model_bytes cold.(i)))
        (batch_samples ());
      (* the same handle: every job hits the memory tier, the pool is
         skipped; a fresh handle on the same directory: every job hits the
         disk tier *)
      let memory, _ = SG.Pipeline.build_models_batch ~domains:2 ~cache jobs in
      check_int "memory hits" n (SG.Model_cache.hits cache);
      check_int "no further misses" n (SG.Model_cache.misses cache);
      let warm_cache = reopen cache in
      let warm, _ =
        SG.Pipeline.build_models_batch ~domains:2 ~cache:warm_cache jobs
      in
      check_int "warm hits" n (SG.Model_cache.hits warm_cache);
      check_int "warm misses" 0 (SG.Model_cache.misses warm_cache);
      Array.iteri
        (fun i m ->
          Alcotest.(check string) "warm = cold" (model_bytes cold.(i))
            (model_bytes m);
          Alcotest.(check string) "memory = cold" (model_bytes cold.(i))
            (model_bytes memory.(i)))
        warm)

(* The memory tier's byte budget under random lookups: keys of up to
   three eighths of the budget (their text counts against it) and one over
   it, drawn from a few ids so some repeat.  Resident bytes never exceed
   the budget, the oversized entry is never kept, and every lookup — hit,
   first build or rebuild after an eviction — returns the builder's model
   byte for byte. *)
let prop_memory_budget =
  let budget = SG.Model_cache.memory_budget in
  QCheck.Test.make ~name:"memory tier stays within its byte budget" ~count:10
    QCheck.(list_of_size Gen.(5 -- 24) (pair (int_bound 5) (int_bound 4)))
    (fun lookups ->
      let fresh = (Lazy.force fr_analysis).SG.Pipeline.model in
      let cache = Result.get_ok (SG.Model_cache.create ()) in
      let key (i, q) =
        Printf.sprintf "%d/%d:" i q
        ^ String.make (if q = 4 then budget else q * budget / 8) 'k'
      in
      List.for_all
        (fun ((_, q) as lookup) ->
          let key = key lookup in
          let calls, build = counting fresh in
          let m = find_or_build cache ~key build in
          let kept = SG.Model_cache.recall cache ~key <> None in
          model_bytes m = model_bytes fresh
          && SG.Model_cache.resident_bytes cache <= budget
          && !calls <= 1
          && kept = (q < 4))
        lookups)

let prop_interned_scoring_identical =
  QCheck.Test.make ~name:"interned scoring = string-token scoring" ~count:100
    QCheck.(pair model_arb model_arb)
    (fun (m1, m2) ->
      (* the kernel reads interned tokens; the reference can replay strings *)
      SG.Dtw.compare_models m1 m2
      = Refdtw.Dtw.compare_models ~interned:false m1 m2
      && SG.Dtw.compare_models_raw m1 m2
         = Refdtw.Dtw.compare_models_raw ~interned:false m1 m2)

let () =
  Alcotest.run "scaguard"
    [
      ( "relevant",
        [
          Alcotest.test_case "finds ground truth" `Quick
            test_identification_finds_ground_truth;
          Alcotest.test_case "prunes" `Quick test_identification_prunes;
          Alcotest.test_case "hpc values" `Quick test_identification_hpc_values;
          Alcotest.test_case "first times" `Quick test_identification_first_times;
          Alcotest.test_case "accuracy helper" `Quick test_accuracy_helper;
        ] );
      ( "attack_graph",
        [
          Alcotest.test_case "covers relevant" `Quick test_attack_graph_covers_relevant;
          Alcotest.test_case "restores paths" `Quick test_attack_graph_restores_paths;
          Alcotest.test_case "empty input" `Quick test_attack_graph_empty_for_no_relevant;
        ] );
      ( "cst",
        [
          Alcotest.test_case "starts full" `Quick test_cst_starts_full;
          Alcotest.test_case "loads shift occupancy" `Quick test_cst_loads_shift_occupancy;
          Alcotest.test_case "flushes reduce IO" `Quick test_cst_flushes_reduce_io;
          Alcotest.test_case "distance" `Quick test_cst_distance;
        ] );
      ( "distance",
        [
          Alcotest.test_case "bounds" `Quick test_entry_distance_bounds;
          Alcotest.test_case "alpha blending" `Quick test_entry_distance_alpha;
        ] );
      ( "dtw",
        [
          Alcotest.test_case "known values" `Quick test_dtw_known_values;
          Alcotest.test_case "normalized bounds" `Quick test_dtw_normalized_bounds;
          QCheck_alcotest.to_alcotest prop_dtw_symmetric;
          QCheck_alcotest.to_alcotest prop_dtw_identity;
          QCheck_alcotest.to_alcotest prop_dtw_matches_brute_force;
          Alcotest.test_case "similarity conversion" `Quick test_similarity_conversion;
        ] );
      ( "dtw_band",
        [
          Alcotest.test_case "band bail-out" `Quick test_band_bailout;
          QCheck_alcotest.to_alcotest prop_band_full_width_exact;
          QCheck_alcotest.to_alcotest prop_band_never_below_exact;
          QCheck_alcotest.to_alcotest prop_workspace_identical;
        ] );
      ( "empty_model",
        [
          Alcotest.test_case "similarity is zero" `Quick
            test_empty_model_similarity_zero;
          Alcotest.test_case "empty target never an attack" `Quick
            test_empty_target_never_attack;
        ] );
      ( "tie_break",
        [
          Alcotest.test_case "deterministic under repo order" `Quick
            test_classify_tie_break_deterministic;
        ] );
      ( "engine",
        [
          Alcotest.test_case "batch matches sequential" `Quick
            test_batch_matches_sequential;
          QCheck_alcotest.to_alcotest prop_batch_equals_sequential;
          Alcotest.test_case "zero-duration stats stay finite" `Quick
            test_engine_zero_wall_stats;
        ] );
      ( "dtw reference",
        [
          QCheck_alcotest.to_alcotest prop_dtw_reference;
          Alcotest.test_case "warm scoring allocates a constant" `Quick
            test_warm_scoring_allocation;
        ] );
      ( "pruning",
        [
          QCheck_alcotest.to_alcotest prop_lower_bound_sound;
          QCheck_alcotest.to_alcotest prop_cutoff_abandon_sound;
          QCheck_alcotest.to_alcotest prop_classify_prune_identical;
          QCheck_alcotest.to_alcotest prop_engine_prune_identical;
          Alcotest.test_case "prepared repository reuse" `Quick
            test_classify_prepared_reuse;
        ] );
      ( "index",
        [
          QCheck_alcotest.to_alcotest prop_index_small_identical;
          QCheck_alcotest.to_alcotest prop_index_tree_identical;
          QCheck_alcotest.to_alcotest prop_index_search_sound;
          QCheck_alcotest.to_alcotest prop_index_build_deterministic;
          QCheck_alcotest.to_alcotest prop_index_bytes_roundtrip;
          QCheck_alcotest.to_alcotest prop_persist_index_section;
          Alcotest.test_case "auto thresholds" `Quick test_index_auto_thresholds;
          Alcotest.test_case "version-1 images still load" `Quick
            test_persist_v1_image_loads;
          Alcotest.test_case "version-2 images still load" `Quick
            test_persist_v2_images_load;
          Alcotest.test_case "v2 magnitudes are ignored" `Quick
            test_v2_magnitudes_ignored;
          Alcotest.test_case "duplicate shape member fails" `Quick
            test_shape_duplicate_member;
          QCheck_alcotest.to_alcotest prop_mutated_poc4_image;
          QCheck_alcotest.to_alcotest prop_mutated_tree_image;
        ] );
      ( "model",
        [
          Alcotest.test_case "ordered by time" `Quick test_model_ordered_by_time;
          Alcotest.test_case "self similarity" `Quick test_model_self_similarity;
        ] );
      ( "detector",
        [
          Alcotest.test_case "classifies variant" `Quick test_detector_classifies_variant;
          Alcotest.test_case "scores sorted" `Quick test_detector_scores_sorted;
          Alcotest.test_case "rejects benign" `Quick test_detector_rejects_benign;
          Alcotest.test_case "empty repository" `Quick test_detector_empty_repository;
          Alcotest.test_case "threshold effect" `Quick test_detector_threshold_effect;
          Alcotest.test_case "scenario ordering" `Quick test_scenario_ordering;
          Alcotest.test_case "meltdown cross-family detection" `Quick
            test_meltdown_detected_cross_family;
        ] );
      ( "edge",
        [
          Alcotest.test_case "empty model pipeline" `Quick test_empty_model_pipeline;
          Alcotest.test_case "threshold monotonicity" `Quick
            test_threshold_monotonicity;
        ] );
      ( "cluster",
        [
          Alcotest.test_case "recovers families unsupervised" `Slow
            test_clustering_recovers_families;
          Alcotest.test_case "pairwise count" `Slow test_pairwise_count;
          Alcotest.test_case "curated repository detects" `Slow
            test_curated_repository_detects;
          Alcotest.test_case "medoid is central" `Slow test_medoid_is_most_central;
        ] );
      ( "limitation",
        [
          Alcotest.test_case "guarded attack needs triggering" `Quick
            test_guarded_attack_limitation;
        ] );
      ( "persist",
        [
          Alcotest.test_case "model roundtrip" `Quick test_persist_model_roundtrip;
          Alcotest.test_case "repository roundtrip" `Quick
            test_persist_repository_roundtrip;
          Alcotest.test_case "rejects garbage" `Quick test_persist_rejects_garbage;
          Alcotest.test_case "rejects malformed cst" `Quick
            test_persist_rejects_malformed_cst;
          Alcotest.test_case "rejects a non-finite cst" `Quick
            test_persist_rejects_nan_cst;
          Alcotest.test_case "atomic save" `Quick test_persist_save_atomic;
          Alcotest.test_case "newline tokens survive" `Quick
            test_persist_newline_tokens;
          Alcotest.test_case "binary corruption is a typed error" `Quick
            test_persist_binary_errors;
          Alcotest.test_case "save into missing dir is Io" `Quick
            test_persist_save_io_error;
          QCheck_alcotest.to_alcotest prop_persist_roundtrip;
          QCheck_alcotest.to_alcotest prop_persist_repository_roundtrip;
          QCheck_alcotest.to_alcotest prop_persist_binary_roundtrip;
          QCheck_alcotest.to_alcotest prop_persist_binary_repository_roundtrip;
        ] );
      ( "batch modeling & cache",
        [
          Alcotest.test_case "measurer reuse identical" `Quick
            test_cst_measurer_reuse;
          Alcotest.test_case "entries array memoized" `Quick
            test_entries_array_memoized;
          Alcotest.test_case "batch matches sequential" `Quick
            test_build_batch_matches_sequential;
          Alcotest.test_case "cache hit bit-identical" `Quick
            test_model_cache_hit_bit_identical;
          Alcotest.test_case "stale entry falls back" `Quick
            test_model_cache_stale_fallback;
          Alcotest.test_case "version mismatch is stale" `Quick
            test_model_cache_version_stale;
          Alcotest.test_case "non-finite cst is stale" `Quick
            test_model_cache_nan_stale;
          Alcotest.test_case "key sensitivity" `Quick
            test_model_cache_key_sensitivity;
          Alcotest.test_case "cached batch build" `Quick
            test_build_models_batch_cached;
          QCheck_alcotest.to_alcotest prop_cache_hit_scores_identical;
          QCheck_alcotest.to_alcotest prop_interned_scoring_identical;
          QCheck_alcotest.to_alcotest prop_memory_budget;
        ] );
    ]
