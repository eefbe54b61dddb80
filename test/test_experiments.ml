(* Tests for the experiment harness: small-N versions of every table and
   figure must reproduce the paper's qualitative shape. *)

module L = Workloads.Label
module E = Experiments

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ---- Common --------------------------------------------------------------- *)

let test_label_int_roundtrip () =
  List.iter
    (fun l ->
      check_bool "roundtrip" true
        (L.equal l (Detect.label_of_int (Detect.label_to_int l))))
    L.all

let test_repository_families () =
  let rng = Sutil.Rng.create 81 in
  let repo = E.Common.repository ~rng [ L.Fr_family; L.Spectre_pp ] in
  check_int "two pocs" 2 (List.length repo);
  Alcotest.(check (list string)) "family names" [ "FR-F"; "S-PP" ]
    (List.map (fun p -> p.Scaguard.Detector.family) repo)

let test_binarize () =
  check_bool "attack collapses" true
    (L.equal (E.Common.binarize L.Spectre_pp) L.Fr_family);
  check_bool "benign stays" true (L.equal (E.Common.binarize L.Benign) L.Benign)

(* Regression: unknown family names used to be dropped silently, so a typo
   shrank the repository instead of failing the command. *)
let test_families_of_strings () =
  (match E.Common.families_of_strings [ "FR-F"; "S-PP" ] with
  | Ok fams ->
    Alcotest.(check (list string))
      "valid names map" [ "FR-F"; "S-PP" ] (List.map L.to_string fams)
  | Error e -> Alcotest.failf "valid names rejected: %s" (Scaguard.Err.to_string e));
  (match E.Common.families_of_strings [ "FR-F"; "BOGUS" ] with
  | Error (Scaguard.Err.Invalid_config { field = "families"; value; _ }) ->
    check_bool "unknown name reported" true
      (let len = String.length value in
       len >= 5
       && List.exists
            (fun i -> String.sub value i 5 = "BOGUS")
            (List.init (len - 4) Fun.id))
  | Error e -> Alcotest.failf "wrong error: %s" (Scaguard.Err.to_string e)
  | Ok _ -> Alcotest.fail "typo silently accepted");
  match E.Common.families_of_strings [] with
  | Error Scaguard.Err.Empty_repository -> ()
  | Error e -> Alcotest.failf "wrong error on []: %s" (Scaguard.Err.to_string e)
  | Ok _ -> Alcotest.fail "empty list accepted"

(* ---- Table IV ---------------------------------------------------------------- *)

let test_table4_shape () =
  let rng = Sutil.Rng.create 82 in
  let rows = E.Table4.evaluate ~rng ~per_family:2 in
  check_int "four rows" 4 (List.length rows);
  List.iter
    (fun (r : E.Table4.row) ->
      check_bool "has blocks" true (r.E.Table4.bb > 0);
      check_bool "truth nonempty" true (r.E.Table4.tab > 0);
      check_bool "identified <= all" true (r.E.Table4.iab <= r.E.Table4.bb);
      check_bool "itab <= tab" true (r.E.Table4.itab <= r.E.Table4.tab);
      check_bool
        (L.to_string r.E.Table4.family ^ " accuracy >= 0.9")
        true
        (r.E.Table4.accuracy >= 0.9))
    rows;
  let avg = E.Table4.average rows in
  check_bool "avg accuracy >= 0.9" true (avg.E.Table4.accuracy >= 0.9)

(* ---- Table V ------------------------------------------------------------------ *)

let test_table5_shape () =
  let rng = Sutil.Rng.create 83 in
  let rows = E.Table5.evaluate ~rng in
  check_int "five scenarios" 5 (List.length rows);
  let score id =
    (List.find (fun r -> r.E.Table5.id = id) rows).E.Table5.score
  in
  (* the paper's qualitative ordering: S1 highest, attack scenarios all
     above the benign one; benign low *)
  check_bool "S1 > S2" true (score "S1" > score "S2");
  check_bool "S2 > benign" true (score "S2" > score "S5");
  check_bool "S3 > benign" true (score "S3" > score "S5");
  check_bool "S4 > benign" true (score "S4" > score "S5");
  check_bool "S1 high" true (score "S1" > 0.85);
  check_bool "benign below threshold" true
    (score "S5" < Scaguard.Detector.default_threshold)

(* ---- Table VI ------------------------------------------------------------------- *)

let test_table6_e1_scaguard_wins () =
  let rng = Sutil.Rng.create 84 in
  let td = E.Table6.prepare ~rng ~per_family:6 E.Table6.E1 in
  let scaguard = E.Table6.evaluate_approach ~rng td E.Table6.Scaguard in
  let scadet = E.Table6.evaluate_approach ~rng td E.Table6.Scadet in
  check_bool "scaguard strong" true (scaguard.Ml.Metrics.f1 >= 0.9);
  check_bool "scaguard beats scadet" true
    (scaguard.Ml.Metrics.f1 > scadet.Ml.Metrics.f1)

let test_table6_e3_generalizability () =
  let rng = Sutil.Rng.create 85 in
  let td = E.Table6.prepare ~rng ~per_family:6 E.Table6.E3_pp_from_fr in
  let scaguard = E.Table6.evaluate_approach ~rng td E.Table6.Scaguard in
  (* SCAGuard detects the unseen family via similarity to the known one *)
  check_bool "cross-family recall" true (scaguard.Ml.Metrics.recall >= 0.8)

let test_table6_e4_obfuscation_robustness () =
  let rng = Sutil.Rng.create 86 in
  let td = E.Table6.prepare ~rng ~per_family:8 E.Table6.E4 in
  let scaguard = E.Table6.evaluate_approach ~rng td E.Table6.Scaguard in
  let scadet = E.Table6.evaluate_approach ~rng td E.Table6.Scadet in
  check_bool "robust to obfuscation" true (scaguard.Ml.Metrics.f1 >= 0.8);
  check_bool "rules are not" true (scadet.Ml.Metrics.f1 < 0.5);
  check_bool "scaguard beats the rules" true
    (scaguard.Ml.Metrics.f1 > scadet.Ml.Metrics.f1)

(* ---- Fig 5 ------------------------------------------------------------------------ *)

let test_fig5_plateau () =
  let rng = Sutil.Rng.create 87 in
  let points =
    E.Fig5.evaluate ~rng ~per_family:6
      ~thresholds:[ 0.1; 0.3; 0.5; 0.55; 0.6; 0.65; 0.8; 0.95 ] ()
  in
  check_int "all thresholds evaluated" 8 (List.length points);
  (* extreme thresholds hurt; some middle threshold reaches >= 0.9 F1 *)
  let f1_at t =
    (List.find (fun p -> p.E.Fig5.threshold = t) points).E.Fig5.f1
  in
  check_bool "plateau exists" true
    (List.exists (fun p -> p.E.Fig5.f1 >= 0.9) points);
  check_bool "too-high threshold degrades" true (f1_at 0.95 < f1_at 0.6);
  match E.Fig5.plateau points with
  | Some (lo, hi) ->
    check_bool "plateau covers the default" true
      (lo <= Scaguard.Detector.default_threshold
      && Scaguard.Detector.default_threshold <= hi)
  | None -> Alcotest.fail "no >=0.9 plateau found"

(* ---- Ablation --------------------------------------------------------------------- *)

let test_ablation_full_is_best_or_close () =
  let rng = Sutil.Rng.create 88 in
  let f1_of variant =
    (E.Ablation.detection_scores ~rng:(Sutil.Rng.copy rng) ~per_family:4 variant)
      .Ml.Metrics.f1
  in
  let full = f1_of E.Ablation.Full in
  check_bool "full pipeline strong" true (full >= 0.85);
  (* dropping the relevance filter hurts or at best ties *)
  let no_step2 = f1_of E.Ablation.No_step2 in
  check_bool "set-overlap elimination helps" true (no_step2 <= full +. 1e-9)

let test_ablation_model_variants_build () =
  let rng = Sutil.Rng.create 89 in
  let sample =
    List.hd (Workloads.Dataset.mutated_attacks ~rng ~count:1 L.Fr_family)
  in
  let run = Detect.Run.execute sample in
  List.iter
    (fun v ->
      let m = E.Ablation.model_of_run v run in
      check_bool
        (E.Ablation.variant_name v ^ " model builds")
        true
        (Scaguard.Model.length m >= 0))
    E.Ablation.variants

(* ---- Datasets ---------------------------------------------------------------------- *)

let test_dataset_tables_render () =
  let rng = Sutil.Rng.create 90 in
  let t2 = E.Datasets.table2 ~rng ~per_family:2 in
  let t3 = E.Datasets.table3 ~rng ~count:8 in
  check_bool "table2 renders" true (String.length (Sutil.Table.render t2) > 0);
  check_bool "table3 renders" true (String.length (Sutil.Table.render t3) > 0)

let () =
  Alcotest.run "experiments"
    [
      ( "common",
        [
          Alcotest.test_case "label roundtrip" `Quick test_label_int_roundtrip;
          Alcotest.test_case "repository" `Quick test_repository_families;
          Alcotest.test_case "binarize" `Quick test_binarize;
          Alcotest.test_case "families of strings" `Quick
            test_families_of_strings;
        ] );
      ("table4", [ Alcotest.test_case "shape" `Slow test_table4_shape ]);
      ("table5", [ Alcotest.test_case "shape" `Slow test_table5_shape ]);
      ( "table6",
        [
          Alcotest.test_case "E1 scaguard wins" `Slow test_table6_e1_scaguard_wins;
          Alcotest.test_case "E3 generalizability" `Slow test_table6_e3_generalizability;
          Alcotest.test_case "E4 obfuscation" `Slow test_table6_e4_obfuscation_robustness;
        ] );
      ("fig5", [ Alcotest.test_case "plateau" `Slow test_fig5_plateau ]);
      ( "ablation",
        [
          Alcotest.test_case "full is best" `Slow test_ablation_full_is_best_or_close;
          Alcotest.test_case "variants build" `Slow test_ablation_model_variants_build;
        ] );
      ("datasets", [ Alcotest.test_case "tables render" `Quick test_dataset_tables_render ]);
    ]
