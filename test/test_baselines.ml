(* Tests for the baseline detectors: feature extraction, SCADET's rules and
   the learning-based classifiers. *)

module A = Workloads.Attacks
module D = Workloads.Dataset
module L = Workloads.Label

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let run_spec spec = A.run_spec spec

let run_of_label label =
  let rng = Sutil.Rng.create 71 in
  let s = List.hd (D.mutated_attacks ~rng ~count:1 label) in
  (s, D.run s)

(* ---- Features --------------------------------------------------------------- *)

let test_feature_dims () =
  let res = run_spec (A.flush_reload ~style:A.Iaik ()) in
  check_int "whole run dim" Baselines.Features.dim_whole_run
    (Array.length (Baselines.Features.whole_run res));
  check_int "loop profile dim" Baselines.Features.dim_loop_profile
    (Array.length (Baselines.Features.loop_profile res))

let test_features_distinguish_attack_kinds () =
  let fr = Baselines.Features.whole_run (run_spec (A.flush_reload ~style:A.Iaik ())) in
  let pp = Baselines.Features.whole_run (run_spec (A.prime_probe ~style:A.Iaik ())) in
  check_bool "profiles differ" true (Ml.Vector.euclidean_distance fr pp > 0.01)

let test_features_finite () =
  let res = run_spec (A.spectre_pp ()) in
  Array.iter
    (fun v -> check_bool "finite" true (Float.is_finite v))
    (Baselines.Features.whole_run res);
  Array.iter
    (fun v -> check_bool "finite" true (Float.is_finite v))
    (Baselines.Features.loop_profile res)

(* ---- Scadet ------------------------------------------------------------------ *)

let test_scadet_detects_prime_probe () =
  List.iter
    (fun style ->
      let spec = A.prime_probe ~style () in
      let res = run_spec spec in
      let report = Baselines.Scadet.detect spec.A.program res in
      check_bool "PP detected" true report.Baselines.Scadet.detected;
      check_bool "sets found" true
        (List.length report.Baselines.Scadet.swept_sets >= 4))
    [ A.Iaik; A.Jzhang ]

let test_scadet_misses_flush_reload () =
  let spec = A.flush_reload ~style:A.Iaik () in
  let res = run_spec spec in
  check_bool "FR not matched by PP rules" false
    (Baselines.Scadet.detect spec.A.program res).Baselines.Scadet.detected

let test_scadet_misses_benign () =
  let rng = Sutil.Rng.create 72 in
  List.iter
    (fun (s : D.sample) ->
      let res = D.run s in
      check_bool (s.D.name ^ " benign") false
        (Baselines.Scadet.detect s.D.program res).Baselines.Scadet.detected)
    (D.benign_samples ~rng ~count:6)

let test_scadet_defeated_by_obfuscation () =
  let rng = Sutil.Rng.create 73 in
  let detected =
    List.filter
      (fun (s : D.sample) ->
        let res = D.run s in
        (Baselines.Scadet.detect s.D.program res).Baselines.Scadet.detected)
      (D.obfuscated_attacks ~rng ~count:4 L.Pp_family)
  in
  (* the polymorphic variants break the tight-loop rule *)
  check_int "obfuscated variants evade" 0 (List.length detected)

let test_scadet_rejects_called_gadgets () =
  (* Spectre-PP primes and probes, but its gadget calls abort the trace
     segmentation (the rules assume straight-line phases). *)
  let spec = A.spectre_pp () in
  let res = run_spec spec in
  check_bool "S-PP evades" false
    (Baselines.Scadet.detect spec.A.program res).Baselines.Scadet.detected

let test_scadet_classify_string () =
  let spec = A.prime_probe ~style:A.Iaik () in
  let res = run_spec spec in
  Alcotest.(check (option string)) "labels PP-F" (Some "PP-F")
    (Baselines.Scadet.classify spec.A.program res)

(* ---- Learning-based --------------------------------------------------------------- *)

let training_data () =
  let rng = Sutil.Rng.create 74 in
  let attack l n =
    List.map (fun s -> (D.run s, Detect.label_to_int l))
      (D.mutated_attacks ~rng ~count:n l)
  in
  let benign n =
    List.map (fun s -> (D.run s, Detect.label_to_int L.Benign))
      (D.benign_samples ~rng ~count:n)
  in
  attack L.Fr_family 6 @ attack L.Pp_family 6 @ benign 6

let test_nights_watch_learns () =
  let rng = Sutil.Rng.create 75 in
  let data = training_data () in
  List.iter
    (fun variant ->
      let m = Baselines.Nights_watch.train ~variant ~rng data in
      (* predictions on the training data should be mostly right *)
      let correct =
        List.length (List.filter (fun (res, l) -> Baselines.Nights_watch.predict m res = l) data)
      in
      check_bool
        (Baselines.Nights_watch.variant_name variant ^ " fits")
        true
        (correct * 10 >= List.length data * 7))
    [ Baselines.Nights_watch.Svm_nw; Baselines.Nights_watch.Lr_nw ]

let test_mlfm_learns () =
  let data = training_data () in
  let m = Baselines.Mlfm.train data in
  let correct =
    List.length (List.filter (fun (res, l) -> Baselines.Mlfm.predict m res = l) data)
  in
  check_bool "knn fits" true (correct * 10 >= List.length data * 7)

let test_nights_watch_generalizes_within_family () =
  let rng = Sutil.Rng.create 76 in
  let m =
    Baselines.Nights_watch.train ~variant:Baselines.Nights_watch.Svm_nw ~rng
      (training_data ())
  in
  let _, fresh_fr = run_of_label L.Fr_family in
  check_int "fresh FR classified FR"
    (Detect.label_to_int L.Fr_family)
    (Baselines.Nights_watch.predict m fresh_fr)

(* ---- Anomaly / Phased-Guard ------------------------------------------------------- *)

let test_anomaly_flags_attacks_not_benign () =
  let rng = Sutil.Rng.create 77 in
  let benign_results =
    List.map (fun s -> D.run s) (D.benign_samples ~rng ~count:10)
  in
  let model = Baselines.Anomaly.train benign_results in
  (* fresh benign samples mostly pass *)
  let fresh_benign =
    List.map (fun s -> D.run s) (D.benign_samples ~rng ~count:6)
  in
  let benign_flagged =
    List.length (List.filter (Baselines.Anomaly.is_attack model) fresh_benign)
  in
  (* the tight threshold needed to catch FR costs benign false positives —
     the paper's criticism of single-source anomaly detection *)
  check_bool "benign false positives bounded" true (benign_flagged <= 3);
  (* attacks stick out *)
  let attacks =
    List.map (fun s -> D.run s)
      (D.mutated_attacks ~rng ~count:3 L.Fr_family
      @ D.mutated_attacks ~rng ~count:3 L.Pp_family)
  in
  let caught =
    List.length (List.filter (Baselines.Anomaly.is_attack model) attacks)
  in
  check_bool "most attacks anomalous" true (caught >= 4)

let test_anomaly_requires_training () =
  check_bool "empty rejected" true
    (try ignore (Baselines.Anomaly.train []); false
     with Invalid_argument _ -> true)

let test_phased_guard_routes () =
  let rng = Sutil.Rng.create 78 in
  let benign = List.map (fun s -> D.run s) (D.benign_samples ~rng ~count:8) in
  let attacks =
    List.concat_map
      (fun l ->
        List.map
          (fun s -> (D.run s, Detect.label_to_int l))
          (D.mutated_attacks ~rng ~count:4 l))
      [ L.Fr_family; L.Pp_family ]
  in
  let pg =
    Baselines.Phased_guard.train ~rng ~benign ~attacks
      ~benign_label:(Detect.label_to_int L.Benign)
  in
  (* benign routed out at phase one most of the time *)
  let fresh_benign = List.map (fun s -> D.run s) (D.benign_samples ~rng ~count:4) in
  let benign_ok =
    List.length
      (List.filter
         (fun r ->
           Baselines.Phased_guard.predict pg r
           = Detect.label_to_int L.Benign)
         fresh_benign)
  in
  check_bool "benign mostly passes the gate" true (benign_ok >= 2);
  (* a fresh FR variant reaches phase two and gets an attack family *)
  let fr = D.run (List.hd (D.mutated_attacks ~rng ~count:1 L.Fr_family)) in
  let p = Baselines.Phased_guard.predict pg fr in
  check_bool "attack classified as an attack family" true
    (p <> Detect.label_to_int L.Benign)

let () =
  Alcotest.run "baselines"
    [
      ( "features",
        [
          Alcotest.test_case "dims" `Quick test_feature_dims;
          Alcotest.test_case "distinguish kinds" `Quick
            test_features_distinguish_attack_kinds;
          Alcotest.test_case "finite" `Quick test_features_finite;
        ] );
      ( "scadet",
        [
          Alcotest.test_case "detects PP" `Quick test_scadet_detects_prime_probe;
          Alcotest.test_case "misses FR" `Quick test_scadet_misses_flush_reload;
          Alcotest.test_case "misses benign" `Quick test_scadet_misses_benign;
          Alcotest.test_case "defeated by obfuscation" `Quick
            test_scadet_defeated_by_obfuscation;
          Alcotest.test_case "gadget calls abort rules" `Quick
            test_scadet_rejects_called_gadgets;
          Alcotest.test_case "classify string" `Quick test_scadet_classify_string;
        ] );
      ( "anomaly",
        [
          Alcotest.test_case "flags attacks not benign" `Slow
            test_anomaly_flags_attacks_not_benign;
          Alcotest.test_case "requires training" `Quick test_anomaly_requires_training;
          Alcotest.test_case "phased-guard routes" `Slow test_phased_guard_routes;
        ] );
      ( "learned",
        [
          Alcotest.test_case "nights-watch fits" `Slow test_nights_watch_learns;
          Alcotest.test_case "mlfm fits" `Slow test_mlfm_learns;
          Alcotest.test_case "generalizes within family" `Slow
            test_nights_watch_generalizes_within_family;
        ] );
    ]
