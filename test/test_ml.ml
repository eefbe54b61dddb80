(* Tests for the ML substrate: vectors, scaling, metrics, SVM, logistic
   regression, k-NN and cross-validation. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_float = Alcotest.(check (float 1e-9))

(* ---- Vector ----------------------------------------------------------------- *)

let test_vector_ops () =
  check_float "dot" 11.0 (Ml.Vector.dot [| 1.0; 2.0 |] [| 3.0; 4.0 |]);
  check_float "norm" 5.0 (Ml.Vector.norm [| 3.0; 4.0 |]);
  check_float "euclidean" 5.0
    (Ml.Vector.euclidean_distance [| 0.0; 0.0 |] [| 3.0; 4.0 |]);
  let acc = [| 1.0; 1.0 |] in
  Ml.Vector.add_scaled acc 2.0 [| 1.0; 3.0 |];
  check_float "add_scaled" 7.0 acc.(1);
  check_bool "dim mismatch" true
    (try ignore (Ml.Vector.dot [| 1.0 |] [| 1.0; 2.0 |]); false
     with Invalid_argument _ -> true)

(* ---- Scale ------------------------------------------------------------------ *)

let test_scale_standardizes () =
  let xs = [ [| 0.0; 10.0 |]; [| 2.0; 10.0 |]; [| 4.0; 10.0 |] ] in
  let s = Ml.Scale.fit xs in
  let t = Ml.Scale.transform s [| 2.0; 10.0 |] in
  check_float "mean removed" 0.0 t.(0);
  (* constant feature passes through *)
  check_float "constant untouched" 10.0 t.(1);
  let t2 = Ml.Scale.transform s [| 4.0; 10.0 |] in
  check_bool "positive z" true (t2.(0) > 0.0)

(* ---- Metrics ----------------------------------------------------------------- *)

let test_metrics_perfect () =
  let s = Ml.Metrics.evaluate ~classes:[ 0; 1 ] [ (0, 0); (1, 1); (0, 0) ] in
  check_float "precision" 1.0 s.Ml.Metrics.precision;
  check_float "recall" 1.0 s.Ml.Metrics.recall;
  check_float "f1" 1.0 s.Ml.Metrics.f1;
  check_float "accuracy" 1.0 s.Ml.Metrics.accuracy

let test_metrics_known_confusion () =
  (* class 0: tp=1 fp=1 fn=1 -> P=R=0.5, F1=0.5; class 1 same by symmetry *)
  let pairs = [ (0, 0); (0, 1); (1, 0); (1, 1) ] in
  let s = Ml.Metrics.evaluate ~classes:[ 0; 1 ] pairs in
  check_float "macro precision" 0.5 s.Ml.Metrics.precision;
  check_float "macro recall" 0.5 s.Ml.Metrics.recall;
  check_float "accuracy" 0.5 s.Ml.Metrics.accuracy

let test_metrics_absent_class () =
  (* class 2 never predicted nor present: contributes zeros to the macro *)
  let s = Ml.Metrics.evaluate ~classes:[ 0; 2 ] [ (0, 0) ] in
  check_float "macro halved" 0.5 s.Ml.Metrics.precision

let test_confusion_matrix () =
  let m = Ml.Metrics.confusion ~classes:[ 0; 1 ] [ (0, 0); (1, 0); (1, 1) ] in
  check_int "actual 0 pred 0" 1 m.(0).(0);
  check_int "actual 0 pred 1" 1 m.(0).(1);
  check_int "actual 1 pred 1" 1 m.(1).(1);
  check_int "actual 1 pred 0" 0 m.(1).(0)

let test_per_class_breakdown () =
  (* class 0: tp=2 fp=1 fn=1 -> P=2/3, R=2/3; class 1: tp=1 fp=1 fn=1 ->
     P=R=0.5; class 2 absent -> all zeros, support 0 *)
  let pairs = [ (0, 0); (0, 0); (0, 1); (1, 0); (1, 1) ] in
  let rows = Ml.Metrics.per_class ~classes:[ 0; 1; 2 ] pairs in
  check_int "three rows" 3 (List.length rows);
  let row c = List.find (fun r -> r.Ml.Metrics.cls = c) rows in
  let r0 = row 0 in
  check_int "c0 support" 3 r0.Ml.Metrics.support;
  check_int "c0 tp" 2 r0.Ml.Metrics.tp;
  check_int "c0 fp" 1 r0.Ml.Metrics.fp;
  check_int "c0 fn" 1 r0.Ml.Metrics.fn;
  check_float "c0 precision" (2.0 /. 3.0) r0.Ml.Metrics.c_precision;
  check_float "c0 recall" (2.0 /. 3.0) r0.Ml.Metrics.c_recall;
  check_float "c0 f1" (2.0 /. 3.0) r0.Ml.Metrics.c_f1;
  let r1 = row 1 in
  check_int "c1 support" 2 r1.Ml.Metrics.support;
  check_float "c1 precision" 0.5 r1.Ml.Metrics.c_precision;
  check_float "c1 recall" 0.5 r1.Ml.Metrics.c_recall;
  check_float "c1 f1" 0.5 r1.Ml.Metrics.c_f1;
  let r2 = row 2 in
  check_int "c2 support" 0 r2.Ml.Metrics.support;
  check_float "c2 precision" 0.0 r2.Ml.Metrics.c_precision;
  check_float "c2 f1" 0.0 r2.Ml.Metrics.c_f1;
  (* evaluate is the macro average of the breakdown, bit for bit *)
  let s = Ml.Metrics.evaluate ~classes:[ 0; 1; 2 ] pairs in
  let avg f = (f r0 +. f r1 +. f r2) /. 3.0 in
  check_float "macro precision matches breakdown"
    (avg (fun r -> r.Ml.Metrics.c_precision))
    s.Ml.Metrics.precision;
  check_float "macro recall matches breakdown"
    (avg (fun r -> r.Ml.Metrics.c_recall))
    s.Ml.Metrics.recall;
  check_float "macro f1 matches breakdown"
    (avg (fun r -> r.Ml.Metrics.c_f1))
    s.Ml.Metrics.f1

(* ---- synthetic data ----------------------------------------------------------- *)

(* Two Gaussian-ish blobs separated along the first dimension. *)
let blob rng ~label ~center n =
  List.init n (fun _ ->
      let jitter () = Sutil.Rng.float rng 1.0 -. 0.5 in
      ([| center +. jitter (); jitter () |], label))

let separable rng =
  blob rng ~label:true ~center:3.0 40 @ blob rng ~label:false ~center:(-3.0) 40

(* ---- SVM --------------------------------------------------------------------- *)

let test_svm_separable () =
  let rng = Sutil.Rng.create 11 in
  let data = separable rng in
  let model = Ml.Svm.train ~rng data in
  let correct =
    List.length (List.filter (fun (x, y) -> Ml.Svm.predict model x = y) data)
  in
  check_bool "fits separable data" true (correct >= 78)

let test_svm_multiclass () =
  let rng = Sutil.Rng.create 12 in
  (* corner centers: each class is linearly separable one-vs-rest *)
  let corner cx cy label n =
    List.init n (fun _ ->
        let jitter () = Sutil.Rng.float rng 1.0 -. 0.5 in
        ([| cx +. jitter (); cy +. jitter () |], label))
  in
  let tri =
    List.concat
      [ corner 5.0 0.0 0 30; corner 0.0 5.0 1 30; corner (-5.0) (-5.0) 2 30 ]
  in
  let m = Ml.Svm.train_multi ~rng tri in
  let correct =
    List.length (List.filter (fun (x, y) -> Ml.Svm.predict_multi m x = y) tri)
  in
  check_bool "one-vs-rest works" true (correct >= 80)

(* ---- Logreg ------------------------------------------------------------------- *)

let test_logreg_separable () =
  let rng = Sutil.Rng.create 13 in
  let data = separable rng in
  let model = Ml.Logreg.train data in
  let correct =
    List.length (List.filter (fun (x, y) -> Ml.Logreg.predict model x = y) data)
  in
  check_bool "fits separable data" true (correct >= 78);
  let p_pos = Ml.Logreg.probability model [| 5.0; 0.0 |] in
  let p_neg = Ml.Logreg.probability model [| -5.0; 0.0 |] in
  check_bool "probability ordering" true (p_pos > 0.9 && p_neg < 0.1)

(* ---- Knn ---------------------------------------------------------------------- *)

let test_knn_basic () =
  let train =
    [ ([| 0.0 |], 0); ([| 0.1 |], 0); ([| 0.2 |], 0);
      ([| 5.0 |], 1); ([| 5.1 |], 1); ([| 5.2 |], 1) ]
  in
  let m = Ml.Knn.fit ~k:3 train in
  check_int "near zero" 0 (Ml.Knn.predict m [| 0.05 |]);
  check_int "near five" 1 (Ml.Knn.predict m [| 5.05 |]);
  let pred, votes = Ml.Knn.predict_with_votes m [| 0.0 |] in
  check_int "votes for 0" 3 (List.assoc 0 votes);
  check_int "prediction" 0 pred

let test_knn_tie_break_nearest () =
  let train = [ ([| 0.0 |], 0); ([| 1.0 |], 1) ] in
  let m = Ml.Knn.fit ~k:2 train in
  (* k=2 tie: nearest neighbour's label wins *)
  check_int "tie to nearest" 0 (Ml.Knn.predict m [| 0.2 |])

let test_knn_errors () =
  check_bool "k=0 rejected" true
    (try ignore (Ml.Knn.fit ~k:0 [ ([| 0.0 |], 0) ]); false
     with Invalid_argument _ -> true)

(* ---- Cv ----------------------------------------------------------------------- *)

let test_cv_folds_partition () =
  let rng = Sutil.Rng.create 14 in
  let xs = List.init 20 Fun.id in
  let folds = Ml.Cv.folds ~rng ~k:5 xs in
  check_int "five folds" 5 (List.length folds);
  let all_test = List.concat_map snd folds in
  check_int "tests partition data" 20 (List.length all_test);
  Alcotest.(check (list int)) "every element tested once"
    (List.sort compare xs) (List.sort compare all_test);
  List.iter
    (fun (train, test) ->
      check_int "train+test = all" 20 (List.length train + List.length test);
      check_bool "disjoint" true
        (List.for_all (fun t -> not (List.mem t train)) test))
    folds

let test_cross_validate_perfect_model () =
  let rng = Sutil.Rng.create 15 in
  let xs = List.init 30 (fun i -> (i, i mod 2)) in
  let acc =
    Ml.Cv.cross_validate ~rng ~k:5
      ~train:(fun _ -> ())
      ~test:(fun () (x, y) -> x mod 2 = y)
      xs
  in
  check_float "perfect" 1.0 acc

let prop_knn_self_consistent =
  (* k=1 on the training set returns each point's own label. *)
  QCheck.Test.make ~name:"1-NN memorizes training set" ~count:50
    (QCheck.make
       QCheck.Gen.(
         list_size (int_range 1 20) (pair (float_range (-10.) 10.) (int_range 0 3))))
    (fun raw ->
      (* de-duplicate feature values so no two identical points carry
         different labels *)
      let seen = Hashtbl.create 16 in
      let pts =
        List.filter
          (fun (x, _) ->
            if Hashtbl.mem seen x then false
            else begin Hashtbl.add seen x (); true end)
          raw
      in
      match pts with
      | [] -> true
      | _ ->
        let train = List.map (fun (x, l) -> ([| x |], l)) pts in
        let m = Ml.Knn.fit ~k:1 train in
        List.for_all (fun (x, l) -> Ml.Knn.predict m [| x |] = l) pts)

let () =
  Alcotest.run "ml"
    [
      ("vector", [ Alcotest.test_case "ops" `Quick test_vector_ops ]);
      ("scale", [ Alcotest.test_case "standardizes" `Quick test_scale_standardizes ]);
      ( "metrics",
        [
          Alcotest.test_case "perfect" `Quick test_metrics_perfect;
          Alcotest.test_case "known confusion" `Quick test_metrics_known_confusion;
          Alcotest.test_case "absent class" `Quick test_metrics_absent_class;
          Alcotest.test_case "confusion matrix" `Quick test_confusion_matrix;
          Alcotest.test_case "per-class breakdown" `Quick
            test_per_class_breakdown;
        ] );
      ( "svm",
        [
          Alcotest.test_case "separable" `Quick test_svm_separable;
          Alcotest.test_case "multiclass" `Quick test_svm_multiclass;
        ] );
      ("logreg", [ Alcotest.test_case "separable" `Quick test_logreg_separable ]);
      ( "knn",
        [
          Alcotest.test_case "basic" `Quick test_knn_basic;
          Alcotest.test_case "tie break" `Quick test_knn_tie_break_nearest;
          Alcotest.test_case "errors" `Quick test_knn_errors;
          QCheck_alcotest.to_alcotest prop_knn_self_consistent;
        ] );
      ( "cv",
        [
          Alcotest.test_case "folds partition" `Quick test_cv_folds_partition;
          Alcotest.test_case "cross validate" `Quick test_cross_validate_perfect_model;
        ] );
    ]
