module L = Workloads.Label

type variant =
  | Full
  | No_cst
  | No_syntax
  | No_step2
  | No_restoration
  | Raw_dtw

let variants = [ Full; No_cst; No_syntax; No_step2; No_restoration; Raw_dtw ]

let variant_name = function
  | Full -> "full pipeline"
  | No_cst -> "no CST term (syntax only)"
  | No_syntax -> "no syntax term (CST only)"
  | No_step2 -> "no set-overlap elimination"
  | No_restoration -> "no MST path restoration"
  | Raw_dtw -> "raw-DTW 1/(1+D) similarity"

let alpha_of = function
  | No_cst -> Some 1.0
  | No_syntax -> Some 0.0
  | Full | No_step2 | No_restoration | Raw_dtw -> None

let model_of_run variant run =
  let a = Lazy.force run.Detect.Run.analysis in
  let info = a.Scaguard.Pipeline.info in
  let name = a.Scaguard.Pipeline.name in
  match variant with
  | Full | No_cst | No_syntax | Raw_dtw -> a.Scaguard.Pipeline.model
  | No_step2 ->
    let relevant = info.Scaguard.Relevant.step1 in
    let ag =
      Scaguard.Attack_graph.build a.Scaguard.Pipeline.cfg
        ~hpc:info.Scaguard.Relevant.hpc_of_block ~relevant
    in
    Scaguard.Model.build ~name info ag
  | No_restoration ->
    (* Relevant blocks only, no connecting paths. *)
    let ag =
      {
        Scaguard.Attack_graph.relevant = info.Scaguard.Relevant.relevant;
        tree_edges = [];
        nodes = info.Scaguard.Relevant.relevant;
        edges = [];
      }
    in
    Scaguard.Model.build ~name info ag

let similarity variant m1 m2 =
  match variant with
  | Raw_dtw -> Scaguard.Dtw.compare_models_raw m1 m2
  | v -> Scaguard.Dtw.compare_models ?alpha:(alpha_of v) m1 m2

let threshold_of = function
  | Raw_dtw -> 0.45 (* the paper's threshold, matching the raw scale *)
  | _ -> Scaguard.Detector.default_threshold

let detection_scores ~rng ~per_family variant =
  let td = Table6.prepare ~rng ~per_family Table6.E1 in
  let repo =
    List.map
      (fun (p : Scaguard.Detector.poc) -> (p.Scaguard.Detector.family, p.model))
      (Table6.repository_of td)
  in
  let threshold = threshold_of variant in
  let pairs =
    List.map
      (fun (run, truth) ->
        let m = model_of_run variant run in
        let best =
          List.fold_left
            (fun acc (family, poc_model) ->
              let s = similarity variant poc_model m in
              match acc with
              | Some (_, bs) when bs >= s -> acc
              | _ -> Some (family, s))
            None repo
        in
        let prediction =
          match best with
          | Some (family, s) when s >= threshold ->
            Option.value ~default:L.Benign (L.of_string family)
          | Some _ | None -> L.Benign
        in
        (prediction, truth))
      (Table6.test_runs td)
  in
  Common.metrics ~classes:L.all pairs

let to_table results =
  let t =
    Sutil.Table.create ~title:"Ablation: E1 classification under ablated designs"
      [ "Variant"; "Precision"; "Recall"; "F1-score" ]
  in
  List.iter
    (fun (v, (s : Ml.Metrics.scores)) ->
      Sutil.Table.add_row t
        [
          variant_name v;
          Sutil.Table.pct s.Ml.Metrics.precision;
          Sutil.Table.pct s.Ml.Metrics.recall;
          Sutil.Table.pct s.Ml.Metrics.f1;
        ])
    results;
  t
