module L = Workloads.Label

type row = {
  family : L.t;
  n_samples : int;
  bb : int;
  tab : int;
  iab : int;
  itab : int;
  accuracy : float;
}

let row_of_family ~rng ~per_family family =
  let samples =
    Workloads.Dataset.mutated_attacks ~rng ~count:per_family family
  in
  let counts =
    List.map
      (fun sample ->
        let run = Detect.Run.execute sample in
        let a = Lazy.force run.Detect.Run.analysis in
        let cfg = a.Scaguard.Pipeline.cfg in
        let truth = Scaguard.Relevant.ground_truth_blocks cfg in
        let identified = a.Scaguard.Pipeline.attack_graph.Scaguard.Attack_graph.nodes in
        let itab = List.filter (fun b -> List.mem b identified) truth in
        ( Cfg.Graph.n_blocks cfg,
          List.length truth,
          List.length identified,
          List.length itab ))
      samples
  in
  let sum f = List.fold_left (fun acc c -> acc + f c) 0 counts in
  let bb = sum (fun (x, _, _, _) -> x) in
  let tab = sum (fun (_, x, _, _) -> x) in
  let iab = sum (fun (_, _, x, _) -> x) in
  let itab = sum (fun (_, _, _, x) -> x) in
  {
    family;
    n_samples = per_family;
    bb;
    tab;
    iab;
    itab;
    accuracy = (if tab = 0 then 1.0 else float_of_int itab /. float_of_int tab);
  }

let evaluate ~rng ~per_family =
  List.map (row_of_family ~rng ~per_family) L.attack_labels

let average rows =
  match rows with
  | [] -> invalid_arg "Table4.average: no rows"
  | first :: _ ->
    let sum f = List.fold_left (fun acc r -> acc + f r) 0 rows in
    let bb = sum (fun r -> r.bb) in
    let tab = sum (fun r -> r.tab) in
    let iab = sum (fun r -> r.iab) in
    let itab = sum (fun r -> r.itab) in
    {
      family = first.family;
      n_samples = sum (fun r -> r.n_samples);
      bb;
      tab;
      iab;
      itab;
      accuracy =
        (if tab = 0 then 1.0 else float_of_int itab /. float_of_int tab);
    }

let to_table rows =
  let t =
    Sutil.Table.create ~title:"Table IV: attack-relevant BB identification"
      [ "Attack"; "#BB"; "#TAB"; "#IAB"; "#ITAB"; "Accuracy" ]
  in
  let add name r =
    Sutil.Table.add_row t
      [
        name;
        string_of_int r.bb;
        string_of_int r.tab;
        string_of_int r.iab;
        string_of_int r.itab;
        Sutil.Table.pct r.accuracy;
      ]
  in
  List.iter (fun r -> add (L.to_string r.family) r) rows;
  Sutil.Table.add_separator t;
  add "Avg." (average rows);
  t
