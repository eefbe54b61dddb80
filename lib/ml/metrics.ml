type class_scores = {
  cls : int;
  support : int;
  tp : int;
  fp : int;
  fn : int;
  c_precision : float;
  c_recall : float;
  c_f1 : float;
}

type scores = {
  precision : float;
  recall : float;
  f1 : float;
  accuracy : float;
}

let per_class ~classes pairs =
  if pairs = [] then invalid_arg "Ml.Metrics.per_class: no samples";
  let count pred actual =
    List.length (List.filter (fun (p, a) -> pred p && actual a) pairs)
  in
  List.map
    (fun c ->
      let tp = count (( = ) c) (( = ) c) in
      let fp = count (( = ) c) (( <> ) c) in
      let fn = count (( <> ) c) (( = ) c) in
      let p =
        if tp + fp = 0 then 0.0 else float_of_int tp /. float_of_int (tp + fp)
      in
      let r =
        if tp + fn = 0 then 0.0 else float_of_int tp /. float_of_int (tp + fn)
      in
      let f = if p +. r = 0.0 then 0.0 else 2.0 *. p *. r /. (p +. r) in
      {
        cls = c;
        support = tp + fn;
        tp;
        fp;
        fn;
        c_precision = p;
        c_recall = r;
        c_f1 = f;
      })
    classes

(* Macro averages fold over [per_class] in class order — the same additions
   in the same order as summing the per-class tuples directly, so scores
   are bit-identical to the pre-breakdown implementation. *)
let evaluate ~classes pairs =
  if pairs = [] then invalid_arg "Ml.Metrics.evaluate: no samples";
  let n = float_of_int (List.length classes) in
  let p, r, f =
    List.fold_left
      (fun (p, r, f) c -> (p +. c.c_precision, r +. c.c_recall, f +. c.c_f1))
      (0.0, 0.0, 0.0) (per_class ~classes pairs)
  in
  let correct = List.length (List.filter (fun (p', a) -> p' = a) pairs) in
  {
    precision = p /. n;
    recall = r /. n;
    f1 = f /. n;
    accuracy = float_of_int correct /. float_of_int (List.length pairs);
  }

let confusion ~classes pairs =
  let idx c =
    let rec go i = function
      | [] -> None
      | x :: rest -> if x = c then Some i else go (i + 1) rest
    in
    go 0 classes
  in
  let n = List.length classes in
  let m = Array.make_matrix n n 0 in
  List.iter
    (fun (p, a) ->
      match (idx a, idx p) with
      | Some i, Some j -> m.(i).(j) <- m.(i).(j) + 1
      | _, _ -> ())
    pairs;
  m

let pp fmt s =
  Format.fprintf fmt "P=%.2f%% R=%.2f%% F1=%.2f%% acc=%.2f%%"
    (100.0 *. s.precision) (100.0 *. s.recall) (100.0 *. s.f1)
    (100.0 *. s.accuracy)
