let sum xs =
  (* Kahan summation keeps experiment aggregates stable regardless of list
     order. *)
  let total = ref 0.0 and comp = ref 0.0 in
  let add x =
    let y = x -. !comp in
    let t = !total +. y in
    comp := t -. !total -. y;
    total := t
  in
  List.iter add xs;
  !total

let mean = function
  | [] -> 0.0
  | xs -> sum xs /. float_of_int (List.length xs)

let stddev = function
  | [] | [ _ ] -> 0.0
  | xs ->
    let m = mean xs in
    let sq = List.map (fun x -> (x -. m) *. (x -. m)) xs in
    sqrt (sum sq /. float_of_int (List.length xs))

let sorted xs = List.sort compare xs

let median = function
  | [] -> 0.0
  | xs ->
    let a = Array.of_list (sorted xs) in
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let percentile p = function
  | [] -> 0.0
  | xs ->
    let a = Array.of_list (sorted xs) in
    let n = Array.length a in
    let rank = int_of_float (ceil (p *. float_of_int n)) in
    let idx = max 0 (min (n - 1) (rank - 1)) in
    a.(idx)

let minimum = function [] -> 0.0 | x :: xs -> List.fold_left min x xs
let maximum = function [] -> 0.0 | x :: xs -> List.fold_left max x xs

(* ---- histogram-bucket quantiles ------------------------------------------- *)

let bucket_total counts = Array.fold_left ( + ) 0 counts

let percentile_of_buckets ~bounds ~counts p =
  let nb = Array.length bounds in
  if Array.length counts <> nb + 1 then
    invalid_arg "Stats.percentile_of_buckets: need one count per bound plus overflow";
  let total = bucket_total counts in
  if total = 0 then 0.0
  else begin
    (* Nearest-rank into the cumulative counts, then linear interpolation
       inside the chosen bucket (observations are assumed uniform within a
       bucket, the standard Prometheus histogram_quantile estimate). *)
    let rank = max 1 (int_of_float (ceil (p *. float_of_int total))) in
    let rank = min rank total in
    let rec find b cum =
      if b > nb then nb
      else if cum + counts.(b) >= rank then b
      else find (b + 1) (cum + counts.(b))
    in
    let b = find 0 0 in
    if b >= nb then
      (* overflow bucket: no finite upper edge, report the largest bound *)
      if nb = 0 then 0.0 else bounds.(nb - 1)
    else begin
      let cum_before = ref 0 in
      for i = 0 to b - 1 do
        cum_before := !cum_before + counts.(i)
      done;
      let lo = if b = 0 then 0.0 else bounds.(b - 1) in
      let hi = bounds.(b) in
      let within =
        float_of_int (rank - !cum_before) /. float_of_int counts.(b)
      in
      lo +. (within *. (hi -. lo))
    end
  end
