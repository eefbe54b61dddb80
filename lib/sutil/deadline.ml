type t = int64 option  (* absolute instant in clock ns; None = never *)

let none = None

(* the largest budget whose nanosecond count fits in an int64 *)
let max_budget_ms = Int64.div Int64.max_int 1_000_000L

let after ~now_ns ~budget_ms =
  if budget_ms <= 0 then None
  else
    let budget_ms = Int64.of_int budget_ms in
    (* saturate before multiplying and again after adding: a huge budget
       must mean "far future", not a wrapped past *)
    if Int64.compare budget_ms max_budget_ms > 0 then Some Int64.max_int
    else
      let t = Int64.add now_ns (Int64.mul budget_ms 1_000_000L) in
      Some (if Int64.compare t now_ns < 0 then Int64.max_int else t)

let is_none t = t = None

let expired ~now_ns = function
  | None -> false
  | Some t -> Int64.compare now_ns t >= 0

let remaining_ns ~now_ns = function
  | None -> None
  | Some t ->
    let r = Int64.sub t now_ns in
    Some (if Int64.compare r 0L < 0 then 0L else r)
