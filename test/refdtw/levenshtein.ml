(* Reference copy of Sutil.Levenshtein before the monomorphic scoring
   kernel: the generic DP over an [~equal] closure, with [?limit]. *)

(* Two-row dynamic programming; O(|a|*|b|) time, O(min) space after the
   orientation swap.  A workspace lets hot callers (batch DTW scoring) reuse
   the two rows instead of allocating per call.

   [limit] bounds the work: the result is capped at [limit], and the DP stops
   as soon as every cell of the current row reaches it (cells in later rows
   never fall below the minimum of the current row, so the true distance is
   already known to be >= limit).  The free length bound |n - m| <= distance
   short-circuits the DP entirely when the lengths alone prove the cap. *)

type workspace = { mutable prev : int array; mutable cur : int array }

let workspace () = { prev = [||]; cur = [||] }

let ensure ws len =
  if Array.length ws.prev < len then begin
    let cap = max len (2 * Array.length ws.prev) in
    ws.prev <- Array.make cap 0;
    ws.cur <- Array.make cap 0
  end

let lower_bound a b = abs (Array.length a - Array.length b)

exception Limit_reached

let distance ?ws ?limit ~equal a b =
  let a, b = if Array.length a < Array.length b then (b, a) else (a, b) in
  let n = Array.length a and m = Array.length b in
  let cap d = match limit with Some l -> min d l | None -> d in
  match limit with
  | Some l when n - m >= l -> l (* distance >= |n - m| >= limit *)
  | _ ->
    if m = 0 then cap n
    else begin
      let prev, cur =
        match ws with
        | Some ws ->
          ensure ws (m + 1);
          (ws.prev, ws.cur)
        | None -> (Array.make (m + 1) 0, Array.make (m + 1) 0)
      in
      for j = 0 to m do
        prev.(j) <- j
      done;
      try
        for i = 1 to n do
          cur.(0) <- i;
          let row_min = ref i in
          for j = 1 to m do
            let cost = if equal a.(i - 1) b.(j - 1) then 0 else 1 in
            let v =
              min (min (cur.(j - 1) + 1) (prev.(j) + 1)) (prev.(j - 1) + cost)
            in
            cur.(j) <- v;
            if v < !row_min then row_min := v
          done;
          Array.blit cur 0 prev 0 (m + 1);
          (* every cell of a later row is >= the minimum of this row *)
          match limit with
          | Some l when !row_min >= l -> raise_notrace Limit_reached
          | _ -> ()
        done;
        cap prev.(m)
      with Limit_reached -> Option.get limit
    end

let distance_strings ?ws ?limit a b = distance ?ws ?limit ~equal:String.equal a b

(* The annotation monomorphizes the compare to a direct int test — this is
   the inner loop of every DTW entry cost once tokens are interned. *)
let int_equal (a : int) b = a = b
let distance_ints ?ws ?limit a b = distance ?ws ?limit ~equal:int_equal a b

let normalized ?ws ~equal a b =
  let n = max (Array.length a) (Array.length b) in
  if n = 0 then 0.0
  else float_of_int (distance ?ws ~equal a b) /. float_of_int n

let normalized_ints ?ws a b = normalized ?ws ~equal:int_equal a b

let normalized_lower_bound a b =
  let n = max (Array.length a) (Array.length b) in
  if n = 0 then 0.0 else float_of_int (lower_bound a b) /. float_of_int n
