(* Two-row dynamic programming over interned tokens; O(|a|*|b|) time,
   O(min) space after the orientation swap.  A workspace lends the two rows
   to every call, and the DP swaps them per row instead of copying.
   Everything is monomorphic: one int compare per token pair and the
   three-way min written out, so a call allocates nothing once the
   workspace has grown. *)

type workspace = { mutable prev : int array; mutable cur : int array }

let workspace () = { prev = [||]; cur = [||] }

let ensure ws len =
  if Array.length ws.prev < len then begin
    let cap = max len (2 * Array.length ws.prev) in
    ws.prev <- Array.make cap 0;
    ws.cur <- Array.make cap 0
  end

(* [a] is the longer sequence, [b] the one the rows run over. *)
let dp ws (a : int array) (b : int array) =
  let n = Array.length a and m = Array.length b in
  if m = 0 then n
  else begin
    ensure ws (m + 1);
    let prev = ref ws.prev and cur = ref ws.cur in
    for j = 0 to m do
      !prev.(j) <- j
    done;
    for i = 1 to n do
      let p = !prev and c = !cur and ai = a.(i - 1) in
      c.(0) <- i;
      (* the row's left cell and the previous row's diagonal ride along *)
      let left = ref i and diag = ref (i - 1) in
      for j = 1 to m do
        let up = p.(j) in
        let sub = if ai = b.(j - 1) then !diag else !diag + 1 in
        let v = if up < !left then up + 1 else !left + 1 in
        let v = if sub < v then sub else v in
        c.(j) <- v;
        diag := up;
        left := v
      done;
      prev := c;
      cur := p
    done;
    !prev.(m)
  end

let distance_ints ~ws a b =
  if Array.length a < Array.length b then dp ws b a else dp ws a b

let normalized_ints ~ws a b =
  let la = Array.length a and lb = Array.length b in
  let n = if la > lb then la else lb in
  if n = 0 then 0.0 else float_of_int (distance_ints ~ws a b) /. float_of_int n
