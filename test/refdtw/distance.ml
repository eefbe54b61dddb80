(* Reference copy of Scaguard.Distance before the scoring kernel: the
   per-step cost as closures over entries, string and interned tokens. *)

module Model = Scaguard.Model
module Cst = Scaguard.Cst

let default_alpha = 0.5

let instruction_distance ?lev a b =
  Levenshtein.normalized ?ws:lev ~equal:String.equal a b

let csp_distance = Cst.distance

(* The production cost runs the Levenshtein DP over the interned token ids
   (one int compare per cell).  Interning from one pool preserves token
   equality — the only thing the DP consults — so this is bit-identical to
   the string cost below; the interned-scoring property asserts it. *)
let entry_distance ?lev ?(alpha = default_alpha) (e1 : Model.entry)
    (e2 : Model.entry) =
  (alpha
  *. Levenshtein.normalized_ints ?ws:lev e1.Model.tokens e2.Model.tokens)
  +. ((1.0 -. alpha) *. csp_distance e1.Model.cst e2.Model.cst)

let entry_distance_strings ?lev ?(alpha = default_alpha) (e1 : Model.entry)
    (e2 : Model.entry) =
  (alpha *. instruction_distance ?lev e1.Model.normalized e2.Model.normalized)
  +. ((1.0 -. alpha) *. csp_distance e1.Model.cst e2.Model.cst)

(* Lower bound on [entry_distance] from per-entry summaries alone.

   Soundness: D_IS = lev / max_len >= |len1 - len2| / max_len (the
   Levenshtein length bound), and D_CSP is *exactly*
   |mag1 - mag2| when mag_i is the entry's cache-change magnitude
   (Cst.distance is the absolute magnitude difference), so for
   alpha in [0,1] the convex blend of the two bounds is <= the blend of
   the true terms. *)
let entry_lower_bound ?(alpha = default_alpha) (len1, mag1) (len2, mag2) =
  let lev_lb =
    if len1 = 0 && len2 = 0 then 0.0
    else float_of_int (abs (len1 - len2)) /. float_of_int (max len1 len2)
  in
  (alpha *. lev_lb) +. ((1.0 -. alpha) *. abs_float (mag1 -. mag2))
