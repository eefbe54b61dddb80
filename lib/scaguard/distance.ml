let default_alpha = 0.5

(* The per-step cost as a definition; Dtw's scoring kernel computes it
   inline, with the same float operations in the same order. *)
let entry_distance ?(alpha = default_alpha) (e1 : Model.entry) (e2 : Model.entry) =
  (alpha
  *. Sutil.Levenshtein.normalized_ints ~ws:(Sutil.Levenshtein.workspace ())
       e1.Model.tokens e2.Model.tokens)
  +. ((1.0 -. alpha) *. Cst.distance e1.Model.cst e2.Model.cst)
