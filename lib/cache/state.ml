type t = { ao : float; io : float }

let eps = 1e-9

(* Written as the condition to hold, so a NaN, which fails every
   comparison, is rejected too. *)
let make ~ao ~io =
  if not (ao >= -.eps && io >= -.eps && ao +. io <= 1.0 +. 1e-6) then
    invalid_arg
      (Printf.sprintf "Cache.State.make: invalid occupancy (%f, %f)" ao io);
  { ao; io }

let full_other = { ao = 0.0; io = 1.0 }

let change_magnitude ~before ~after =
  (abs_float (before.ao -. after.ao) +. abs_float (before.io -. after.io))
  /. 2.0

let distance (s1, s1') (s2, s2') =
  let p1 = change_magnitude ~before:s1 ~after:s1' in
  let p2 = change_magnitude ~before:s2 ~after:s2' in
  abs_float (p2 -. p1)

let pp fmt t = Format.fprintf fmt "(AO=%.4f, IO=%.4f)" t.ao t.io
