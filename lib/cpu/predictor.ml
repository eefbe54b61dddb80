type t = {
  counters : int array; (* 2-bit: 0,1 -> not taken; 2,3 -> taken *)
  mask : int;
}

let create ?(entries = 1024) () =
  if entries <= 0 || entries land (entries - 1) <> 0 then
    invalid_arg "Predictor.create: entries must be a power of two";
  (* Weakly not-taken start: forward branches default to fall-through, which
     is the common compiler assumption. *)
  { counters = Array.make entries 1; mask = entries - 1 }

let slot t pc = (pc lsr 2) land t.mask

let predict_taken t ~pc = t.counters.(slot t pc) >= 2

let update t ~pc ~taken =
  let i = slot t pc in
  let c = t.counters.(i) in
  t.counters.(i) <- (if taken then min 3 (c + 1) else max 0 (c - 1))
