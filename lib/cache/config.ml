type t = { sets : int; ways : int; line_bits : int }

let is_pow2 n = n > 0 && n land (n - 1) = 0

let make ~sets ~ways ?(line_bits = 6) () =
  if sets <= 0 then invalid_arg "Cache.Config.make: sets must be positive";
  if ways <= 0 then invalid_arg "Cache.Config.make: ways must be positive";
  if line_bits < 1 || line_bits > 16 then
    invalid_arg "Cache.Config.make: unreasonable line_bits";
  { sets; ways; line_bits }

let lines t = t.sets * t.ways
let line_size t = 1 lsl t.line_bits

(* Power-of-two set counts index with a mask (hardware-style); other counts
   (e.g. the prime-sized CST probe) fall back to modulo, which keeps
   page-stride access patterns from aliasing into one set. *)
let set_of_addr t addr =
  let line = addr lsr t.line_bits in
  if is_pow2 t.sets then line land (t.sets - 1) else line mod t.sets

let tag_of_addr t addr = (addr lsr t.line_bits) / t.sets
let line_addr t addr = addr land lnot ((1 lsl t.line_bits) - 1)

let l1d = make ~sets:64 ~ways:8 ()
let l1i = make ~sets:64 ~ways:8 ()
let llc = make ~sets:512 ~ways:16 ()
let cst_probe = make ~sets:61 ~ways:2 ()
