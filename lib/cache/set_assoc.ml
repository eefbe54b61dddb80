(* Lines live in flat per-field arrays indexed by [set * ways + way]: a
   lookup reads and writes them in place and allocates nothing (bar the
   Random policy's boxed int64 state when it picks a victim).  The address
   geometry is precomputed: with a power-of-two set count an address's set
   is a shift and a mask and its tag one shift (Config.make keeps
   [line_bits >= 1], so the line number is never negative and dividing it
   by the set count is a shift).  Otherwise a lookup divides, as Config
   does: the prime-sized CST probe takes a modulo. *)
type t = {
  cfg : Config.t;
  policy : Policy.t;
  ways : int;
  shifts : bool; (* the shift-and-mask geometry applies *)
  set_mask : int;
  tag_shift : int;
  valid : bool array;
  tags : int array;
  owners : Owner.t array;
  stamps : int array; (* lru/fill stamp: larger = more recent *)
  mutable clock : int;
  mutable rnd : int64; (* state for the Random policy *)
  mutable evicted : bool;
  mutable evicted_addr : int;
  mutable evicted_owner : Owner.t;
}

let log2 n =
  let rec go k = if 1 lsl k >= n then k else go (k + 1) in
  go 0

let create ?(policy = Policy.Lru) cfg =
  let n = Config.lines cfg in
  let sets = cfg.Config.sets in
  {
    cfg;
    policy;
    ways = cfg.Config.ways;
    shifts = sets > 0 && sets land (sets - 1) = 0;
    set_mask = sets - 1;
    tag_shift = cfg.Config.line_bits + log2 sets;
    valid = Array.make n false;
    tags = Array.make n 0;
    owners = Array.make n Owner.System;
    stamps = Array.make n 0;
    clock = 0;
    rnd =
      (match policy with
      | Policy.Random seed -> Int64.of_int ((seed * 2) + 1)
      | Policy.Lru | Policy.Fifo -> 1L);
    evicted = false;
    evicted_addr = 0;
    evicted_owner = Owner.System;
  }

let config t = t.cfg

let tick t =
  t.clock <- t.clock + 1;
  t.clock

(* First slot in [i, stop) holding [tag], or -1.  Top-level recursion, so
   no closure is allocated per lookup; the tag is tested first, as it rules
   out most ways of a full set. *)
let rec find_from t tag i stop =
  if i >= stop then -1
  else if t.tags.(i) = tag && t.valid.(i) then i
  else find_from t tag (i + 1) stop

let rec invalid_from t i stop =
  if i >= stop then -1 else if not t.valid.(i) then i else invalid_from t (i + 1) stop

let next_random t bound =
  (* splitmix64 step, reduced *)
  t.rnd <- Int64.add t.rnd 0x9E3779B97F4A7C15L;
  let z = t.rnd in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.to_int (Int64.shift_right_logical (Int64.logxor z (Int64.shift_right_logical z 31)) 2)
  mod bound

(* Invalid ways fill first under every policy; in a full set LRU and FIFO
   take the first way with the oldest stamp. *)
let victim_slot t base =
  let i = invalid_from t base (base + t.ways) in
  if i >= 0 then i
  else
    match t.policy with
    | Policy.Lru | Policy.Fifo ->
      let best = ref base in
      for i = base + 1 to base + t.ways - 1 do
        if t.stamps.(i) < t.stamps.(!best) then best := i
      done;
      !best
    | Policy.Random _ -> base + next_random t t.ways

let set_of t addr =
  if t.shifts then (addr lsr t.cfg.Config.line_bits) land t.set_mask
  else Config.set_of_addr t.cfg addr

let tag_of t addr =
  if t.shifts then addr lsr t.tag_shift else Config.tag_of_addr t.cfg addr

let access t ~owner addr =
  let set = set_of t addr in
  let tag = tag_of t addr in
  let base = set * t.ways in
  let i = find_from t tag base (base + t.ways) in
  if i >= 0 then begin
    (* FIFO keeps the fill stamp on hits; LRU refreshes it. *)
    (match t.policy with
    | Policy.Lru | Policy.Random _ -> t.stamps.(i) <- tick t
    | Policy.Fifo -> ());
    t.owners.(i) <- owner;
    t.evicted <- false;
    true
  end
  else begin
    let i = victim_slot t base in
    t.evicted <- t.valid.(i);
    if t.evicted then begin
      (* the line's base address, rebuilt from its set and tag *)
      t.evicted_addr <- ((t.tags.(i) * t.cfg.Config.sets) + set) lsl t.cfg.Config.line_bits;
      t.evicted_owner <- t.owners.(i)
    end;
    t.valid.(i) <- true;
    t.tags.(i) <- tag;
    t.owners.(i) <- owner;
    t.stamps.(i) <- tick t;
    false
  end

let evicted t = t.evicted
let evicted_addr t = t.evicted_addr
let evicted_owner t = t.evicted_owner

let slot_of t addr =
  let base = set_of t addr * t.ways in
  find_from t (tag_of t addr) base (base + t.ways)

let probe t addr = slot_of t addr >= 0

let flush t addr =
  let i = slot_of t addr in
  if i >= 0 then t.valid.(i) <- false;
  i >= 0

let fill_all t ~owner =
  Array.iteri
    (fun i _ ->
      t.valid.(i) <- true;
      (* Distinct tags per way so every line is a distinct address. *)
      t.tags.(i) <- (i mod t.ways) + 1;
      t.owners.(i) <- owner;
      t.stamps.(i) <- tick t)
    t.valid

let reset t =
  Array.fill t.valid 0 (Array.length t.valid) false;
  t.clock <- 0

let count_owned t owner =
  let n = ref 0 in
  Array.iteri (fun i v -> if v && Owner.equal t.owners.(i) owner then incr n) t.valid;
  !n

let occupancy t owner =
  float_of_int (count_owned t owner) /. float_of_int (Config.lines t.cfg)

let state t =
  let total = float_of_int (Config.lines t.cfg) in
  let ao = float_of_int (count_owned t Owner.Attacker) /. total in
  let io =
    float_of_int (count_owned t Owner.Victim + count_owned t Owner.System)
    /. total
  in
  State.make ~ao ~io

let owned_sets t owner =
  let owns set =
    let rec go i =
      i < (set + 1) * t.ways
      && ((t.valid.(i) && Owner.equal t.owners.(i) owner) || go (i + 1))
    in
    go (set * t.ways)
  in
  List.filter owns (List.init t.cfg.Config.sets Fun.id)

let valid_lines t =
  Array.fold_left (fun n v -> if v then n + 1 else n) 0 t.valid
