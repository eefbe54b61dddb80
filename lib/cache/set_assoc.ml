(* Lines live in flat per-field arrays indexed by [set * ways + way]: a
   lookup reads and writes them in place and allocates nothing (bar the
   Random policy's boxed int64 state when it picks a victim).  A line's
   state byte is 0 when it is invalid, else its owner's code.  The line
   number [addr lsr line_bits] (never negative: Config.make keeps
   [line_bits >= 1]) fixes set and tag: a mask and a shift of it for a
   power-of-two set count, else a modulo and a division, as Config does. *)
type t = {
  cfg : Config.t;
  policy : Policy.t;
  ways : int;
  shifts : bool; (* the shift-and-mask geometry applies *)
  set_mask : int;
  set_bits : int;
  state : Bytes.t; (* '\000' when invalid, else [code] of the owner *)
  tags : int array;
  stamps : int array; (* lru/fill stamp: larger = more recent *)
  mutable clock : int;
  mutable rnd : int64; (* state for the Random policy *)
  mutable evicted : char; (* state byte the latest access evicted, or '\000' *)
  mutable evicted_addr : int;
  mutable memo_line : int; (* the latest access's line; -1 once its slot may change *)
  mutable memo_slot : int; (* the slot holding it *)
}

let code = function Owner.Attacker -> '\001' | Owner.Victim -> '\002' | Owner.System -> '\003'
let owner_of_code = function '\001' -> Owner.Attacker | '\002' -> Owner.Victim | _ -> Owner.System

let log2 n =
  let rec go k = if 1 lsl k >= n then k else go (k + 1) in
  go 0

let initial_rnd = function Policy.Random seed -> Int64.of_int ((seed * 2) + 1) | _ -> 1L

let create ?(policy = Policy.Lru) cfg =
  let n = Config.lines cfg in
  let sets = cfg.Config.sets in
  {
    cfg;
    policy;
    ways = cfg.Config.ways;
    shifts = sets > 0 && sets land (sets - 1) = 0;
    set_mask = sets - 1;
    set_bits = log2 sets;
    state = Bytes.make n '\000';
    tags = Array.make n 0;
    stamps = Array.make n 0;
    clock = 0;
    rnd = initial_rnd policy;
    evicted = '\000';
    evicted_addr = 0;
    memo_line = -1;
    memo_slot = 0;
  }

let renew t =
  Bytes.fill t.state 0 (Bytes.length t.state) '\000';
  Array.fill t.tags 0 (Array.length t.tags) 0;
  Array.fill t.stamps 0 (Array.length t.stamps) 0;
  t.clock <- 0;
  t.rnd <- initial_rnd t.policy;
  t.evicted <- '\000';
  t.evicted_addr <- 0;
  t.memo_line <- -1;
  t.memo_slot <- 0

let config t = t.cfg

let tick t =
  t.clock <- t.clock + 1;
  t.clock

let valid t i = Bytes.get t.state i <> '\000'

(* First slot in [i, stop) holding [tag], or -1.  Top-level recursion, so
   no closure is allocated per lookup; the tag is tested first, as it rules
   out most ways of a full set. *)
let rec find_from t tag i stop =
  if i >= stop then -1
  else if t.tags.(i) = tag && valid t i then i
  else find_from t tag (i + 1) stop

let rec invalid_from t i stop =
  if i >= stop then -1 else if not (valid t i) then i else invalid_from t (i + 1) stop

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

let set_of t line = if t.shifts then line land t.set_mask else line mod t.cfg.Config.sets
let tag_of t line = if t.shifts then line lsr t.set_bits else line / t.cfg.Config.sets

(* The slot holding [line], or -1. *)
let slot_of t line =
  if line = t.memo_line then t.memo_slot
  else
    let base = set_of t line * t.ways in
    find_from t (tag_of t line) base (base + t.ways)

(* A hit on slot [i]: FIFO keeps the fill stamp, LRU refreshes it. *)
let[@inline] hit t ~owner i =
  (match t.policy with
  | Policy.Lru | Policy.Random _ -> t.stamps.(i) <- tick t
  | Policy.Fifo -> ());
  Bytes.set t.state i (code owner);
  t.evicted <- '\000'

(* A repeat of the latest line, most lookups, is answered before any set
   arithmetic. *)
let access t ~owner addr =
  let line = addr lsr t.cfg.Config.line_bits in
  if line = t.memo_line then begin
    hit t ~owner t.memo_slot;
    true
  end
  else begin
    let base = set_of t line * t.ways in
    let i = find_from t (tag_of t line) base (base + t.ways) in
    t.memo_line <- line;
    if i >= 0 then begin
      hit t ~owner i;
      t.memo_slot <- i;
      true
    end
    else begin
      let set = set_of t line in
      let i = victim_slot t (set * t.ways) in
      t.evicted <- Bytes.get t.state i;
      (* the evicted line's base address, rebuilt from its set and tag *)
      t.evicted_addr <- ((t.tags.(i) * t.cfg.Config.sets) + set) lsl t.cfg.Config.line_bits;
      Bytes.set t.state i (code owner);
      t.tags.(i) <- tag_of t line;
      t.stamps.(i) <- tick t;
      t.memo_slot <- i;
      false
    end
  end

let evicted t = t.evicted <> '\000'
let evicted_addr t = t.evicted_addr
let evicted_owner t = owner_of_code t.evicted
let probe t addr = slot_of t (addr lsr t.cfg.Config.line_bits) >= 0

let flush t addr =
  let i = slot_of t (addr lsr t.cfg.Config.line_bits) in
  if i >= 0 then Bytes.set t.state i '\000';
  if i = t.memo_slot then t.memo_line <- -1;
  i >= 0

let fill_all t ~owner =
  for i = 0 to Bytes.length t.state - 1 do
    Bytes.set t.state i (code owner);
    (* Distinct tags per way so every line is a distinct address. *)
    t.tags.(i) <- (i mod t.ways) + 1;
    t.stamps.(i) <- tick t
  done;
  t.memo_line <- -1

let count_code t c =
  let n = ref 0 in
  Bytes.iter (fun s -> if s = c then incr n) t.state;
  !n

let count_owned t owner = count_code t (code owner)

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
  let c = code owner in
  let owns set =
    let rec go i = i < (set + 1) * t.ways && (Bytes.get t.state i = c || go (i + 1)) in
    go (set * t.ways)
  in
  List.filter owns (List.init t.cfg.Config.sets Fun.id)

let valid_lines t = Bytes.length t.state - count_code t '\000'
