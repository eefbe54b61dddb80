(* Reference copy of Cache.Set_assoc before the flat-array rewrite: one
   record per line, and an access returns a record. *)

module Config = Cache.Config
module Owner = Cache.Owner
module Policy = Cache.Policy
module State = Cache.State

type line = {
  mutable valid : bool;
  mutable tag : int;
  mutable owner : Owner.t;
  mutable lru : int; (* larger = more recently used *)
}

type t = {
  cfg : Config.t;
  policy : Policy.t;
  lines : line array array; (* [set].[way] *)
  mutable clock : int;
  mutable rnd : int64; (* state for the Random policy *)
}

type access_result = { hit : bool; evicted : (int * Owner.t) option }

let create ?(policy = Policy.Lru) cfg =
  let mk_line _ = { valid = false; tag = 0; owner = Owner.System; lru = 0 } in
  {
    cfg;
    policy;
    lines = Array.init cfg.Config.sets (fun _ -> Array.init cfg.Config.ways mk_line);
    clock = 0;
    rnd =
      (match policy with
      | Policy.Random seed -> Int64.of_int ((seed * 2) + 1)
      | Policy.Lru | Policy.Fifo -> 1L);
  }

let policy t = t.policy

let config t = t.cfg

let tick t =
  t.clock <- t.clock + 1;
  t.clock

let find_way set_lines tag =
  let n = Array.length set_lines in
  let rec go i =
    if i >= n then None
    else if set_lines.(i).valid && set_lines.(i).tag = tag then Some i
    else go (i + 1)
  in
  go 0

(* Oldest by the lru/fill stamp; invalid ways always win. *)
let oldest_way set_lines =
  let best = ref 0 in
  Array.iteri
    (fun i l ->
      if not l.valid then (if set_lines.(!best).valid then best := i)
      else if set_lines.(!best).valid && l.lru < set_lines.(!best).lru then
        best := i)
    set_lines;
  !best

let next_random t bound =
  (* splitmix64 step, reduced *)
  t.rnd <- Int64.add t.rnd 0x9E3779B97F4A7C15L;
  let z = t.rnd in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.to_int (Int64.shift_right_logical (Int64.logxor z (Int64.shift_right_logical z 31)) 2)
  mod bound

let victim_way t set_lines =
  (* invalid ways fill first under every policy *)
  let invalid = ref (-1) in
  Array.iteri (fun i l -> if (not l.valid) && !invalid < 0 then invalid := i) set_lines;
  if !invalid >= 0 then !invalid
  else
    match t.policy with
    | Policy.Lru | Policy.Fifo -> oldest_way set_lines
    | Policy.Random _ -> next_random t (Array.length set_lines)

(* Reconstruct a line's base address from set index and tag, for eviction
   reporting. *)
let addr_of t set tag =
  ((tag * t.cfg.Config.sets) + set) lsl t.cfg.Config.line_bits

let access t ~owner addr =
  let set = Config.set_of_addr t.cfg addr in
  let tag = Config.tag_of_addr t.cfg addr in
  let set_lines = t.lines.(set) in
  match find_way set_lines tag with
  | Some w ->
    let l = set_lines.(w) in
    (* FIFO keeps the fill stamp on hits; LRU refreshes it. *)
    (match t.policy with
    | Policy.Lru | Policy.Random _ -> l.lru <- tick t
    | Policy.Fifo -> ());
    l.owner <- owner;
    { hit = true; evicted = None }
  | None ->
    let w = victim_way t set_lines in
    let l = set_lines.(w) in
    let evicted =
      if l.valid then Some (addr_of t set l.tag, l.owner) else None
    in
    l.valid <- true;
    l.tag <- tag;
    l.owner <- owner;
    l.lru <- tick t;
    { hit = false; evicted }

let probe t addr =
  let set = Config.set_of_addr t.cfg addr in
  let tag = Config.tag_of_addr t.cfg addr in
  Option.is_some (find_way t.lines.(set) tag)

let flush t addr =
  let set = Config.set_of_addr t.cfg addr in
  let tag = Config.tag_of_addr t.cfg addr in
  match find_way t.lines.(set) tag with
  | Some w ->
    t.lines.(set).(w).valid <- false;
    true
  | None -> false

let fill_all t ~owner =
  Array.iteri
    (fun set set_lines ->
      Array.iteri
        (fun way l ->
          l.valid <- true;
          (* Distinct tags per way so every line is a distinct address. *)
          l.tag <- way + 1;
          ignore set;
          l.owner <- owner;
          l.lru <- tick t)
        set_lines)
    t.lines

let reset t =
  Array.iter (Array.iter (fun l -> l.valid <- false)) t.lines;
  t.clock <- 0

let count_owned t owner =
  let n = ref 0 in
  Array.iter
    (Array.iter (fun l -> if l.valid && Owner.equal l.owner owner then incr n))
    t.lines;
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
  let acc = ref [] in
  for set = t.cfg.Config.sets - 1 downto 0 do
    if
      Array.exists
        (fun l -> l.valid && Owner.equal l.owner owner)
        t.lines.(set)
    then acc := set :: !acc
  done;
  !acc

let valid_lines t =
  let n = ref 0 in
  Array.iter (Array.iter (fun l -> if l.valid then incr n)) t.lines;
  !n
