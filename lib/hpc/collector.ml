type access_kind = Load | Store | Flush

type access = { pc : int; target : int; kind : access_kind; time : int }

(* Instruction [i], at [base + 4 * i], owns row [i] of [rows], [width]
   ints: its [Event.count] counters, then whether any event fired there,
   its execution count and its first retirement time plus one (0: never
   retired).  A renewed spare's [rows] may run past [length] rows.  The
   access log holds four ints per access (pc, target, kind, time) and
   doubles when full, the only allocation while recording. *)
let width = Event.count + 3
let fired = Event.count
let count = Event.count + 1
let first = Event.count + 2

type t = {
  mutable base : int;
  mutable length : int;
  mutable rows : int array;
  mutable n_accesses : int;
  mutable log : int array;
}

let create ~base ~length =
  { base; length; rows = Array.make (length * width) 0; n_accesses = 0; log = [||] }

let renew t ~base ~length =
  if length * width > Array.length t.rows then t.rows <- Array.make (length * width) 0
  else Array.fill t.rows 0 (length * width) 0;
  t.base <- base;
  t.length <- length;
  t.n_accesses <- 0

(* Row offset of [pc], or -1 for an address outside the collected program. *)
let row t pc =
  let off = pc - t.base in
  if off >= 0 && off land 3 = 0 && off lsr 2 < t.length then (off lsr 2) * width else -1

let record_event t i event =
  let k = (i * width) + Event.index event in
  t.rows.(k) <- t.rows.(k) + 1;
  t.rows.((i * width) + fired) <- 1

let kinds = [| Load; Store; Flush |]
let kind_code = function Load -> 0 | Store -> 1 | Flush -> 2

let record_access t i ~target ~kind ~time =
  let k = 4 * t.n_accesses in
  if k = Array.length t.log then begin
    let log = Array.make (max 1024 (2 * k)) 0 in
    Array.blit t.log 0 log 0 k;
    t.log <- log
  end;
  t.log.(k) <- t.base + (4 * i);
  t.log.(k + 1) <- target;
  t.log.(k + 2) <- kind_code kind;
  t.log.(k + 3) <- time;
  t.n_accesses <- t.n_accesses + 1

let note_executed t i ~time =
  let r = i * width in
  if t.rows.(r + first) = 0 then t.rows.(r + first) <- time + 1;
  t.rows.(r + count) <- t.rows.(r + count) + 1

let cell t pc k =
  let r = row t pc in
  if r < 0 then 0 else t.rows.(r + k)

let exec_count t ~pc = cell t pc count
let first_time t ~pc = match cell t pc first with 0 -> None | f -> Some (f - 1)

let add_bank t r c =
  List.iter (fun e -> Counters.add c e t.rows.(r + Event.index e)) Event.all

let counters_at t ~pc =
  if cell t pc fired = 0 then None
  else begin
    let c = Counters.create () in
    add_bank t (row t pc) c;
    Some c
  end

let hpc_value_at t ~pc =
  if cell t pc fired = 0 then 0
  else
    let r = row t pc in
    List.fold_left
      (fun sum e ->
        if Event.counted_in_hpc_value e then sum + t.rows.(r + Event.index e) else sum)
      0 Event.all

let total_counters t =
  let acc = Counters.create () in
  for i = 0 to t.length - 1 do
    add_bank t (i * width) acc
  done;
  acc

let fold_accesses_right t ~init ~f =
  let acc = ref init in
  for n = t.n_accesses - 1 downto 0 do
    let k = 4 * n in
    acc :=
      f ~pc:t.log.(k) ~target:t.log.(k + 1) ~kind:kinds.(t.log.(k + 2))
        ~time:t.log.(k + 3) !acc
  done;
  !acc

let accesses t =
  fold_accesses_right t ~init:[] ~f:(fun ~pc ~target ~kind ~time l ->
      { pc; target; kind; time } :: l)

let executed_pcs t =
  List.filter_map
    (fun i -> if t.rows.((i * width) + count) > 0 then Some (t.base + (4 * i)) else None)
    (List.init t.length Fun.id)

let access_count t = t.n_accesses
