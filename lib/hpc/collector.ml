type access_kind = Load | Store | Flush

type access = { pc : int; target : int; kind : access_kind; time : int }

(* Per-pc data lives in dense arrays indexed by [(pc - base) / 4]; the
   access log is a growable struct of arrays.  Recording allocates only
   when a pc first fires an event or the log doubles. *)
type t = {
  base : int;
  per_pc : Counters.t option array;
  first_times : int array; (* meaningful where exec_counts > 0 *)
  exec_counts : int array;
  mutable n_accesses : int;
  mutable acc_pc : int array;
  mutable acc_target : int array;
  mutable acc_kind : access_kind array;
  mutable acc_time : int array;
}

let create ~base ~length =
  {
    base;
    per_pc = Array.make length None;
    first_times = Array.make length 0;
    exec_counts = Array.make length 0;
    n_accesses = 0;
    acc_pc = [||];
    acc_target = [||];
    acc_kind = [||];
    acc_time = [||];
  }

(* Slot of [pc], or -1 for an address outside the collected program. *)
let slot t pc =
  let off = pc - t.base in
  if off >= 0 && off land 3 = 0 && off lsr 2 < Array.length t.exec_counts then off lsr 2
  else -1

let slot_exn t pc =
  let i = slot t pc in
  if i < 0 then invalid_arg (Printf.sprintf "Hpc.Collector: pc 0x%x outside the program" pc);
  i

let record_event t ~pc event =
  let i = slot_exn t pc in
  if Option.is_none t.per_pc.(i) then t.per_pc.(i) <- Some (Counters.create ());
  Counters.incr (Option.get t.per_pc.(i)) event

let grow a fill =
  let b = Array.make (max 256 (2 * Array.length a)) fill in
  Array.blit a 0 b 0 (Array.length a);
  b

let record_access t ~pc ~target ~kind ~time =
  let n = t.n_accesses in
  if n = Array.length t.acc_pc then begin
    t.acc_pc <- grow t.acc_pc 0;
    t.acc_target <- grow t.acc_target 0;
    t.acc_kind <- grow t.acc_kind Load;
    t.acc_time <- grow t.acc_time 0
  end;
  t.acc_pc.(n) <- pc;
  t.acc_target.(n) <- target;
  t.acc_kind.(n) <- kind;
  t.acc_time.(n) <- time;
  t.n_accesses <- n + 1

let note_executed t ~pc ~time =
  let i = slot_exn t pc in
  if t.exec_counts.(i) = 0 then t.first_times.(i) <- time;
  t.exec_counts.(i) <- t.exec_counts.(i) + 1

let exec_count t ~pc =
  let i = slot t pc in
  if i < 0 then 0 else t.exec_counts.(i)

let counters_at t ~pc =
  let i = slot t pc in
  if i < 0 then None else t.per_pc.(i)

let hpc_value_at t ~pc =
  match counters_at t ~pc with Some c -> Counters.hpc_value c | None -> 0

let total_counters t =
  let acc = Counters.create () in
  Array.iter (Option.iter (Counters.merge_into ~dst:acc)) t.per_pc;
  acc

let fold_accesses_right t ~init ~f =
  let acc = ref init in
  for i = t.n_accesses - 1 downto 0 do
    acc :=
      f ~pc:t.acc_pc.(i) ~target:t.acc_target.(i) ~kind:t.acc_kind.(i)
        ~time:t.acc_time.(i) !acc
  done;
  !acc

let accesses t =
  fold_accesses_right t ~init:[] ~f:(fun ~pc ~target ~kind ~time l ->
      { pc; target; kind; time } :: l)

let first_time t ~pc =
  let i = slot t pc in
  if i >= 0 && t.exec_counts.(i) > 0 then Some t.first_times.(i) else None

let executed_pcs t =
  List.filter_map
    (fun i -> if t.exec_counts.(i) > 0 then Some (t.base + (4 * i)) else None)
    (List.init (Array.length t.exec_counts) Fun.id)

let access_count t = t.n_accesses
