(* Reference copy of Hpc.Collector before the dense rewrite: pc-keyed hash
   tables and a reversed access list.  [access_kind] is declared equal to
   Hpc.Collector's, so the two access logs compare directly. *)

type access_kind = Hpc.Collector.access_kind = Load | Store | Flush

type access = { pc : int; target : int; kind : access_kind; time : int }

type t = {
  per_pc : (int, Hpc.Counters.t) Hashtbl.t;
  mutable rev_accesses : access list;
  mutable n_accesses : int;
  first_times : (int, int) Hashtbl.t;
  exec_counts : (int, int) Hashtbl.t;
}

let create () =
  {
    per_pc = Hashtbl.create 256;
    rev_accesses = [];
    n_accesses = 0;
    first_times = Hashtbl.create 256;
    exec_counts = Hashtbl.create 256;
  }

let counters_for t pc =
  match Hashtbl.find_opt t.per_pc pc with
  | Some c -> c
  | None ->
    let c = Hpc.Counters.create () in
    Hashtbl.replace t.per_pc pc c;
    c

let record_event t ~pc event = Hpc.Counters.incr (counters_for t pc) event

let record_access t ~pc ~target ~kind ~time =
  t.rev_accesses <- { pc; target; kind; time } :: t.rev_accesses;
  t.n_accesses <- t.n_accesses + 1

let note_executed t ~pc ~time =
  if not (Hashtbl.mem t.first_times pc) then Hashtbl.replace t.first_times pc time;
  Hashtbl.replace t.exec_counts pc
    (1 + Option.value ~default:0 (Hashtbl.find_opt t.exec_counts pc))

let exec_count t ~pc =
  Option.value ~default:0 (Hashtbl.find_opt t.exec_counts pc)

let counters_at t ~pc = Hashtbl.find_opt t.per_pc pc

let hpc_value_at t ~pc =
  match counters_at t ~pc with Some c -> Hpc.Counters.hpc_value c | None -> 0

let total_counters t =
  let acc = Hpc.Counters.create () in
  Hashtbl.iter (fun _ c -> Hpc.Counters.merge_into ~dst:acc c) t.per_pc;
  acc

let accesses t = List.rev t.rev_accesses

let first_time t ~pc = Hashtbl.find_opt t.first_times pc

let executed_pcs t =
  Hashtbl.fold (fun pc _ acc -> pc :: acc) t.first_times []
  |> List.sort Int.compare

let access_count t = t.n_accesses
