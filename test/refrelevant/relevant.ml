(* Reference copy of Scaguard.Relevant.identify as it stood before the
   linear relevance pass: the oracle the relevance reference property
   compares against.  Only module paths differ from the original, and
   [info] is declared equal to Scaguard.Relevant.info so the two results
   compare field for field. *)

module G = Cfg.Graph
module BB = Cfg.Basic_block

type info = Scaguard.Relevant.info = {
  cfg : G.t;
  hpc_of_block : float array;
  accesses_of_block : (int * Hpc.Collector.access_kind) list array;
  first_time_of_block : int option array;
  step1 : int list;
  relevant : int list;
}

let default_llc_set addr = Cache.Config.set_of_addr Cache.Config.llc addr

let identify ?(llc_set_of_addr = default_llc_set) cfg collector =
  let n = G.n_blocks cfg in
  let prog = G.program cfg in
  let hpc_of_block = Array.make n 0.0 in
  let first_time_of_block = Array.make n None in
  (* Step 1: map per-address HPC data onto blocks. *)
  List.iter
    (fun (b : BB.t) ->
      List.iter
        (fun idx ->
          let pc = Isa.Program.addr_of_index prog idx in
          hpc_of_block.(b.BB.id) <-
            hpc_of_block.(b.BB.id)
            +. float_of_int (Hpc.Collector.hpc_value_at collector ~pc);
          match Hpc.Collector.first_time collector ~pc with
          | Some t ->
            first_time_of_block.(b.BB.id) <-
              (match first_time_of_block.(b.BB.id) with
              | Some t0 -> Some (min t0 t)
              | None -> Some t)
          | None -> ())
        (BB.instr_indices b))
    (G.blocks cfg);
  let step1 =
    List.filter_map
      (fun (b : BB.t) ->
        if hpc_of_block.(b.BB.id) > 0.0 then Some b.BB.id else None)
      (G.blocks cfg)
  in
  (* Collect data accesses (the Intel-PT stand-in) per block, reading the
     log newest first so consing leaves each list chronological. *)
  let accesses_of_block = Array.make n [] in
  Hpc.Collector.fold_accesses_right collector ~init:()
    ~f:(fun ~pc ~target ~kind ~time:_ () ->
      match G.block_of_addr cfg pc with
      | Some b ->
        accesses_of_block.(b.BB.id) <- (target, kind) :: accesses_of_block.(b.BB.id)
      | None -> ());
  (* Step 2: keep candidates touching a cache set that at least one other
     candidate also touches. *)
  let sets_of_block =
    List.map
      (fun b ->
        ( b,
          List.sort_uniq Int.compare
            (List.map (fun (addr, _) -> llc_set_of_addr addr) accesses_of_block.(b)) ))
      step1
  in
  let touch_count = Hashtbl.create 64 in
  List.iter
    (fun (_, sets) ->
      List.iter
        (fun s ->
          Hashtbl.replace touch_count s
            (1 + Option.value ~default:0 (Hashtbl.find_opt touch_count s)))
        sets)
    sets_of_block;
  let relevant =
    List.filter_map
      (fun (b, sets) ->
        if List.exists (fun s -> Hashtbl.find touch_count s >= 2) sets then Some b
        else None)
      sets_of_block
  in
  { cfg; hpc_of_block; accesses_of_block; first_time_of_block; step1; relevant }
