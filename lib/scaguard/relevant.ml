module G = Cfg.Graph
module BB = Cfg.Basic_block

type info = {
  cfg : G.t;
  hpc_of_block : float array;
  accesses_of_block : (int * Hpc.Collector.access_kind) list array;
  first_time_of_block : int option array;
  step1 : int list;
  relevant : int list;
}

let identify cfg collector =
  let n = G.n_blocks cfg in
  let prog = G.program cfg in
  let hpc_of_block = Array.make n 0.0 in
  let first_time_of_block = Array.make n None in
  (* Step 1: map per-address HPC data onto blocks. *)
  List.iter
    (fun (b : BB.t) ->
      for idx = b.BB.first to b.BB.last do
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
        | None -> ()
      done)
    (G.blocks cfg);
  let step1 =
    List.filter_map
      (fun (b : BB.t) ->
        if hpc_of_block.(b.BB.id) > 0.0 then Some b.BB.id else None)
      (G.blocks cfg)
  in
  (* Collect data accesses (the Intel-PT stand-in) per block, reading the
     log newest first so consing leaves each list chronological.  Every
     logged pc is an instruction of the program. *)
  let base = Isa.Program.base prog in
  let accesses_of_block = Array.make n [] in
  Hpc.Collector.fold_accesses_right collector ~init:()
    ~f:(fun ~pc ~target ~kind ~time:_ () ->
      let b = (G.block_of_index cfg ((pc - base) lsr 2)).BB.id in
      accesses_of_block.(b) <- (target, kind) :: accesses_of_block.(b));
  (* Step 2: keep candidates touching a cache set that at least one other
     candidate also touches.  Per LLC set: the candidate that touched it
     last, and how many distinct candidates did (candidates are visited one
     after another, so a set's count rises once per candidate). *)
  let llc = Cache.Config.llc in
  let set addr = Cache.Config.set_of_addr llc addr in
  let last = Array.make llc.Cache.Config.sets (-1) in
  let touched = Array.make llc.Cache.Config.sets 0 in
  List.iter
    (fun b ->
      List.iter
        (fun (addr, _) ->
          let s = set addr in
          if last.(s) <> b then begin
            last.(s) <- b;
            touched.(s) <- touched.(s) + 1
          end)
        accesses_of_block.(b))
    step1;
  let relevant =
    List.filter
      (fun b -> List.exists (fun (addr, _) -> touched.(set addr) >= 2) accesses_of_block.(b))
      step1
  in
  { cfg; hpc_of_block; accesses_of_block; first_time_of_block; step1; relevant }

let ground_truth_blocks cfg =
  List.filter_map
    (fun (b : BB.t) ->
      if BB.is_attack_ground_truth (G.program cfg) b then Some b.BB.id else None)
    (G.blocks cfg)

let accuracy ~identified ~truth =
  match truth with
  | [] -> 1.0
  | _ ->
    let hit = List.filter (fun b -> List.mem b identified) truth in
    float_of_int (List.length hit) /. float_of_int (List.length truth)
