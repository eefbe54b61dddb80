type t = { before : Cache.State.t; after : Cache.State.t }

(* A block with no recorded accesses cannot move the probe cache: its CST is
   the filled starting state on both sides ([AO = 0, IO = 1] exactly, for
   every probe geometry), shared so empty blocks cost no simulation at all.
   The floats are bit-identical to what a full create+fill_all+replay of the
   empty list computes. *)
let trivial =
  let full = Cache.State.make ~ao:0.0 ~io:1.0 in
  { before = full; after = full }

(* Reusable scratch simulator: one per pool worker, so a batch of model
   builds pays one cache allocation per worker instead of one per block.
   Renew + fill_all restores exactly the state (and LRU clock trajectory) a
   fresh create+fill_all produces, so measurements are byte-identical. *)
type measurer = { mutable sim : Cache.Set_assoc.t option }

let measurer () = { sim = None }

let probe_cache measurer config =
  match measurer with
  | Some m -> (
    match m.sim with
    | Some c when Cache.Set_assoc.config c = config ->
      Cache.Set_assoc.renew c;
      c
    | _ ->
      let c = Cache.Set_assoc.create config in
      m.sim <- Some c;
      c)
  | None -> Cache.Set_assoc.create config

let measure ?measurer ?(config = Cache.Config.cst_probe) accesses =
  match accesses with
  | [] -> trivial
  | _ ->
    let cache = probe_cache measurer config in
    Cache.Set_assoc.fill_all cache ~owner:Cache.Owner.System;
    let before = Cache.Set_assoc.state cache in
    List.iter
      (fun (addr, kind) ->
        match kind with
        | Hpc.Collector.Load | Hpc.Collector.Store ->
          ignore (Cache.Set_assoc.access cache ~owner:Cache.Owner.Attacker addr)
        | Hpc.Collector.Flush ->
          (* The probe cache starts "full of data" in the abstract: flushing
             address X removes the line X occupies in that full cache, so a
             line absent from the synthetic fill is materialized (as
             non-attacker data, occupancy-neutral) before invalidation. *)
          if not (Cache.Set_assoc.probe cache addr) then
            ignore (Cache.Set_assoc.access cache ~owner:Cache.Owner.System addr);
          ignore (Cache.Set_assoc.flush cache addr))
      accesses;
    { before; after = Cache.Set_assoc.state cache }

let change_magnitude t =
  Cache.State.change_magnitude ~before:t.before ~after:t.after

let distance a b =
  Cache.State.distance (a.before, a.after) (b.before, b.after)

let pp fmt t =
  Format.fprintf fmt "%a -> %a" Cache.State.pp t.before Cache.State.pp t.after
