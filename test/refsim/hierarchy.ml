(* Reference copy of Cache.Hierarchy before the immediate outcomes: every
   lookup returns an outcome record. *)

module Config = Cache.Config

type latencies = {
  l1_hit : int;
  llc_hit : int;
  memory : int;
  flush_present : int;
  flush_absent : int;
}

let default_latencies =
  { l1_hit = 4; llc_hit = 42; memory = 200; flush_present = 14; flush_absent = 6 }

type t = {
  l1d : Set_assoc.t;
  l1i : Set_assoc.t;
  llc : Set_assoc.t;
  lat : latencies;
  inclusive : bool;
  prefetch : bool;
  mutable peers : t list;
      (* other cores' views sharing this LLC: coherence propagates flushes
         and back-invalidations into their private L1s *)
}

type outcome = { l1_hit : bool; llc_hit : bool; latency : int }

let create ?(l1d = Config.l1d) ?(l1i = Config.l1i) ?(llc = Config.llc)
    ?(latencies = default_latencies) ?policy ?(inclusive = true)
    ?(prefetch = false) () =
  {
    l1d = Set_assoc.create ?policy l1d;
    l1i = Set_assoc.create ?policy l1i;
    llc = Set_assoc.create ?policy llc;
    lat = latencies;
    inclusive;
    prefetch;
    peers = [];
  }

(* Invalidate a line from every private L1 that might hold it (this core's
   and every peer core's). *)
let invalidate_private t addr =
  ignore (Set_assoc.flush t.l1d addr);
  ignore (Set_assoc.flush t.l1i addr);
  List.iter
    (fun peer ->
      ignore (Set_assoc.flush peer.l1d addr);
      ignore (Set_assoc.flush peer.l1i addr))
    t.peers

let through t l1 ~owner addr =
  let r1 = Set_assoc.access l1 ~owner addr in
  if r1.Set_assoc.hit then
    { l1_hit = true; llc_hit = false; latency = t.lat.l1_hit }
  else begin
    let r2 = Set_assoc.access t.llc ~owner addr in
    (* Inclusive LLC: evicting a line from the LLC back-invalidates it in the
       L1s — the property Evict+Reload depends on (and loses without). *)
    (if t.inclusive then
       match r2.Set_assoc.evicted with
       | Some (eaddr, _) -> invalidate_private t eaddr
       | None -> ());
    if r2.Set_assoc.hit then
      { l1_hit = false; llc_hit = true; latency = t.lat.llc_hit }
    else { l1_hit = false; llc_hit = false; latency = t.lat.memory }
  end

(* A simple next-line prefetcher: a demand load miss also pulls the
   following line in, asynchronously (no latency charged, no events). *)
let run_prefetcher t ~owner addr outcome =
  if t.prefetch && not outcome.l1_hit then begin
    let next = addr + Config.line_size (Set_assoc.config t.l1d) in
    let r1 = Set_assoc.access t.l1d ~owner next in
    if not r1.Set_assoc.hit then begin
      let r2 = Set_assoc.access t.llc ~owner next in
      if t.inclusive then
        match r2.Set_assoc.evicted with
        | Some (eaddr, _) -> invalidate_private t eaddr
        | None -> ()
    end
  end

let load t ~owner addr =
  let outcome = through t t.l1d ~owner addr in
  run_prefetcher t ~owner addr outcome;
  outcome
let store t ~owner addr = through t t.l1d ~owner addr
let ifetch t ~owner addr = through t t.l1i ~owner addr

let flush t addr =
  (* clflush is coherence-wide: peer cores' private copies go too. *)
  let p1 = Set_assoc.flush t.l1d addr in
  let p2 = Set_assoc.flush t.l1i addr in
  let p3 = Set_assoc.flush t.llc addr in
  List.iter
    (fun peer ->
      ignore (Set_assoc.flush peer.l1d addr);
      ignore (Set_assoc.flush peer.l1i addr))
    t.peers;
  if p1 || p2 || p3 then t.lat.flush_present else t.lat.flush_absent

let llc_state t = Set_assoc.state t.llc
let l1d_state t = Set_assoc.state t.l1d

let llc_set_of_addr t addr = Config.set_of_addr (Set_assoc.config t.llc) addr

let llc_cache t = t.llc
let l1d_cache t = t.l1d
let l1i_cache t = t.l1i

let reset t =
  Set_assoc.reset t.l1d;
  Set_assoc.reset t.l1i;
  Set_assoc.reset t.llc

let fill_with t ~owner =
  Set_assoc.fill_all t.l1d ~owner;
  Set_assoc.fill_all t.l1i ~owner;
  Set_assoc.fill_all t.llc ~owner

(* Two cores with private L1s sharing one LLC — the classic cross-core
   LLC-attack topology.  Both views use the same latencies and knobs. *)
let create_cross_core ?(l1d = Config.l1d) ?(l1i = Config.l1i)
    ?(llc = Config.llc) ?(latencies = default_latencies) ?policy
    ?(inclusive = true) ?(prefetch = false) () =
  let shared_llc = Set_assoc.create ?policy llc in
  let mk () =
    {
      l1d = Set_assoc.create ?policy l1d;
      l1i = Set_assoc.create ?policy l1i;
      llc = shared_llc;
      lat = latencies;
      inclusive;
      prefetch;
      peers = [];
    }
  in
  let a = mk () and b = mk () in
  a.peers <- [ b ];
  b.peers <- [ a ];
  (a, b)
