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

type level = L1 | Llc | Memory

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

let renew t =
  Set_assoc.renew t.l1d;
  Set_assoc.renew t.l1i;
  Set_assoc.renew t.llc

let latency t = function
  | L1 -> t.lat.l1_hit
  | Llc -> t.lat.llc_hit
  | Memory -> t.lat.memory

let flush_private t addr =
  ignore (Set_assoc.flush t.l1d addr);
  ignore (Set_assoc.flush t.l1i addr)

let rec flush_peers addr = function
  | [] -> ()
  | peer :: rest ->
    flush_private peer addr;
    flush_peers addr rest

(* Inclusive LLC: evicting a line from the LLC back-invalidates it in every
   private L1 that might hold it (this core's and every peer core's) — the
   property Evict+Reload depends on (and loses without). *)
let back_invalidate t =
  if t.inclusive && Set_assoc.evicted t.llc then begin
    let addr = Set_assoc.evicted_addr t.llc in
    flush_private t addr;
    flush_peers addr t.peers
  end

let through t l1 ~owner addr =
  if Set_assoc.access l1 ~owner addr then L1
  else begin
    let hit = Set_assoc.access t.llc ~owner addr in
    back_invalidate t;
    if hit then Llc else Memory
  end

(* A simple next-line prefetcher: a demand load miss also pulls the
   following line in, asynchronously (no latency charged, no events). *)
let run_prefetcher t ~owner addr =
  let next = addr + Config.line_size (Set_assoc.config t.l1d) in
  if not (Set_assoc.access t.l1d ~owner next) then begin
    ignore (Set_assoc.access t.llc ~owner next);
    back_invalidate t
  end

let load t ~owner addr =
  let level = through t t.l1d ~owner addr in
  if t.prefetch && level <> L1 then run_prefetcher t ~owner addr;
  level
let store t ~owner addr = through t t.l1d ~owner addr
let ifetch t ~owner addr = through t t.l1i ~owner addr

let flush t addr =
  (* clflush is coherence-wide: peer cores' private copies go too. *)
  let p1 = Set_assoc.flush t.l1d addr in
  let p2 = Set_assoc.flush t.l1i addr in
  let p3 = Set_assoc.flush t.llc addr in
  flush_peers addr t.peers;
  if p1 || p2 || p3 then t.lat.flush_present else t.lat.flush_absent

let llc_state t = Set_assoc.state t.llc

let llc_cache t = t.llc
let l1d_cache t = t.l1d
let l1i_cache t = t.l1i

let fill_with t ~owner =
  Set_assoc.fill_all t.l1d ~owner;
  Set_assoc.fill_all t.l1i ~owner;
  Set_assoc.fill_all t.llc ~owner

(* Two cores with private L1s sharing one LLC — the classic cross-core
   LLC-attack topology.  Both views use the same latencies and knobs. *)
let create_cross_core ?(l1d = Config.l1d) ?(l1i = Config.l1i)
    ?(llc = Config.llc) ?(latencies = default_latencies) ?policy
    ?(inclusive = true) ?(prefetch = false) () =
  let a = create ~l1d ~l1i ~llc ~latencies ?policy ~inclusive ~prefetch () in
  let b =
    { a with l1d = Set_assoc.create ?policy l1d; l1i = Set_assoc.create ?policy l1i; peers = [ a ] }
  in
  a.peers <- [ b ];
  (a, b)
