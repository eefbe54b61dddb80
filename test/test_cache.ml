(* Tests for the cache simulator: geometry, set-associative behavior (LRU,
   flush, occupancy), the two-level inclusive hierarchy and cache states. *)

module C = Cache.Config
module SA = Cache.Set_assoc
module H = Cache.Hierarchy
module S = Cache.State
module Ow = Cache.Owner

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_float = Alcotest.(check (float 1e-9))

(* ---- Config ----------------------------------------------------------------- *)

let test_config_mapping () =
  let c = C.make ~sets:64 ~ways:8 () in
  check_int "lines" 512 (C.lines c);
  check_int "line size" 64 (C.line_size c);
  check_int "set of 0" 0 (C.set_of_addr c 0);
  check_int "set of 64" 1 (C.set_of_addr c 64);
  check_int "wrap" 0 (C.set_of_addr c (64 * 64));
  check_int "tag" 1 (C.tag_of_addr c (64 * 64));
  check_int "line addr" 128 (C.line_addr c 130)

let test_config_non_pow2 () =
  let c = C.make ~sets:61 ~ways:2 () in
  check_int "mod mapping" (4096 / 64 mod 61) (C.set_of_addr c 4096);
  (* page-stride addresses spread over sets instead of aliasing *)
  let sets =
    List.sort_uniq compare
      (List.init 8 (fun k -> C.set_of_addr c (k * 4096)))
  in
  check_int "8 distinct sets" 8 (List.length sets)

let test_config_errors () =
  check_bool "zero sets" true
    (try ignore (C.make ~sets:0 ~ways:1 ()); false
     with Invalid_argument _ -> true);
  check_bool "zero ways" true
    (try ignore (C.make ~sets:4 ~ways:0 ()); false
     with Invalid_argument _ -> true);
  check_bool "zero line bits" true
    (try ignore (C.make ~sets:61 ~ways:2 ~line_bits:0 ()); false
     with Invalid_argument _ -> true)

(* ---- Set_assoc ----------------------------------------------------------------- *)

let small () = SA.create (C.make ~sets:4 ~ways:2 ())

let test_sa_hit_miss () =
  let c = small () in
  let r1 = SA.access c ~owner:Ow.Attacker 0 in
  check_bool "first is miss" false r1;
  let r2 = SA.access c ~owner:Ow.Attacker 0 in
  check_bool "second is hit" true r2;
  check_bool "probe sees it" true (SA.probe c 0);
  check_bool "other set absent" false (SA.probe c 64)

let test_sa_lru_eviction () =
  let c = small () in
  (* set 0 holds lines 0 and 256 (4 sets * 64B span); a third congruent line
     evicts the least recently used. *)
  ignore (SA.access c ~owner:Ow.Attacker 0);
  ignore (SA.access c ~owner:Ow.Attacker 256);
  ignore (SA.access c ~owner:Ow.Attacker 0); (* refresh line 0 *)
  check_bool "miss" false (SA.access c ~owner:Ow.Attacker 512);
  check_bool "evicted something" true (SA.evicted c);
  check_int "evicted LRU line 256" 256 (SA.evicted_addr c);
  check_bool "owner recorded" true (Ow.equal (SA.evicted_owner c) Ow.Attacker);
  check_bool "line 0 survived" true (SA.probe c 0);
  check_bool "line 256 gone" false (SA.probe c 256)

let test_sa_flush () =
  let c = small () in
  ignore (SA.access c ~owner:Ow.Attacker 0);
  check_bool "flush present" true (SA.flush c 0);
  check_bool "now absent" false (SA.probe c 0);
  check_bool "flush absent" false (SA.flush c 0)

let test_sa_ownership_transfer () =
  let c = small () in
  ignore (SA.access c ~owner:Ow.Victim 0);
  check_float "victim owns" (1.0 /. 8.0) (SA.occupancy c Ow.Victim);
  (* attacker re-touches the line: ownership transfers *)
  ignore (SA.access c ~owner:Ow.Attacker 0);
  check_float "attacker owns" (1.0 /. 8.0) (SA.occupancy c Ow.Attacker);
  check_float "victim no longer" 0.0 (SA.occupancy c Ow.Victim)

let test_sa_fill_all_and_state () =
  let c = small () in
  SA.fill_all c ~owner:Ow.System;
  check_int "all valid" 8 (SA.valid_lines c);
  let s = SA.state c in
  check_float "io 1" 1.0 s.S.io;
  check_float "ao 0" 0.0 s.S.ao;
  ignore (SA.access c ~owner:Ow.Attacker 0);
  let s' = SA.state c in
  check_float "ao grows" (1.0 /. 8.0) s'.S.ao;
  check_float "io shrinks" (7.0 /. 8.0) s'.S.io

let test_sa_owned_sets () =
  let c = small () in
  ignore (SA.access c ~owner:Ow.Attacker 64);   (* set 1 *)
  ignore (SA.access c ~owner:Ow.Attacker 192);  (* set 3 *)
  Alcotest.(check (list int)) "sets" [ 1; 3 ] (SA.owned_sets c Ow.Attacker)

let prop_occupancy_invariant =
  (* AO + IO <= 1 under arbitrary access/flush sequences. *)
  let op_gen =
    QCheck.Gen.(pair (int_range 0 2) (int_range 0 1023))
  in
  QCheck.Test.make ~name:"AO+IO <= 1 invariant" ~count:200
    (QCheck.make QCheck.Gen.(list_size (int_range 0 200) op_gen))
    (fun ops ->
      let c = SA.create (C.make ~sets:8 ~ways:2 ()) in
      List.iter
        (fun (kind, addr) ->
          match kind with
          | 0 -> ignore (SA.access c ~owner:Ow.Attacker (addr * 64))
          | 1 -> ignore (SA.access c ~owner:Ow.Victim (addr * 64))
          | _ -> ignore (SA.flush c (addr * 64)))
        ops;
      let s = SA.state c in
      s.S.ao >= 0.0 && s.S.io >= 0.0 && s.S.ao +. s.S.io <= 1.0 +. 1e-9)

let prop_valid_lines_bounded =
  QCheck.Test.make ~name:"valid lines bounded by capacity" ~count:100
    (QCheck.make QCheck.Gen.(list_size (int_range 0 300) (int_range 0 4095)))
    (fun addrs ->
      let c = SA.create (C.make ~sets:4 ~ways:2 ()) in
      List.iter (fun a -> ignore (SA.access c ~owner:Ow.System (a * 64))) addrs;
      SA.valid_lines c <= 8)

(* Reference LRU model: an association list per set, most recent first. *)
let prop_lru_matches_reference =
  QCheck.Test.make ~name:"set_assoc LRU matches a reference model" ~count:200
    (QCheck.make QCheck.Gen.(list_size (int_range 0 150) (pair (int_range 0 1) (int_range 0 63))))
    (fun ops ->
      let cfg = C.make ~sets:4 ~ways:2 () in
      let cache = SA.create cfg in
      (* model: per set, list of line addrs, MRU first *)
      let model = Array.make 4 [] in
      List.for_all
        (fun (kind, line) ->
          let addr = line * 64 in
          let set = C.set_of_addr cfg addr in
          match kind with
          | 0 ->
            let hit = SA.access cache ~owner:Ow.Attacker addr in
            let model_hit = List.mem addr model.(set) in
            model.(set) <-
              addr :: List.filter (fun a -> a <> addr) model.(set);
            if List.length model.(set) > 2 then
              model.(set) <- List.filteri (fun i _ -> i < 2) model.(set);
            hit = model_hit
          | _ ->
            let was = List.mem addr model.(set) in
            model.(set) <- List.filter (fun a -> a <> addr) model.(set);
            SA.flush cache addr = was)
        ops)

(* The precomputed set mask and tag shift and the last-line memo against
   the reference copy, which maps every address through Config: power-of-two
   and prime set counts, every policy, over negative addresses too, with
   fills and renewals between lookups.  A renewed level must equal a
   freshly created one field for field.  Every geometry Config.make accepts
   maps every address to a set, so a lookup that raises fails the
   property. *)
let prop_geometry_matches_reference =
  QCheck.Test.make ~name:"set_assoc geometry matches the reference" ~count:300
    QCheck.(
      pair
        (quad (oneofl [ 1; 4; 61; 64 ]) (oneofl [ 1; 2 ]) (oneofl [ 1; 6 ])
           (oneofl Cache.Policy.all))
        (list_of_size (Gen.int_range 0 120)
           (pair
              (make ~print:string_of_int
                 Gen.(frequencyl [ (6, 0); (2, 1); (2, 2); (1, 3); (1, 4) ]))
              (oneof
                 [
                   int_range (-300) 300;
                   map (fun i -> i * 4096) (int_range (-20) 20);
                   oneofl [ min_int; max_int; min_int + 64; max_int - 64 ];
                 ]))))
    (fun ((sets, ways, line_bits, policy), ops) ->
      let cfg = C.make ~sets ~ways ~line_bits () in
      let c = SA.create ~policy cfg and r = ref (Refsim.Set_assoc.create ~policy cfg) in
      List.for_all
        (fun (op, addr) ->
          match op with
          | 0 ->
            let hit = SA.access c ~owner:Ow.Attacker addr in
            let o = Refsim.Set_assoc.access !r ~owner:Ow.Attacker addr in
            hit = o.Refsim.Set_assoc.hit
            && (match o.Refsim.Set_assoc.evicted with
               | None -> not (SA.evicted c)
               | Some (a, _) -> SA.evicted c && SA.evicted_addr c = a)
          | 1 -> SA.probe c addr = Refsim.Set_assoc.probe !r addr
          | 2 -> SA.flush c addr = Refsim.Set_assoc.flush !r addr
          | 3 ->
            SA.fill_all c ~owner:Ow.System;
            Refsim.Set_assoc.fill_all !r ~owner:Ow.System;
            SA.valid_lines c = Refsim.Set_assoc.valid_lines !r
          | _ ->
            SA.renew c;
            r := Refsim.Set_assoc.create ~policy cfg;
            c = SA.create ~policy cfg)
        ops)

(* ---- Hierarchy -------------------------------------------------------------------- *)

let test_hierarchy_latencies () =
  let h = H.create () in
  let miss = H.load h ~owner:Ow.Attacker 0x1000 in
  check_int "cold miss" H.default_latencies.H.memory (H.latency h miss);
  let hit = H.load h ~owner:Ow.Attacker 0x1000 in
  check_bool "l1 hit" true (hit = H.L1);
  check_int "l1 latency" H.default_latencies.H.l1_hit (H.latency h hit)

let test_hierarchy_llc_hit_after_l1_evict () =
  let h = H.create () in
  ignore (H.load h ~owner:Ow.Attacker 0x1000);
  (* Evict from L1 (64 sets x 8 ways): load 8 more lines in the same L1 set
     (stride = 64 sets * 64 B = 4096), but different LLC sets (512 sets). *)
  for i = 1 to 8 do
    ignore (H.load h ~owner:Ow.Attacker (0x1000 + (i * 4096)))
  done;
  let r = H.load h ~owner:Ow.Attacker 0x1000 in
  check_bool "not in l1, still in llc" true (r = H.Llc);
  check_int "llc latency" H.default_latencies.H.llc_hit (H.latency h r)

let test_hierarchy_flush_timing () =
  let h = H.create () in
  ignore (H.load h ~owner:Ow.Attacker 0x2000);
  check_int "flush present slower" H.default_latencies.H.flush_present
    (H.flush h 0x2000);
  check_int "flush absent faster" H.default_latencies.H.flush_absent
    (H.flush h 0x2000)

(* A geometry where the L1 has more sets than the LLC, so an LLC-congruent
   eviction set does NOT conflict in the L1 — isolating back-invalidation
   from plain L1 conflict misses (with the default geometry the L1 sets
   divide the LLC sets, so congruence always aliases both levels). *)
let decoupled () =
  H.create ~l1d:(C.make ~sets:512 ~ways:2 ()) ~llc:(C.make ~sets:64 ~ways:4 ())
    ()

let decoupled_non_inclusive () =
  H.create ~inclusive:false ~l1d:(C.make ~sets:512 ~ways:2 ())
    ~llc:(C.make ~sets:64 ~ways:4 ()) ()

let test_hierarchy_inclusive () =
  let h = decoupled () in
  ignore (H.load h ~owner:Ow.Attacker 0x3000);
  (* Fill the LLC set of 0x3000 with 4 fresh congruent lines
     (stride = 64 sets * 64 B) that live in distinct L1 sets. *)
  for i = 1 to 4 do
    ignore (H.load h ~owner:Ow.Attacker (0x3000 + (i * 4096)))
  done;
  (* Back-invalidation must have removed it from L1 too: the reload misses
     everywhere. *)
  let r = H.load h ~owner:Ow.Attacker 0x3000 in
  check_bool "l1 invalidated, llc evicted" true (r = H.Memory)

let test_hierarchy_ifetch_separate () =
  let h = H.create () in
  ignore (H.ifetch h ~owner:Ow.Attacker 0x4000);
  let r = H.ifetch h ~owner:Ow.Attacker 0x4000 in
  check_bool "l1i hit" true (r = H.L1);
  (* data side unaffected *)
  let d = H.load h ~owner:Ow.Attacker 0x4000 in
  check_bool "l1d separate" false (d = H.L1)

let test_hierarchy_fill_with () =
  let h = H.create () in
  H.fill_with h ~owner:Ow.System;
  let s = H.llc_state h in
  check_float "full of system data" 1.0 s.S.io

let test_hierarchy_non_inclusive () =
  let h = decoupled_non_inclusive () in
  ignore (H.load h ~owner:Ow.Attacker 0x3000);
  for i = 1 to 4 do
    ignore (H.load h ~owner:Ow.Attacker (0x3000 + (i * 4096)))
  done;
  (* LLC evicted the line but no back-invalidation: L1 still hits *)
  let r = H.load h ~owner:Ow.Attacker 0x3000 in
  check_bool "l1 keeps the line" true (r = H.L1)

let test_hierarchy_prefetcher () =
  let h = H.create ~prefetch:true () in
  ignore (H.load h ~owner:Ow.Attacker 0x5000);
  (* the next line was prefetched: its demand load hits *)
  let r = H.load h ~owner:Ow.Attacker 0x5040 in
  check_bool "next line prefetched" true (r = H.L1);
  (* no prefetcher by default *)
  let h2 = H.create () in
  ignore (H.load h2 ~owner:Ow.Attacker 0x5000);
  let r2 = H.load h2 ~owner:Ow.Attacker 0x5040 in
  check_bool "default has no prefetcher" false (r2 = H.L1)

let test_policy_fifo_no_refresh () =
  let c = SA.create ~policy:Cache.Policy.Fifo (C.make ~sets:1 ~ways:2 ()) in
  ignore (SA.access c ~owner:Ow.Attacker 0);    (* fill order: 0 *)
  ignore (SA.access c ~owner:Ow.Attacker 64);   (* fill order: 0, 64 *)
  ignore (SA.access c ~owner:Ow.Attacker 0);    (* hit; FIFO does not refresh *)
  ignore (SA.access c ~owner:Ow.Attacker 128);  (* evicts 0 (oldest fill) *)
  check_bool "oldest fill evicted despite the hit" false (SA.probe c 0);
  check_bool "line 64 survives" true (SA.probe c 64)

let test_policy_random_fills_invalid_first () =
  let c = SA.create ~policy:(Cache.Policy.Random 7) (C.make ~sets:1 ~ways:4 ()) in
  for i = 0 to 3 do
    ignore (SA.access c ~owner:Ow.Attacker (i * 64))
  done;
  check_int "all four present" 4 (SA.valid_lines c)

let test_cross_core_flush_propagates () =
  let a, b = H.create_cross_core () in
  (* victim core caches a line privately *)
  ignore (H.load b ~owner:Ow.Victim 0x6000);
  (* attacker's clflush must invalidate the peer's private copy too *)
  ignore (H.flush a 0x6000);
  let r = H.load b ~owner:Ow.Victim 0x6000 in
  check_bool "peer L1 and LLC invalidated" true (r = H.Memory)

let test_cross_core_private_l1s () =
  let a, b = H.create_cross_core () in
  ignore (H.load b ~owner:Ow.Victim 0x7000);
  (* the attacker's first load of the victim-cached line misses its private
     L1 but hits the shared LLC *)
  let r = H.load a ~owner:Ow.Attacker 0x7000 in
  check_bool "attacker L1 miss, shared LLC hit" true (r = H.Llc)

(* ---- State ------------------------------------------------------------------------- *)

let test_state_constructors () =
  check_bool "invalid sum rejected" true
    (try ignore (S.make ~ao:0.7 ~io:0.7); false
     with Invalid_argument _ -> true);
  check_bool "negative rejected" true
    (try ignore (S.make ~ao:(-0.1) ~io:0.5); false
     with Invalid_argument _ -> true);
  let s = S.full_other in
  check_float "full io" 1.0 s.S.io

let test_state_rejects_non_finite () =
  List.iter
    (fun (ao, io) ->
      check_bool (Printf.sprintf "(%g, %g) rejected" ao io) true
        (try ignore (S.make ~ao ~io); false with Invalid_argument _ -> true))
    [ (Float.nan, 0.5); (0.5, Float.nan); (infinity, 0.0); (0.0, neg_infinity) ]

let test_state_change_magnitude () =
  let before = S.make ~ao:0.0 ~io:1.0 in
  let after = S.make ~ao:0.25 ~io:0.75 in
  check_float "P" 0.25 (S.change_magnitude ~before ~after);
  check_float "identity" 0.0 (S.change_magnitude ~before ~after:before)

let test_state_distance () =
  let a = (S.make ~ao:0.0 ~io:1.0, S.make ~ao:0.5 ~io:0.5) in
  let b = (S.make ~ao:0.0 ~io:1.0, S.make ~ao:0.0 ~io:1.0) in
  check_float "|P1 - P2|" 0.5 (S.distance a b);
  check_float "self" 0.0 (S.distance a a)

let () =
  Alcotest.run "cache"
    [
      ( "config",
        [
          Alcotest.test_case "mapping" `Quick test_config_mapping;
          Alcotest.test_case "non-pow2 sets" `Quick test_config_non_pow2;
          Alcotest.test_case "errors" `Quick test_config_errors;
        ] );
      ( "set_assoc",
        [
          Alcotest.test_case "hit/miss" `Quick test_sa_hit_miss;
          Alcotest.test_case "LRU eviction" `Quick test_sa_lru_eviction;
          Alcotest.test_case "flush" `Quick test_sa_flush;
          Alcotest.test_case "ownership transfer" `Quick test_sa_ownership_transfer;
          Alcotest.test_case "fill_all/state" `Quick test_sa_fill_all_and_state;
          Alcotest.test_case "owned sets" `Quick test_sa_owned_sets;
          QCheck_alcotest.to_alcotest prop_occupancy_invariant;
          QCheck_alcotest.to_alcotest prop_valid_lines_bounded;
          QCheck_alcotest.to_alcotest prop_lru_matches_reference;
          QCheck_alcotest.to_alcotest prop_geometry_matches_reference;
        ] );
      ( "hierarchy",
        [
          Alcotest.test_case "latencies" `Quick test_hierarchy_latencies;
          Alcotest.test_case "llc hit after l1 evict" `Quick
            test_hierarchy_llc_hit_after_l1_evict;
          Alcotest.test_case "flush timing" `Quick test_hierarchy_flush_timing;
          Alcotest.test_case "inclusive back-invalidate" `Quick test_hierarchy_inclusive;
          Alcotest.test_case "split ifetch" `Quick test_hierarchy_ifetch_separate;
          Alcotest.test_case "fill_with" `Quick test_hierarchy_fill_with;
          Alcotest.test_case "non-inclusive keeps L1" `Quick test_hierarchy_non_inclusive;
          Alcotest.test_case "prefetcher" `Quick test_hierarchy_prefetcher;
        ] );
      ( "cross_core",
        [
          Alcotest.test_case "flush propagates" `Quick test_cross_core_flush_propagates;
          Alcotest.test_case "private L1s" `Quick test_cross_core_private_l1s;
        ] );
      ( "policy",
        [
          Alcotest.test_case "fifo no refresh" `Quick test_policy_fifo_no_refresh;
          Alcotest.test_case "random fills invalid first" `Quick
            test_policy_random_fills_invalid_first;
        ] );
      ( "state",
        [
          Alcotest.test_case "constructors" `Quick test_state_constructors;
          Alcotest.test_case "non-finite rejected" `Quick test_state_rejects_non_finite;
          Alcotest.test_case "change magnitude" `Quick test_state_change_magnitude;
          Alcotest.test_case "distance" `Quick test_state_distance;
        ] );
    ]
