(* Tests for the HPC library: Table I events, counter banks and the runtime
   data collector. *)

module Ev = Hpc.Event
module Ct = Hpc.Counters
module Col = Hpc.Collector

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let test_event_roundtrip () =
  List.iter
    (fun e -> check_bool "roundtrip" true (Ev.equal e (Ev.of_index (Ev.index e))))
    Ev.all;
  check_int "twelve events" 12 Ev.count

let test_event_hpc_value_membership () =
  check_bool "timestamp excluded" false (Ev.counted_in_hpc_value Ev.Timestamp);
  check_int "eleven counted" 11
    (List.length (List.filter Ev.counted_in_hpc_value Ev.all))

let test_counters_basic () =
  let c = Ct.create () in
  check_int "empty total" 0 (Ct.total c);
  Ct.incr c Ev.L1d_load_miss;
  Ct.incr c Ev.L1d_load_miss;
  Ct.add c Ev.Timestamp 5;
  check_int "get" 2 (Ct.get c Ev.L1d_load_miss);
  check_int "total includes timestamp" 7 (Ct.total c);
  check_int "hpc value excludes timestamp" 2 (Ct.hpc_value c);
  check_int "assoc size" 2 (List.length (Ct.to_assoc c))

let test_counters_merge_copy_reset () =
  let a = Ct.create () and b = Ct.create () in
  Ct.incr a Ev.Branch_miss;
  Ct.incr b Ev.Branch_miss;
  Ct.incr b Ev.Cache_miss;
  Ct.merge_into ~dst:a b;
  check_int "merged" 2 (Ct.get a Ev.Branch_miss);
  check_int "merged other" 1 (Ct.get a Ev.Cache_miss);
  let c = Ct.copy a in
  Ct.reset a;
  check_int "reset" 0 (Ct.total a);
  check_int "copy unaffected" 3 (Ct.total c)

let test_counters_vector () =
  let c = Ct.create () in
  Ct.incr c Ev.Llc_load_hit;
  let v = Ct.to_vector c in
  check_int "dense length" Ev.count (Array.length v);
  Alcotest.(check (float 0.0)) "slot" 1.0 v.(Ev.index Ev.Llc_load_hit)

let test_collector_events_and_values () =
  let col = Col.create ~base:0x10 ~length:12 in
  Col.record_event col 0 Ev.L1d_load_miss;
  Col.record_event col 0 Ev.Llc_load_miss;
  Col.record_event col 4 Ev.Timestamp;
  check_int "hpc value at 0x10" 2 (Col.hpc_value_at col ~pc:0x10);
  check_int "timestamp-only pc has 0" 0 (Col.hpc_value_at col ~pc:0x20);
  check_int "unknown pc" 0 (Col.hpc_value_at col ~pc:0x30);
  check_int "outside the program" 0 (Col.hpc_value_at col ~pc:0x100);
  check_int "total" 3 (Ct.total (Col.total_counters col))

let test_collector_accesses () =
  let col = Col.create ~base:0 ~length:3 in
  Col.record_access col 1 ~target:100 ~kind:Col.Load ~time:5;
  Col.record_access col 2 ~target:200 ~kind:Col.Flush ~time:9;
  Col.record_access col 1 ~target:300 ~kind:Col.Store ~time:12;
  check_int "count" 3 (Col.access_count col);
  let accs = Col.accesses col in
  check_bool "chronological" true
    (List.map (fun a -> Col.(a.pc, a.target, a.kind, a.time)) accs
    = Col.[ (4, 100, Load, 5); (8, 200, Flush, 9); (4, 300, Store, 12) ])

let test_collector_first_time_and_counts () =
  let col = Col.create ~base:0x40 ~length:32 in
  Col.note_executed col 0 ~time:100;
  Col.note_executed col 0 ~time:200;
  Col.note_executed col 1 ~time:150;
  Alcotest.(check (option int)) "first kept" (Some 100) (Col.first_time col ~pc:0x40);
  check_int "exec count" 2 (Col.exec_count col ~pc:0x40);
  check_int "unknown count" 0 (Col.exec_count col ~pc:0x99);
  Alcotest.(check (list int)) "executed pcs sorted" [ 0x40; 0x44 ]
    (Col.executed_pcs col)

let prop_hpc_value_matches_manual_sum =
  QCheck.Test.make ~name:"hpc_value = sum of 11 counted events" ~count:200
    (QCheck.make
       QCheck.Gen.(list_size (int_range 0 50) (int_range 0 (Ev.count - 1))))
    (fun indices ->
      let c = Ct.create () in
      List.iter (fun i -> Ct.incr c (Ev.of_index i)) indices;
      let manual =
        List.length (List.filter (fun i -> Ev.counted_in_hpc_value (Ev.of_index i)) indices)
      in
      Ct.hpc_value c = manual)

let () =
  Alcotest.run "hpc"
    [
      ( "event",
        [
          Alcotest.test_case "index roundtrip" `Quick test_event_roundtrip;
          Alcotest.test_case "hpc-value membership" `Quick
            test_event_hpc_value_membership;
        ] );
      ( "counters",
        [
          Alcotest.test_case "basic" `Quick test_counters_basic;
          Alcotest.test_case "merge/copy/reset" `Quick test_counters_merge_copy_reset;
          Alcotest.test_case "vector" `Quick test_counters_vector;
          QCheck_alcotest.to_alcotest prop_hpc_value_matches_manual_sum;
        ] );
      ( "collector",
        [
          Alcotest.test_case "events and values" `Quick test_collector_events_and_values;
          Alcotest.test_case "accesses" `Quick test_collector_accesses;
          Alcotest.test_case "first time / counts" `Quick
            test_collector_first_time_and_counts;
        ] );
    ]
