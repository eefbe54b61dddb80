(* Tests for the sutil utility library: deterministic RNG, Levenshtein
   distance, summary statistics and table rendering. *)

let check_int = Alcotest.(check int)
let check_float = Alcotest.(check (float 1e-9))

(* ---- Rng ----------------------------------------------------------------- *)

let test_rng_deterministic () =
  let a = Sutil.Rng.create 42 in
  let b = Sutil.Rng.create 42 in
  for _ = 1 to 100 do
    check_int "same stream" (Sutil.Rng.int a 1000) (Sutil.Rng.int b 1000)
  done

let test_rng_seeds_differ () =
  let a = Sutil.Rng.create 1 in
  let b = Sutil.Rng.create 2 in
  let xs = List.init 20 (fun _ -> Sutil.Rng.int a 1_000_000) in
  let ys = List.init 20 (fun _ -> Sutil.Rng.int b 1_000_000) in
  Alcotest.(check bool) "streams differ" false (xs = ys)

let test_rng_split_independent () =
  let parent = Sutil.Rng.create 7 in
  let child = Sutil.Rng.split parent in
  let c1 = List.init 10 (fun _ -> Sutil.Rng.int child 100) in
  (* A second split from the same parent state gives another stream. *)
  let child2 = Sutil.Rng.split parent in
  let c2 = List.init 10 (fun _ -> Sutil.Rng.int child2 100) in
  Alcotest.(check bool) "children differ" false (c1 = c2)

let test_rng_copy () =
  let a = Sutil.Rng.create 9 in
  ignore (Sutil.Rng.int a 10);
  let b = Sutil.Rng.copy a in
  check_int "copy replays" (Sutil.Rng.int a 1000) (Sutil.Rng.int b 1000)

let test_rng_in_range () =
  let rng = Sutil.Rng.create 3 in
  for _ = 1 to 500 do
    let v = Sutil.Rng.in_range rng 5 9 in
    Alcotest.(check bool) "in [5,9]" true (v >= 5 && v <= 9)
  done

let test_rng_invalid_args () =
  let rng = Sutil.Rng.create 0 in
  Alcotest.check_raises "int 0" (Invalid_argument "Rng.int: bound must be positive")
    (fun () -> ignore (Sutil.Rng.int rng 0));
  Alcotest.check_raises "choose []" (Invalid_argument "Rng.choose: empty list")
    (fun () -> ignore (Sutil.Rng.choose rng ([] : int list)))

let test_rng_sample_distinct () =
  let rng = Sutil.Rng.create 5 in
  let xs = List.init 20 Fun.id in
  let s = Sutil.Rng.sample rng 8 xs in
  check_int "size" 8 (List.length s);
  check_int "distinct" 8 (List.length (List.sort_uniq compare s))

let prop_int_bounds =
  QCheck.Test.make ~name:"rng int within bounds" ~count:500
    QCheck.(pair small_int (int_range 1 10000))
    (fun (seed, bound) ->
      let rng = Sutil.Rng.create seed in
      let v = Sutil.Rng.int rng bound in
      v >= 0 && v < bound)

let prop_shuffle_permutation =
  QCheck.Test.make ~name:"shuffle is a permutation" ~count:200
    QCheck.(pair small_int (list small_int))
    (fun (seed, xs) ->
      let rng = Sutil.Rng.create seed in
      List.sort compare (Sutil.Rng.shuffle rng xs) = List.sort compare xs)

let prop_float_bounds =
  QCheck.Test.make ~name:"rng float within bounds" ~count:500 QCheck.small_int
    (fun seed ->
      let rng = Sutil.Rng.create seed in
      let v = Sutil.Rng.float rng 3.5 in
      v >= 0.0 && v < 3.5)

(* ---- Levenshtein ---------------------------------------------------------- *)

let lev_ws = Sutil.Levenshtein.workspace ()
let lev a b = Sutil.Levenshtein.distance_ints ~ws:lev_ws a b

(* string tokens interned into one pool, as models intern theirs *)
let pool = Sutil.Intern.create ()
let ids l = Sutil.Intern.intern_all pool (Array.of_list l)
let dist a b = lev (ids a) (ids b)

let test_lev_basic () =
  check_int "identical" 0 (dist [ "a"; "b" ] [ "a"; "b" ]);
  check_int "empty vs xs" 3 (dist [] [ "a"; "b"; "c" ]);
  check_int "single subst" 1 (dist [ "a"; "b"; "c" ] [ "a"; "x"; "c" ]);
  check_int "insert" 1 (dist [ "a"; "c" ] [ "a"; "b"; "c" ]);
  let chars s = Array.init (String.length s) (fun i -> Char.code s.[i]) in
  check_int "kitten/sitting" 3 (lev (chars "kitten") (chars "sitting"))

let test_lev_normalized () =
  let norm a b = Sutil.Levenshtein.normalized_ints ~ws:lev_ws (ids a) (ids b) in
  check_float "identical" 0.0 (norm [ "a" ] [ "a" ]);
  check_float "both empty" 0.0 (norm [] []);
  check_float "disjoint" 1.0 (norm [ "a"; "b" ] [ "x"; "y" ])

let prop_lev_symmetric =
  QCheck.Test.make ~name:"levenshtein symmetric" ~count:200
    QCheck.(pair (list (int_range 0 5)) (list (int_range 0 5)))
    (fun (a, b) ->
      let a = Array.of_list a and b = Array.of_list b in
      lev a b = lev b a)

let prop_lev_triangle =
  QCheck.Test.make ~name:"levenshtein triangle inequality" ~count:200
    QCheck.(triple (list (int_range 0 3)) (list (int_range 0 3))
              (list (int_range 0 3)))
    (fun (a, b, c) ->
      let a = Array.of_list a and b = Array.of_list b and c = Array.of_list c in
      lev a c <= lev a b + lev b c)

let prop_lev_bounds =
  QCheck.Test.make ~name:"levenshtein bounded by max length" ~count:200
    QCheck.(pair (list (int_range 0 5)) (list (int_range 0 5)))
    (fun (a, b) ->
      let a = Array.of_list a and b = Array.of_list b in
      let d = lev a b in
      d >= abs (Array.length a - Array.length b)
      && d <= max (Array.length a) (Array.length b))

(* ---- Intern ---------------------------------------------------------------- *)

let test_intern_equality () =
  let p = Sutil.Intern.create () in
  let a = Sutil.Intern.intern p "load m" in
  let b = Sutil.Intern.intern p "store m" in
  check_int "same string, same id" a (Sutil.Intern.intern p "load m");
  Alcotest.(check bool) "distinct strings, distinct ids" false (a = b);
  Alcotest.(check string) "id maps back" "load m" (Sutil.Intern.to_string p a);
  Alcotest.(check string) "id maps back 2" "store m" (Sutil.Intern.to_string p b);
  check_int "size counts distinct strings" 2 (Sutil.Intern.size p)

let test_intern_all () =
  let p = Sutil.Intern.create () in
  let ss = [| "a"; "b"; "a"; "c"; "b" |] in
  let ids = Sutil.Intern.intern_all p ss in
  Alcotest.(check (array int)) "batch = one-by-one"
    (Array.map (Sutil.Intern.intern p) ss)
    ids;
  Alcotest.(check (array string)) "roundtrip"
    ss
    (Array.map (Sutil.Intern.to_string p) ids)

let test_intern_growth () =
  (* push past the initial capacity so the doubling path is exercised *)
  let p = Sutil.Intern.create () in
  let ids = List.init 500 (fun i -> Sutil.Intern.intern p (string_of_int i)) in
  check_int "all distinct" 500 (List.length (List.sort_uniq compare ids));
  List.iteri
    (fun i id ->
      Alcotest.(check string) "stable" (string_of_int i)
        (Sutil.Intern.to_string p id))
    ids

(* the interning guarantee the scorers rely on: the int-token Levenshtein is
   bit-identical to the string-token reference whenever ids come from one
   pool *)
let prop_interned_levenshtein_identical =
  QCheck.Test.make ~name:"interned levenshtein = string levenshtein" ~count:300
    QCheck.(
      pair
        (list (oneofl [ "load m"; "store m"; "mov r r"; "rdtsc"; "mfence" ]))
        (list (oneofl [ "load m"; "store m"; "mov r r"; "clflush m" ])))
    (fun (a, b) ->
      let a = Array.of_list a and b = Array.of_list b in
      let p = Sutil.Intern.create () in
      let ia = Sutil.Intern.intern_all p a
      and ib = Sutil.Intern.intern_all p b in
      Sutil.Levenshtein.distance_ints ~ws:lev_ws ia ib
      = Refdtw.Levenshtein.distance_strings a b
      && Sutil.Levenshtein.normalized_ints ~ws:lev_ws ia ib
         = Refdtw.Levenshtein.normalized ~equal:String.equal a b)

(* ---- Stats ---------------------------------------------------------------- *)

let test_stats_mean_median () =
  check_float "mean" 2.5 (Sutil.Stats.mean [ 1.0; 2.0; 3.0; 4.0 ]);
  check_float "median odd" 2.0 (Sutil.Stats.median [ 3.0; 1.0; 2.0 ]);
  check_float "median even" 2.5 (Sutil.Stats.median [ 4.0; 1.0; 2.0; 3.0 ]);
  check_float "empty mean" 0.0 (Sutil.Stats.mean []);
  check_float "min" 1.0 (Sutil.Stats.minimum [ 3.0; 1.0; 2.0 ]);
  check_float "max" 3.0 (Sutil.Stats.maximum [ 3.0; 1.0; 2.0 ])

let test_stats_stddev () =
  check_float "constant" 0.0 (Sutil.Stats.stddev [ 5.0; 5.0; 5.0 ]);
  check_float "known" 2.0 (Sutil.Stats.stddev [ 2.0; 4.0; 4.0; 4.0; 5.0; 5.0; 7.0; 9.0 ])

let test_stats_percentile () =
  let xs = List.init 100 (fun i -> float_of_int (i + 1)) in
  check_float "p50" 50.0 (Sutil.Stats.percentile 0.5 xs);
  check_float "p99" 99.0 (Sutil.Stats.percentile 0.99 xs)

let test_bucket_percentiles () =
  let bounds = [| 1.0; 2.0; 4.0 |] in
  (* 10 observations in (0,1], 10 in (1,2], none higher *)
  let counts = [| 10; 10; 0; 0 |] in
  check_float "total" 20.0 (float_of_int (Sutil.Stats.bucket_total counts));
  (* rank 10 is the last of the first bucket: interpolates to its top edge *)
  check_float "p50 at bucket edge" 1.0
    (Sutil.Stats.percentile_of_buckets ~bounds ~counts 0.5);
  (* rank 5 sits halfway through the first bucket (0..1) *)
  check_float "p25 interpolates" 0.5
    (Sutil.Stats.percentile_of_buckets ~bounds ~counts 0.25);
  (* rank 18 is 8/10 through the second bucket (1..2) *)
  check_float "p90 interpolates" 1.8
    (Sutil.Stats.percentile_of_buckets ~bounds ~counts 0.9);
  (* empty histogram is total *)
  check_float "empty" 0.0
    (Sutil.Stats.percentile_of_buckets ~bounds ~counts:[| 0; 0; 0; 0 |] 0.5);
  (* overflow ranks clamp to the largest finite bound *)
  check_float "overflow clamps" 4.0
    (Sutil.Stats.percentile_of_buckets ~bounds ~counts:[| 0; 0; 0; 5 |] 0.99);
  Alcotest.check_raises "length mismatch raises"
    (Invalid_argument
       "Stats.percentile_of_buckets: need one count per bound plus overflow")
    (fun () ->
      ignore (Sutil.Stats.percentile_of_buckets ~bounds ~counts:[| 1 |] 0.5))

(* ---- Pool probe ------------------------------------------------------------ *)

let test_pool_probe () =
  (* every task gets exactly one start and one stop, stop after start, with
     matching worker ids — across a multi-domain run *)
  let tasks = 64 in
  let starts = Array.make tasks 0 and stops = Array.make tasks 0 in
  let start_worker = Array.make tasks (-1) in
  let lock = Mutex.create () in
  let probe =
    {
      Sutil.Pool.task_start =
        (fun ~worker i ->
          Mutex.lock lock;
          starts.(i) <- starts.(i) + 1;
          start_worker.(i) <- worker;
          Mutex.unlock lock);
      task_stop =
        (fun ~worker i ->
          Mutex.lock lock;
          Alcotest.(check int) "stop on the same worker" start_worker.(i) worker;
          Alcotest.(check int) "started before stopping" 1 starts.(i);
          stops.(i) <- stops.(i) + 1;
          Mutex.unlock lock);
    }
  in
  let hit = Array.make tasks false in
  ignore
    (Sutil.Pool.run ~domains:4 ~probe ~tasks (fun ~worker:_ i ->
         hit.(i) <- true));
  Alcotest.(check bool) "every task ran" true (Array.for_all Fun.id hit);
  Array.iteri
    (fun i s ->
      Alcotest.(check int) (Printf.sprintf "task %d started once" i) 1 s;
      Alcotest.(check int) (Printf.sprintf "task %d stopped once" i) 1 stops.(i))
    starts

let test_pool_probe_optional () =
  (* ?probe:None is the plain un-instrumented run *)
  let count = ref 0 in
  ignore
    (Sutil.Pool.run ~domains:1 ~tasks:10 (fun ~worker:_ _ -> incr count));
  Alcotest.(check int) "all tasks, no probe" 10 !count

(* ---- Table ---------------------------------------------------------------- *)

(* tiny substring helper to avoid external deps *)
let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let test_table_render () =
  let t = Sutil.Table.create ~title:"T" [ "a"; "bb" ] in
  Sutil.Table.add_row t [ "1"; "2" ];
  Sutil.Table.add_row t [ "longer" ];
  let s = Sutil.Table.render t in
  Alcotest.(check bool) "has title" true (String.length s > 0 && s.[0] = 'T');
  (* short row padded, long cell widens column *)
  Alcotest.(check bool) "mentions longer" true (contains s "longer")

let test_table_pct () =
  Alcotest.(check string) "pct" "96.64%" (Sutil.Table.pct 0.9664);
  Alcotest.(check string) "fpct" "12.30%" (Sutil.Table.fpct 12.3)

(* -- sink --------------------------------------------------------------------- *)

(* Pushes from several domains at once: a bounded sink never holds more than
   its capacity, and every push is either held or counted as dropped. *)
let test_sink_concurrent_bound () =
  let domains = 4 and per = 5_000 and capacity = 7_000 in
  let s = Sutil.Sink.create ~capacity () in
  List.iter Domain.join
    (List.init domains (fun d ->
         Domain.spawn (fun () ->
             for i = 1 to per do
               Sutil.Sink.push s ((d * per) + i)
             done)));
  let held = List.length (Sutil.Sink.items s) in
  Alcotest.(check bool) "never above capacity" true (held <= capacity);
  Alcotest.(check int) "held + dropped = pushed" (domains * per)
    (held + Sutil.Sink.dropped s);
  Alcotest.check_raises "capacity must be positive"
    (Invalid_argument "Sink: capacity must be >= 1") (fun () ->
      ignore (Sutil.Sink.create ~capacity:0 ()))

(* -- deadline ----------------------------------------------------------------- *)

let test_deadline () =
  let now = 1_000_000_000L in
  Alcotest.(check bool) "none never expires" false
    (Sutil.Deadline.expired ~now_ns:Int64.max_int Sutil.Deadline.none);
  Alcotest.(check bool) "zero budget means none" true
    (Sutil.Deadline.is_none (Sutil.Deadline.after ~now_ns:now ~budget_ms:0));
  let d = Sutil.Deadline.after ~now_ns:now ~budget_ms:5 in
  Alcotest.(check bool) "not yet" false (Sutil.Deadline.expired ~now_ns:now d);
  Alcotest.(check bool) "within budget" false
    (Sutil.Deadline.expired ~now_ns:(Int64.add now 4_999_999L) d);
  Alcotest.(check bool) "at the instant" true
    (Sutil.Deadline.expired ~now_ns:(Int64.add now 5_000_000L) d);
  (match Sutil.Deadline.remaining_ns ~now_ns:(Int64.add now 6_000_000L) d with
  | Some r -> Alcotest.(check bool) "remaining clamps at 0" true (r = 0L)
  | None -> Alcotest.fail "deadline has a remaining");
  (* a huge budget saturates instead of wrapping into the past *)
  let far = Sutil.Deadline.after ~now_ns:Int64.max_int ~budget_ms:max_int in
  Alcotest.(check bool) "saturating add" false
    (Sutil.Deadline.expired ~now_ns:1L far)

(* a budget whose nanosecond count overflows int64 saturates to the far
   future; wrapping would turn 18446744073710 ms into a 448384 ns deadline *)
let test_deadline_no_wrap () =
  let now = 1_000_000_000L in
  let week_ns = Int64.mul 604_800L 1_000_000_000L in
  List.iter
    (fun budget_ms ->
      let d = Sutil.Deadline.after ~now_ns:now ~budget_ms in
      Alcotest.(check bool)
        (Printf.sprintf "%d ms not expired a week later" budget_ms)
        false
        (Sutil.Deadline.expired ~now_ns:(Int64.add now week_ns) d);
      Alcotest.(check bool)
        (Printf.sprintf "%d ms not expired at max_int - 1" budget_ms)
        false
        (Sutil.Deadline.expired ~now_ns:(Int64.pred Int64.max_int) d))
    [ 9_223_372_036_855; 18_446_744_073_710; max_int / 2; max_int ];
  (* the largest budget that still fits is exact *)
  let edge = 9_223_372_036_854 in
  match Sutil.Deadline.remaining_ns ~now_ns:0L (Sutil.Deadline.after ~now_ns:0L ~budget_ms:edge) with
  | Some r ->
    Alcotest.(check bool) "largest exact budget" true
      (r = Int64.mul (Int64.of_int edge) 1_000_000L)
  | None -> Alcotest.fail "deadline has a remaining"

let () =
  Alcotest.run "sutil"
    [
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "seeds differ" `Quick test_rng_seeds_differ;
          Alcotest.test_case "split independent" `Quick test_rng_split_independent;
          Alcotest.test_case "copy replays" `Quick test_rng_copy;
          Alcotest.test_case "in_range" `Quick test_rng_in_range;
          Alcotest.test_case "invalid args" `Quick test_rng_invalid_args;
          Alcotest.test_case "sample distinct" `Quick test_rng_sample_distinct;
          QCheck_alcotest.to_alcotest prop_int_bounds;
          QCheck_alcotest.to_alcotest prop_shuffle_permutation;
          QCheck_alcotest.to_alcotest prop_float_bounds;
        ] );
      ( "levenshtein",
        [
          Alcotest.test_case "basic" `Quick test_lev_basic;
          Alcotest.test_case "normalized" `Quick test_lev_normalized;
          QCheck_alcotest.to_alcotest prop_lev_symmetric;
          QCheck_alcotest.to_alcotest prop_lev_triangle;
          QCheck_alcotest.to_alcotest prop_lev_bounds;
        ] );
      ( "intern",
        [
          Alcotest.test_case "equality" `Quick test_intern_equality;
          Alcotest.test_case "intern_all" `Quick test_intern_all;
          Alcotest.test_case "growth" `Quick test_intern_growth;
          QCheck_alcotest.to_alcotest prop_interned_levenshtein_identical;
        ] );
      ( "stats",
        [
          Alcotest.test_case "mean/median" `Quick test_stats_mean_median;
          Alcotest.test_case "stddev" `Quick test_stats_stddev;
          Alcotest.test_case "percentile" `Quick test_stats_percentile;
          Alcotest.test_case "bucket percentiles" `Quick test_bucket_percentiles;
        ] );
      ( "pool",
        [
          Alcotest.test_case "probe fires once per task" `Quick test_pool_probe;
          Alcotest.test_case "probe optional" `Quick test_pool_probe_optional;
        ] );
      ( "table",
        [
          Alcotest.test_case "render" `Quick test_table_render;
          Alcotest.test_case "pct" `Quick test_table_pct;
        ] );
      ( "sink",
        [
          Alcotest.test_case "bound under concurrent pushes" `Quick
            test_sink_concurrent_bound;
        ] );
      ( "deadline",
        [
          Alcotest.test_case "budget arithmetic" `Quick test_deadline;
          Alcotest.test_case "huge budgets saturate" `Quick test_deadline_no_wrap;
        ] );
    ]
