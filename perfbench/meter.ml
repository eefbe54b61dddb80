(* Timing, estimators, span recording, verdict checks and result output
   shared by the workloads. *)

module Detector = Scaguard.Detector

let now = Scaguard.Obs.Clock.now_ns
let ms_between t0 t1 = Int64.to_float (Int64.sub t1 t0) /. 1e6
let ms_since t0 = ms_between t0 (now ())

let median xs = Sutil.Stats.median xs

(* nearest rank, so the value is one that was measured *)
let p90 xs = Sutil.Stats.percentile 0.9 xs

let mean xs = Sutil.Stats.mean xs

(* The wall time of the stages a service report times, in ms. *)
let stage_ms (r : Scaguard.Service.report) =
  List.fold_left (fun acc t -> acc +. (t.Scaguard.Service.wall_s *. 1e3)) 0.0 r.Scaguard.Service.timings

let timed f =
  let t0 = now () in
  let v = f () in
  (v, ms_since t0)

(* Set-up is timed once before the first pass and [per_pass] more times
   between passes, outside their wall time, and its median reported: one
   timing of a 40 ms set-up does not repeat within a tenth on a shared host,
   and set-ups spread over the run sample the same host phases as the ops.
   [again first later] receives each later set-up's result, to check it
   against the first; only the first is kept.  Returns the first result,
   the repeat to run between passes, and [setup_s]. *)
let setup ~per_pass ~again f =
  let first, ms = timed f in
  let times = ref [ ms ] in
  let repeat () =
    for _ = 1 to per_pass do
      let v, ms = timed f in
      times := ms :: !times;
      again first v
    done
  in
  (first, repeat, fun () -> median !times /. 1e3)

(* ---- host-speed probe ------------------------------------------------------- *)

(* A fixed floating-point loop over 4096 elements, timed 9 times; the
   median is printed at the start and end of every run so a reader can
   recognise a slow host phase.  It never scales or filters a metric. *)
let host_probe_ms () =
  let a = Array.init 4096 (fun i -> float_of_int (i land 255)) in
  let once () =
    let t0 = now () in
    let acc = ref 0.0 in
    for _ = 1 to 200 do
      for i = 0 to 4095 do
        acc := (!acc *. 0.999) +. a.(i)
      done
    done;
    ignore (Sys.opaque_identity !acc);
    ms_since t0
  in
  median (List.init 9 (fun _ -> once ()))

(* ---- passes ----------------------------------------------------------------- *)

(* Every op is timed in every pass; an op's time is its median across
   passes (minima spread far more between processes on a shared host).
   Passes repeat until [seconds] have elapsed, with at least [min_passes];
   [check] runs after each pass and [between] (the repeated set-up) before
   each pass but the first, both outside the pass's wall time.  GC counters
   are taken around the passes, so they cover op work only. *)
type passes = {
  op_ms : float list array;
  mutable pass_ms : float list;
  mutable minor_words : float;
  mutable minor_gcs : int;
  mutable major_gcs : int;
}

let min_passes = 3

let new_passes ops =
  { op_ms = Array.make ops []; pass_ms = []; minor_words = 0.0; minor_gcs = 0; major_gcs = 0 }

let one_pass p ~check n pass =
  let g0 = Gc.quick_stat () in
  let t0 = now () in
  pass n (fun i ms -> p.op_ms.(i) <- ms :: p.op_ms.(i));
  p.pass_ms <- ms_since t0 :: p.pass_ms;
  let g1 = Gc.quick_stat () in
  p.minor_words <- p.minor_words +. g1.Gc.minor_words -. g0.Gc.minor_words;
  p.minor_gcs <- p.minor_gcs + g1.Gc.minor_collections - g0.Gc.minor_collections;
  p.major_gcs <- p.major_gcs + g1.Gc.major_collections - g0.Gc.major_collections;
  check n

let deadline seconds = Int64.add (now ()) (Int64.of_float (seconds *. 1e9))

(* The heap peak after [min_passes] passes, which every run makes.  The
   peak at the end of a run would grow with the number of passes the host's
   speed allows; this one depends on the inputs alone. *)
let heap_peak_words = ref 0

let run_passes ~seconds ~ops ~check ~between pass =
  let p = new_passes ops and stop = deadline seconds in
  let n = ref 0 in
  while !n < min_passes || now () < stop do
    if !n > 0 then between ();
    one_pass p ~check !n pass;
    incr n;
    if !n = min_passes then heap_peak_words := (Gc.quick_stat ()).Gc.top_heap_words
  done;
  p

(* The traced run alternates untraced and traced passes (pass numbers are
   shared, so spans name the pass they came from), at least two of each;
   the first pass is untraced so later passes have a reference.
   [after_traced] runs after each traced pass, outside its wall time. *)
let run_alternating ~seconds ~ops ~check ~between ?(after_traced = ignore) ~untraced ~traced () =
  let u = new_passes ops and t = new_passes ops and stop = deadline seconds in
  let n = ref 0 in
  while !n < 4 || now () < stop do
    if !n > 0 then between ();
    if !n mod 2 = 0 then one_pass u ~check !n untraced
    else begin
      one_pass t ~check !n traced;
      after_traced ()
    end;
    incr n
  done;
  (u, t)

let passes_run p = List.length p.pass_ms
let op_medians p = Array.to_list (Array.map median p.op_ms)

(* ---- verdict checks ---------------------------------------------------------- *)

exception Mismatch of string

let mismatch fmt = Printf.ksprintf (fun m -> raise (Mismatch m)) fmt
let bits = Int64.bits_of_float

let same_verdict (a : Detector.verdict) (b : Detector.verdict) =
  bits a.Detector.best_score = bits b.Detector.best_score
  && a.Detector.best_family = b.Detector.best_family
  && List.length a.Detector.best_matches = List.length b.Detector.best_matches
  && List.for_all2
       (fun (n1, f1, s1) (n2, f2, s2) -> n1 = n2 && f1 = f2 && bits s1 = bits s2)
       a.Detector.best_matches b.Detector.best_matches

let show (v : Detector.verdict) =
  Printf.sprintf "score=%h family=%s matches=[%s]" v.Detector.best_score
    (Option.value v.Detector.best_family ~default:"-")
    (String.concat ";"
       (List.map (fun (n, f, s) -> Printf.sprintf "%s/%s/%h" n f s) v.Detector.best_matches))

(* The check's self-test: with [flip_score_bit] set, the first verdict that
   reaches a reference comparison has the lowest bit of its score flipped,
   and the run must then fail. *)
let flip_score_bit = ref false

let observed (v : Detector.verdict) =
  if !flip_score_bit then begin
    flip_score_bit := false;
    {
      v with
      Detector.best_score = Int64.float_of_bits (Int64.logxor (bits v.Detector.best_score) 1L);
    }
  end
  else v

let expect_same ~what ~expected got =
  if not (same_verdict expected got) then
    mismatch "%s: verdict %s, expected %s" what (show got) (show expected)

(* The oracle: the unpruned, unindexed linear scan. *)
let reference repo model =
  let c = Gen.config in
  Detector.classify ~threshold:c.Scaguard.Config.threshold ?alpha:c.Scaguard.Config.alpha
    ?band:c.Scaguard.Config.band ~prune:false repo model

(* A seeded sample of [n] indexes out of [0, len). *)
let sample ~seed ~n len =
  let a = Array.init len Fun.id in
  Sutil.Rng.shuffle_arr (Sutil.Rng.create (seed lxor 0x5eed)) a;
  Array.to_list (Array.sub a 0 (min n len))

(* F1 of "attack" against the generated labels, from (predicted, actual)
   pairs. *)
let f1 pairs =
  let cls b = if b then 1 else 0 in
  match Ml.Metrics.per_class ~classes:[ 1 ] (List.map (fun (p, a) -> (cls p, cls a)) pairs) with
  | [ attack ] -> attack.Ml.Metrics.c_f1
  | _ -> assert false

(* ---- spans --------------------------------------------------------------------- *)

(* Spans of the traced run, kept in memory and aggregated (or written with
   --spans-out) when the run ends.  [parent] is the enclosing span's layer,
   or "" for an op's root span; all spans of one op share [op] and [pass]. *)
type span = { op : int; pass : int; layer : string; parent : string; t0 : int64; dur_ms : float }

let spans : span list ref = ref []

let span ~op ~pass ?(parent = "op") layer f =
  let t0 = now () in
  let v = f () in
  let t1 = now () in
  spans := { op; pass; layer; parent; t0; dur_ms = ms_between t0 t1 } :: !spans;
  v

let root ~op ~pass f = span ~op ~pass ~parent:"" "op" f

let write_spans path =
  let oc = open_out path in
  List.iter
    (fun s ->
      Printf.fprintf oc
        "{\"op\":%d,\"pass\":%d,\"layer\":%S,\"parent\":%S,\"t0_ns\":%Ld,\"dur_ms\":%.6f}\n"
        s.op s.pass s.layer s.parent s.t0 s.dur_ms)
    (List.rev !spans);
  close_out oc

(* Aggregates the spans: (op, layer) -> (self ms, total ms) of each traced
   pass, where self is the layer's span time minus the spans it encloses.
   A layer entered several times in one op (a callback) is summed. *)
let span_times () =
  let total = Hashtbl.create 4096 and inner = Hashtbl.create 4096 in
  let add tbl k ms = Hashtbl.replace tbl k (ms +. Option.value (Hashtbl.find_opt tbl k) ~default:0.0) in
  List.iter
    (fun s ->
      add total (s.op, s.pass, s.layer) s.dur_ms;
      if s.parent <> "" then add inner (s.op, s.pass, s.parent) s.dur_ms)
    !spans;
  let per = Hashtbl.create 1024 in
  Hashtbl.iter
    (fun (op, pass, layer) ms ->
      let self = ms -. Option.value (Hashtbl.find_opt inner (op, pass, layer)) ~default:0.0 in
      Hashtbl.replace per (op, layer)
        ((self, ms) :: Option.value (Hashtbl.find_opt per (op, layer)) ~default:[]))
    total;
  per

(* Mean over [ops] of the per-op median across traced passes (0 for an op
   that never entered the layer). *)
let per_op_ms per ~ops ?(total = false) layer =
  mean
    (List.map
       (fun op ->
         match Hashtbl.find_opt per (op, layer) with
         | None -> 0.0
         | Some xs -> median (List.map (fun (s, t) -> if total then t else s) xs))
       ops)

(* ---- the where-the-time-goes table ---------------------------------------------- *)

(* Rows are (layer, ms per op); the remainder is the op time no row
   covers.  Layers plus remainder must match the traced op time within
   [tolerance]: measured rows are medians of per-op self times, which do
   not add exactly, and estimated rows (count x unit cost) can overshoot
   the span they are carved from. *)
let tolerance = 0.05

let where_time_goes ~title ~op_ms ~remainder rows =
  Printf.printf "where the time goes, %s (ms per op, traced op = %.3f ms)\n" title op_ms;
  let share ms = if op_ms > 0.0 then 100.0 *. ms /. op_ms else 0.0 in
  List.iter
    (fun (name, ms) -> Printf.printf "  %-34s %10.4f  %6.2f%%\n" name ms (share ms))
    rows;
  Printf.printf "  %-34s %10.4f  %6.2f%%\n" "(unattributed remainder)" remainder (share remainder);
  let sum = List.fold_left (fun acc (_, ms) -> acc +. ms) remainder rows in
  let gap = if op_ms > 0.0 then Float.abs (sum -. op_ms) /. op_ms else 0.0 in
  let negative = List.exists (fun (_, ms) -> ms < -.(tolerance *. op_ms)) rows in
  let below = remainder < -.(tolerance *. op_ms) in
  Printf.printf "  %-34s %10.4f  layers+remainder vs op: %.2f%% (tolerance %.0f%%)\n" "(sum)" sum
    (100.0 *. gap) (100.0 *. tolerance);
  if gap > tolerance || negative || below then
    mismatch "%s: layers plus remainder (%.4f ms) do not match the traced op time (%.4f ms)"
      title sum op_ms

(* ---- output ----------------------------------------------------------------------- *)

type metric = { name : string; value : float; unit_ : string }

let m name unit_ value = { name; value; unit_ }

(* Every value is printed with all its digits; the benchmark's numbers are
   always finite, and a non-finite one is a bug worth failing on. *)
let print_result ~correct ~attempted ~failed metrics =
  List.iter
    (fun x -> if not (Float.is_finite x.value) then mismatch "metric %s is not finite" x.name)
    metrics;
  let body =
    String.concat ", "
      (List.map
         (fun x -> Printf.sprintf "\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}" x.name x.value x.unit_)
         metrics)
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed body

(* ---- unit costs ------------------------------------------------------------------- *)

(* Unit costs timed on a seeded sample of the workload's own (target,
   repository model) summary pairs, outside the timed passes: the DP by a
   full [compare_summaries] with no cutoff divided by the cells it
   computes, one [lower_bound] evaluation, and one Levenshtein distance
   between two entries' interned tokens.  Returns ns per cell, per lower
   bound and per Levenshtein pair. *)
let unit_costs_once pairs =
  let c = Gen.config in
  let alpha = c.Scaguard.Config.alpha and band = c.Scaguard.Config.band in
  let ws = Scaguard.Dtw.workspace () and lev = Sutil.Levenshtein.workspace () in
  let dp_ms = ref 0.0 and cells = ref 0 and lb_ms = ref 0.0 and lbs = ref 0 in
  let lev_ms = ref 0.0 and levs = ref 0 in
  let reps = 16 in
  List.iter
    (fun (st, sp) ->
      let c0 = Scaguard.Dtw.cells_computed ws in
      let times =
        List.init 3 (fun _ ->
            snd (timed (fun () -> ignore (Scaguard.Dtw.compare_summaries ~ws ?band ?alpha st sp))))
      in
      dp_ms := !dp_ms +. median times;
      cells := !cells + ((Scaguard.Dtw.cells_computed ws - c0) / 3);
      let _, ms =
        timed (fun () ->
            for _ = 1 to reps do
              ignore (Sys.opaque_identity (Scaguard.Dtw.lower_bound ~ws ?alpha st sp))
            done)
      in
      lb_ms := !lb_ms +. ms;
      lbs := !lbs + reps;
      let ea = Scaguard.Model.entries_array (Scaguard.Dtw.summary_model st)
      and eb = Scaguard.Model.entries_array (Scaguard.Dtw.summary_model sp) in
      if Array.length ea > 0 && Array.length eb > 0 then
        for k = 0 to 7 do
          let a = ea.(k * 7 mod Array.length ea).Scaguard.Model.tokens
          and b = eb.(k * 5 mod Array.length eb).Scaguard.Model.tokens in
          let _, ms =
            timed (fun () ->
                for _ = 1 to reps do
                  ignore (Sys.opaque_identity (Sutil.Levenshtein.normalized_ints ~ws:lev a b))
                done)
          in
          lev_ms := !lev_ms +. ms;
          levs := !levs + reps
        done)
    pairs;
  let ns ms n = if n = 0 then 0.0 else ms *. 1e6 /. float n in
  (ns !dp_ms !cells, ns !lb_ms !lbs, ns !lev_ms !levs)

(* The unit costs are timed after every traced pass and the medians kept,
   so they come from the same phases of a host whose speed swings as the
   counts they multiply. *)
type unit_costs = { mutable samples : (float * float * float) list }

let unit_costs () = { samples = [] }
let time_unit_costs u pairs = u.samples <- unit_costs_once pairs :: u.samples

let unit_medians u =
  let pick f = median (List.map f u.samples) in
  (pick (fun (c, _, _) -> c), pick (fun (_, l, _) -> l), pick (fun (_, _, v) -> v))

(* The seeded pair sample the unit costs are timed on. *)
let pair_sample ~seed ~targets ~repo =
  let rng = Sutil.Rng.create (seed lxor 0xc057) in
  List.init 48 (fun _ ->
      ( Sutil.Rng.choose_arr rng targets,
        repo.(Sutil.Rng.int rng (Array.length repo)) ))

(* Engine counters of the traced ops, per pass. *)
type dtw_counts = {
  pairs : int;
  cells : int;
  cells_saved : int;
  pruned_lb : int;
  abandoned : int;
  lb_evals : int;
  nodes_visited : int;
  pruned_index : int;
}

let zero_counts =
  { pairs = 0; cells = 0; cells_saved = 0; pruned_lb = 0; abandoned = 0; lb_evals = 0;
    nodes_visited = 0; pruned_index = 0 }

let add_counts a b =
  {
    pairs = a.pairs + b.pairs;
    cells = a.cells + b.cells;
    cells_saved = a.cells_saved + b.cells_saved;
    pruned_lb = a.pruned_lb + b.pruned_lb;
    abandoned = a.abandoned + b.abandoned;
    lb_evals = a.lb_evals + b.lb_evals;
    nodes_visited = a.nodes_visited + b.nodes_visited;
    pruned_index = a.pruned_index + b.pruned_index;
  }

let ratio a b = if b = 0 then 0.0 else float a /. float b

(* The detector/DTW/index metrics every workload reports. *)
let dtw_metrics ~classify_ms ~unit:(ns_cell, ns_lb, ns_lev) c =
  let started = c.pairs - c.pruned_lb - c.pruned_index in
  [
    m "detector.classify_ms" "ms" classify_ms;
    m "detector.pairs" "count" (float c.pairs);
    m "dtw.cells" "count" (float c.cells);
    m "dtw.cells_saved" "count" (float c.cells_saved);
    m "dtw.pairs_pruned_lb" "count" (float c.pruned_lb);
    m "dtw.pairs_abandoned" "count" (float c.abandoned);
    m "dtw.dp_completed_ratio" "ratio" (ratio (started - c.abandoned) started);
    m "dtw.ns_per_cell" "ns" ns_cell;
    m "dtw.ns_per_lb_eval" "ns" ns_lb;
    m "levenshtein.ns_per_pair" "ns" ns_lev;
    m "vpindex.nodes_visited" "count" (float c.nodes_visited);
    m "vpindex.pairs_pruned" "count" (float c.pruned_index);
    m "detector.lb_evals" "count" (float c.lb_evals);
    m "detector.visited_ratio" "ratio" (ratio c.lb_evals c.pairs);
  ]

let gc_metrics ~ops (p : passes) =
  let n = float (List.length p.pass_ms) in
  [
    m "gc.minor_words_per_op" "words" (p.minor_words /. (n *. float ops));
    m "gc.minor_collections" "count" (float p.minor_gcs /. n);
    m "gc.major_collections" "count" (float p.major_gcs /. n);
  ]
