type cache_stats = { dir : string; hits : int; misses : int; stale : int }
type timing = { stage : string; wall_s : float; cpu_s : float }

type report = {
  built : int;
  classified : int;
  cache : cache_stats option;
  engine : Engine.stats option;
  timings : timing list;
  latency : Obs.latency option;
}

let version = "1.0.0"

(* ---- the books -------------------------------------------------------------- *)

(* The engine counters every exposition carries, in exposition order: the
   series, its HELP text, the stats verb's key and the Engine.stats field. *)
let engine_counters =
  [|
    ( "scaguard_engine_targets_total",
      "Target models classified.",
      "targets",
      fun (s : Engine.stats) -> s.Engine.targets );
    ( "scaguard_engine_pairs_total",
      "Model pairs considered (targets x repository).",
      "pairs",
      fun s -> s.Engine.pairs );
    ( "scaguard_engine_dp_cells_total",
      "DTW DP cells computed.",
      "cells",
      fun s -> s.Engine.cells );
    ( "scaguard_engine_pairs_pruned_lb_total",
      "Pairs skipped without DP: a lower bound proved them irrelevant.",
      "pairs_pruned_lb",
      fun s -> s.Engine.pairs_pruned_lb );
    ( "scaguard_engine_pairs_abandoned_total",
      "Pairs whose DP was cut short by the cutoff.",
      "pairs_abandoned",
      fun s -> s.Engine.pairs_abandoned );
    ( "scaguard_engine_dp_cells_saved_total",
      "DP cells pruning avoided.",
      "cells_saved",
      fun s -> s.Engine.cells_saved );
    ( "scaguard_engine_lb_evals_total",
      "Lower-bound evaluations (the work the repository index shrinks).",
      "lb_evals",
      fun s -> s.Engine.lb_evals );
    ( "scaguard_engine_pairs_pruned_index_total",
      "Pairs skipped by the repository index before any lower bound ran.",
      "pairs_pruned_index",
      fun s -> s.Engine.pairs_pruned_index );
    ( "scaguard_engine_index_nodes_visited_total",
      "Repository-index tree nodes expanded during search.",
      "index_nodes_visited",
      fun s -> s.Engine.nodes_visited );
  |]

(* Plain mutable ints, written by one domain: folding a report allocates
   nothing once each stage it names has a histogram. *)
type books = {
  cache_of : Model_cache.t option;
  mutable batches : int;
  mutable builds : int;
  engine : int array;  (* indexed like [engine_counters] *)
  mutable hits : int;
  mutable misses : int;
  mutable stale : int;
  mutable stages : (string * Obs.Hist.t) list;  (* newest stage first *)
  lat : Obs.latency;
}

let books cache_of =
  {
    cache_of;
    batches = 0;
    builds = 0;
    engine = Array.make (Array.length engine_counters) 0;
    hits = 0;
    misses = 0;
    stale = 0;
    stages = [];
    lat = Obs.new_latency ();
  }

let stage_hist b stage =
  match List.assoc stage b.stages with
  | h -> h
  | exception Not_found ->
    let h = Obs.Hist.create () in
    b.stages <- (stage, h) :: b.stages;
    h

let rec fold_timings b = function
  | [] -> ()
  | t :: rest ->
    Obs.Hist.observe_s (stage_hist b t.stage) t.wall_s;
    fold_timings b rest

let fold b r =
  b.builds <- b.builds + r.built;
  (match r.engine with
  | None -> ()
  | Some s ->
    b.batches <- b.batches + 1;
    for i = 0 to Array.length engine_counters - 1 do
      let _, _, _, get = engine_counters.(i) in
      b.engine.(i) <- b.engine.(i) + get s
    done);
  (match r.cache with
  | None -> ()
  | Some c ->
    b.hits <- b.hits + c.hits;
    b.misses <- b.misses + c.misses;
    b.stale <- b.stale + c.stale);
  fold_timings b r.timings;
  match r.latency with None -> () | Some l -> Obs.add_latency ~into:b.lat l

let counts b =
  ("models_built", b.builds)
  :: Array.to_list
       (Array.mapi (fun i (_, _, key, _) -> (key, b.engine.(i))) engine_counters)

let series b =
  let counter name help v = Obs.Prom.series ~labels:[] ~help name (Counter v) in
  let histogram ~labels name help h =
    Obs.Prom.series ~labels ~help name (Histogram (Obs.Hist.value h))
  in
  let hits, misses, stale =
    match b.cache_of with
    | Some c -> (Model_cache.hits c, Model_cache.misses c, Model_cache.stale c)
    | None -> (b.hits, b.misses, b.stale)
  in
  (counter "scaguard_engine_batches_total" "Batch classification runs."
     b.batches
  :: Array.to_list
       (Array.mapi
          (fun i (name, help, _, _) -> counter name help b.engine.(i))
          engine_counters))
  @ [
      counter "scaguard_models_built_total"
        "CST-BBS models built (cache hits not included)." b.builds;
      counter "scaguard_cache_hits_total" "Model cache hits." hits;
      counter "scaguard_cache_misses_total" "Model cache misses." misses;
      counter "scaguard_cache_stale_total"
        "Model cache entries dropped as corrupt." stale;
      histogram ~labels:[] "scaguard_dtw_pair_seconds"
        "Per-pair DTW scoring latency (mean across one verdict's pairs)."
        b.lat.dtw_pair;
      histogram ~labels:[] "scaguard_model_build_seconds"
        "Per-model build latency (execute + identify + graph + measure)."
        b.lat.model_build;
      histogram ~labels:[] "scaguard_verdict_seconds"
        "End-to-end per-target classification latency." b.lat.verdict;
    ]
  @ List.rev_map
      (fun (stage, h) ->
        histogram ~labels:[ ("stage", stage) ] "scaguard_stage_seconds"
          "Wall-clock latency of one pipeline stage." h)
      b.stages

let identity ~uptime_s =
  [
    Obs.Prom.series
      ~labels:
        [
          ("version", version);
          ("format_version", string_of_int Persist.bin_version);
        ]
      ~help:
        "Build identity of this process (CLI version and binary repository \
         format version as labels); the value is always 1."
      "scaguard_build_info" (Gauge 1.0);
    Obs.Prom.series ~labels:[]
      ~help:"Seconds this process has been up, on the monotonic clock."
      "scaguard_uptime_seconds" (Gauge uptime_s);
  ]

(* A report's own series, sorted by (name, labels): present iff the run
   had metrics on. *)
let report_series r =
  match r.latency with
  | None -> None
  | Some _ ->
    let b = books None in
    fold b r;
    Some
      (List.sort
         (fun (x : Obs.Prom.series) (y : Obs.Prom.series) ->
           compare (x.name, x.labels) (y.name, y.labels))
         (series b))

(* ---- rendering -------------------------------------------------------------- *)

let fsec s = Printf.sprintf "%.4f" s

let label_suffix = function
  | [] -> ""
  | labels ->
    "{"
    ^ String.concat ","
        (List.map (fun (k, v) -> Printf.sprintf "%s=%s" k v) labels)
    ^ "}"

let timings_table timings =
  let t = Sutil.Table.create ~title:"stages" [ "stage"; "wall (s)"; "cpu (s)" ] in
  List.iter
    (fun tm -> Sutil.Table.add_row t [ tm.stage; fsec tm.wall_s; fsec tm.cpu_s ])
    timings;
  t

let counters_table r =
  let t = Sutil.Table.create ~title:"counters" [ "counter"; "value" ] in
  let row name v = Sutil.Table.add_row t [ name; v ] in
  let int_row name v = row name (string_of_int v) in
  int_row "models built" r.built;
  int_row "targets classified" r.classified;
  (match r.engine with
  | None -> ()
  | Some (s : Engine.stats) ->
    Sutil.Table.add_separator t;
    int_row "engine domains" s.Engine.domains;
    int_row "engine pairs" s.Engine.pairs;
    int_row "engine DP cells" s.Engine.cells;
    int_row "pairs pruned (lower bound)" s.Engine.pairs_pruned_lb;
    int_row "pairs abandoned (cutoff)" s.Engine.pairs_abandoned;
    int_row "DP cells saved" s.Engine.cells_saved;
    int_row "lower bounds evaluated" s.Engine.lb_evals;
    int_row "pairs pruned (index)" s.Engine.pairs_pruned_index;
    int_row "index nodes visited" s.Engine.nodes_visited;
    row "engine utilization" (Sutil.Table.pct (Engine.utilization s));
    row "engine throughput (pairs/s)"
      (Printf.sprintf "%.0f" (Engine.throughput s)));
  (match r.cache with
  | None -> ()
  | Some c ->
    Sutil.Table.add_separator t;
    int_row "cache hits" c.hits;
    int_row "cache misses" c.misses;
    int_row "cache stale" c.stale);
  t

let latency_table series =
  let hists =
    List.filter_map
      (fun (s : Obs.Prom.series) ->
        match s.value with
        | Histogram h when h.count > 0 -> Some (s, h)
        | _ -> None)
      series
  in
  match hists with
  | [] -> None
  | hists ->
    let t =
      Sutil.Table.create ~title:"latency"
        [ "histogram"; "count"; "p50 (s)"; "p90 (s)"; "p99 (s)" ]
    in
    List.iter
      (fun ((s : Obs.Prom.series), (h : Obs.Prom.hist)) ->
        let q p =
          Sutil.Stats.percentile_of_buckets ~bounds:h.bounds ~counts:h.counts p
        in
        Sutil.Table.add_row t
          [
            s.name ^ label_suffix s.labels;
            string_of_int h.count;
            Printf.sprintf "%.2e" (q 0.5);
            Printf.sprintf "%.2e" (q 0.9);
            Printf.sprintf "%.2e" (q 0.99);
          ])
      hists;
    Some t

let pp_report ppf r =
  let open Format in
  let tables =
    [ timings_table r.timings; counters_table r ]
    @ (match report_series r with
      | None -> []
      | Some series -> Option.to_list (latency_table series))
  in
  fprintf ppf "@[<v>";
  List.iteri
    (fun i t ->
      if i > 0 then fprintf ppf "@,";
      (* Table renders with trailing newline-free lines; split so the
         formatter owns line breaks. *)
      let lines = String.split_on_char '\n' (Sutil.Table.render t) in
      List.iteri
        (fun j line ->
          if j > 0 then fprintf ppf "@,";
          pp_print_string ppf line)
        lines)
    tables;
  fprintf ppf "@]"

(* ---- JSON report ------------------------------------------------------------ *)

let report_to_json r =
  let num f = Json.Num f and int n = Json.Num (float_of_int n) in
  let labels = function
    | [] -> []
    | ls -> [ ("labels", Json.Obj (List.map (fun (k, v) -> (k, Json.Str v)) ls)) ]
  in
  let metric (s : Obs.Prom.series) =
    let value =
      match s.value with
      | Counter v -> [ ("value", int v) ]
      | Gauge v -> [ ("value", num v) ]
      | Histogram h ->
        let bucket i c =
          let le =
            if i < Array.length h.bounds then num h.bounds.(i)
            else Json.Str "+Inf"
          in
          Json.Obj [ ("le", le); ("count", int c) ]
        in
        [
          ("count", int h.count);
          ("sum", num h.sum);
          ("buckets", Json.List (Array.to_list (Array.mapi bucket h.counts)));
        ]
    in
    Json.Obj ((("name", Json.Str s.name) :: labels s.labels) @ value)
  in
  let optional key f = function None -> [] | Some v -> [ (key, f v) ] in
  Json.Obj
    ([
       ("built", int r.built);
       ("classified", int r.classified);
       ( "timings",
         Json.List
           (List.map
              (fun (t : timing) ->
                Json.Obj
                  [
                    ("stage", Json.Str t.stage);
                    ("wall_s", num t.wall_s);
                    ("cpu_s", num t.cpu_s);
                  ])
              r.timings) );
     ]
    @ optional "cache"
        (fun c ->
          Json.Obj
            [
              ("dir", Json.Str c.dir);
              ("hits", int c.hits);
              ("misses", int c.misses);
              ("stale", int c.stale);
            ])
        r.cache
    @ optional "engine"
        (fun (s : Engine.stats) ->
          Json.Obj
            [
              ("domains", int s.Engine.domains);
              ("targets", int s.Engine.targets);
              ("pairs", int s.Engine.pairs);
              ("cells", int s.Engine.cells);
              ("pairs_pruned_lb", int s.Engine.pairs_pruned_lb);
              ("pairs_abandoned", int s.Engine.pairs_abandoned);
              ("cells_saved", int s.Engine.cells_saved);
              ("lb_evals", int s.Engine.lb_evals);
              ("pairs_pruned_index", int s.Engine.pairs_pruned_index);
              ("nodes_visited", int s.Engine.nodes_visited);
              ("wall_s", num s.Engine.wall_s);
              ("cpu_s", num s.Engine.cpu_s);
              ( "per_worker",
                Json.List (Array.to_list (Array.map int s.Engine.per_worker)) );
            ])
        r.engine
    @ optional "metrics"
        (fun series -> Json.List (List.map metric series))
        (report_series r))

(* ---- stages ----------------------------------------------------------------- *)

let ( let* ) = Result.bind

(* Stage timing reads the monotonic clock (Obs.Clock) — the one clock the
   whole stack uses — so a wall-clock step (NTP, suspend) can never produce
   a negative or wildly wrong stage duration.  When [obs] traces, the stage
   also lands as a coarse stage:<name> span. *)
let timed ~obs stage f =
  let w0 = Obs.Clock.now_ns () and c0 = Sys.time () in
  let v = f () in
  let dur_ns = Obs.Clock.elapsed_ns ~since:w0 in
  let wall_s = Obs.Clock.ns_to_s dur_ns in
  if Obs.tracing obs then
    Obs.emit_span obs ~cat:"stage" ~name:("stage:" ^ stage) ~ts_ns:w0
      ~dur_ns ();
  ({ stage; wall_s; cpu_s = Sys.time () -. c0 }, v)

let cache_of_config (config : Config.t) =
  match config.Config.cache_dir with
  | None -> Ok None
  | Some dir -> Result.map Option.some (Model_cache.create ~dir ())

(* A cache's counters now: the baseline a run's report subtracts, so a
   cache that outlives the run (the server's) still reports this run's
   lookups only. *)
let cache_counts c =
  (Model_cache.hits c, Model_cache.misses c, Model_cache.stale c)

(* A run's report: counts, the cache's counters since [cache]'s baseline
   (reported when the cache has a disk tier), the engine's stats, and the
   run's latency records — empty ones, when [obs] has metrics on, for a
   run that times nothing beyond its stage.  [built] counts the models
   obtained; those the cache served since its baseline are not builds. *)
let report ~obs ?(built = 0) ?(classified = 0) ?cache ?engine ?latency timings
    =
  {
    built =
      (match cache with
      | None -> built
      | Some (c, (hits, _, _)) -> built - (Model_cache.hits c - hits));
    classified;
    cache =
      Option.bind cache (fun (c, (hits, misses, stale)) ->
          Option.map
            (fun dir ->
              {
                dir;
                hits = Model_cache.hits c - hits;
                misses = Model_cache.misses c - misses;
                stale = Model_cache.stale c - stale;
              })
            (Model_cache.dir c));
    engine;
    timings;
    latency =
      (match latency with None -> Obs.merge_latency obs [||] | l -> l);
  }

(* The config's index policy as a Vpindex build spec; [None] means linear.
   The construction seed comes from the salt, so two operators with the same
   config and repository get byte-identical indexes. *)
let spec_of_config (config : Config.t) =
  let spec mode =
    {
      Vpindex.default_spec with
      Vpindex.mode;
      seed = Vpindex.seed_of_salt config.Config.salt;
    }
  in
  match config.Config.index with
  | Config.Index_off -> None
  | Config.Index_auto -> Some (spec Vpindex.Auto)
  | Config.Index_vp -> Some (spec Vpindex.Force)

(* Jobs inherit the config's execution settings and salt unless they carry
   their own.  Filling in the explicit defaults is key-neutral: both
   [Cst.measure] and [Model_cache.key] normalize an omitted settings/config
   to the same defaults, so models and cache keys stay byte-identical to the
   pre-service composition. *)
let resolve_job (config : Config.t) (j : Pipeline.job) =
  {
    j with
    Pipeline.settings =
      Some (Option.value j.Pipeline.settings ~default:config.Config.exec);
    salt = (if j.Pipeline.salt = "" then config.Config.salt else j.Pipeline.salt);
  }

let build_stage ~obs (config : Config.t) cache jobs =
  let jobs = Array.map (resolve_job config) jobs in
  timed ~obs "build" (fun () ->
      Pipeline.build_models_batch ~obs ?domains:config.Config.domains ?cache
        ?max_paths:config.Config.max_paths ?max_len:config.Config.max_len
        ~cst_config:config.Config.cst_config jobs)

let build ?(obs = Obs.off) config jobs =
  let* config = Config.validate config in
  let* cache = cache_of_config config in
  let baseline = Option.map (fun c -> (c, cache_counts c)) cache in
  let timing, (models, latency) = build_stage ~obs config cache jobs in
  Ok
    ( models,
      report ~obs ~built:(Array.length models) ?cache:baseline ?latency
        [ timing ] )

let detect_stage ~obs ?explain (config : Config.t) prep targets =
  timed ~obs "detect" (fun () ->
      Engine.classify_batch ~obs ~threshold:config.Config.threshold
        ?alpha:config.Config.alpha ?band:config.Config.band
        ?domains:config.Config.domains ~prune:config.Config.prune ?explain prep
        targets)

let detect_prepared ?(obs = Obs.off) config prep targets =
  let* config = Config.validate config in
  if Detector.prepared_size prep = 0 then Error Err.Empty_repository
  else
    let timing, (verdicts, _, stats) = detect_stage ~obs config prep targets in
    let classified = Array.length targets in
    Ok
      ( verdicts,
        report ~obs ~classified ~engine:stats ?latency:stats.Engine.latency
          [ timing ] )

(* ---- repository IO ----------------------------------------------------------- *)

let prepare config repo =
  let* config = Config.validate config in
  Ok (Detector.prepare ?index:(spec_of_config config) repo)

let save_repository ?(obs = Obs.off) config ~path repo =
  let* config = Config.validate config in
  let timing, result =
    timed ~obs "save" (fun () ->
        match config.Config.repo_format with
        | Config.Text -> Persist.save_repository_result ~path repo
        | Config.Binary ->
          (* binary images embed the repository index so loads skip the
             rebuild; the text format has no index section *)
          let index =
            Option.bind (spec_of_config config) (fun spec ->
                Detector.prepared_index (Detector.prepare ~index:spec repo))
          in
          Persist.save_repository_bin_result ?index ~path repo)
  in
  let* () = result in
  Ok (report ~obs [ timing ])

(* With [config], the loaded repository honours the config's index policy:
   an index embedded in the image is kept (Auto/Vp) or dropped (Off), and a
   missing one is built here.  Without [config] the file decides — exactly
   the pre-index behaviour for text files and index-free images. *)
let load_repository ?(obs = Obs.off) ?config ~path () =
  let timing, result =
    timed ~obs "load" (fun () -> Persist.load_repository_prepared_result ~path)
  in
  let* repo, prep = result in
  let* prep =
    match config with
    | None -> Ok prep
    | Some config ->
      let* config = Config.validate config in
      Ok
        (match spec_of_config config with
        | None -> Detector.attach_index prep None
        | Some spec -> (
          match Detector.prepared_index prep with
          | Some _ -> prep
          | None ->
            Detector.attach_index prep
              (Vpindex.build spec (Detector.prepared_summaries prep))))
  in
  Ok (repo, prep, report ~obs [ timing ])

(* Without [cache] the run opens the config's own (a fresh disk tier per
   call when [cache_dir] is set, else none — no key is computed). *)
let screen ?(obs = Obs.off) ?cache ?explain config prep jobs =
  let* config = Config.validate config in
  if Detector.prepared_size prep = 0 then Error Err.Empty_repository
  else
    let* cache =
      match cache with Some c -> Ok (Some c) | None -> cache_of_config config
    in
    let baseline = Option.map (fun c -> (c, cache_counts c)) cache in
    let build_timing, (models, build_latency) =
      build_stage ~obs config cache jobs
    in
    let detect_timing, (verdicts, records, stats) =
      detect_stage ~obs ?explain config prep models
    in
    (match (build_latency, stats.Engine.latency) with
    | Some into, Some l -> Obs.add_latency ~into l
    | _ -> ());
    let n = Array.length models in
    Ok
      ( models,
        verdicts,
        report ~obs ~built:n ~classified:n ?cache:baseline ~engine:stats
          ?latency:build_latency
          [ build_timing; detect_timing ],
        records )

let screen_prepared ?obs ?cache config prep jobs =
  let* models, verdicts, report, _ = screen ?obs ?cache config prep jobs in
  Ok (models, verdicts, report)

let explain ?obs ?cache config prep jobs =
  screen ?obs ?cache ~explain:true config prep jobs
