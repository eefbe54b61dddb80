(* The service facade: Config round-trips and validation, Err taxonomy, and
   the core guarantee that Service.build / Service.detect_prepared add no behaviour —
   byte-identical models, bit-identical verdicts — over the manual
   Pipeline + Engine composition. *)

module SG = Scaguard

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

let with_tmp_dir f =
  let dir = Filename.temp_file "scaguard_service" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      if Sys.file_exists dir then (
        Array.iter
          (fun n -> Sys.remove (Filename.concat dir n))
          (Sys.readdir dir);
        Unix.rmdir dir))
    (fun () -> f dir)

let ok_exn = function
  | Ok v -> v
  | Error e -> Alcotest.failf "unexpected error: %s" (SG.Err.to_string e)

(* -- Config generator: arbitrary *valid* configs --------------------------- *)

let config_gen : SG.Config.t QCheck.Gen.t =
  let open QCheck.Gen in
  let line_string =
    string_size ~gen:(char_range ' ' '~') (int_range 0 12)
  in
  let* threshold = float_range 0.0 1.0 in
  let* alpha = opt (float_range 0.0 1.0) in
  let* band = opt (int_range 0 40) in
  let* prune = bool in
  let* max_paths = opt (int_range 1 64) in
  let* max_len = opt (int_range 1 64) in
  let* sets = int_range 1 128 in
  let* ways = int_range 1 8 in
  let* line_bits = int_range 1 8 in
  let* spec_window = int_range 0 300 in
  let* quantum = int_range 1 200 in
  let* victim_quantum = int_range 1 200 in
  let* fuel = int_range 1 1_000_000 in
  let* protected_range =
    opt
      (let* lo = int_range 0 4096 in
       let* len = int_range 0 4096 in
       return (lo, lo + len))
  in
  let* domains = opt (int_range 1 8) in
  let* cache_dir = opt line_string in
  let* salt = line_string in
  let* repo_format = oneofl [ SG.Config.Text; SG.Config.Binary ] in
  let* index =
    oneofl [ SG.Config.Index_off; SG.Config.Index_auto; SG.Config.Index_vp ]
  in
  let* ensemble_tau = float_range 0.0 8.0 in
  let* log_level =
    oneofl [ SG.Log.Debug; SG.Log.Info; SG.Log.Warn; SG.Log.Error ]
  in
  return
    {
      SG.Config.threshold;
      alpha;
      band;
      prune;
      max_paths;
      max_len;
      cst_config = { Cache.Config.sets; ways; line_bits };
      exec =
        { Cpu.Exec.spec_window; quantum; victim_quantum; fuel; protected_range };
      domains;
      cache_dir;
      salt;
      repo_format;
      index;
      ensemble_tau;
      log_level;
    }

let config_arb =
  QCheck.make ~print:(fun c -> SG.Config.to_string c) config_gen

let prop_config_roundtrip =
  QCheck.Test.make ~name:"config to_string/of_string round-trips" ~count:300
    config_arb (fun c ->
      match SG.Config.of_string (SG.Config.to_string c) with
      | Ok c' -> c' = c
      | Error e -> QCheck.Test.fail_reportf "%s" (SG.Err.to_string e))

(* -- Config validation ------------------------------------------------------ *)

let field_of = function
  | Error (SG.Err.Invalid_config { field; _ }) -> field
  | Ok _ -> Alcotest.fail "expected Invalid_config, got Ok"
  | Error e -> Alcotest.failf "expected Invalid_config, got %s" (SG.Err.to_string e)

let test_config_validate_rejects () =
  let d = SG.Config.default in
  check_string "nan threshold" "threshold"
    (field_of (SG.Config.validate { d with SG.Config.threshold = Float.nan }));
  check_string "threshold > 1" "threshold"
    (field_of (SG.Config.validate { d with SG.Config.threshold = 1.5 }));
  check_string "negative alpha" "alpha"
    (field_of (SG.Config.validate { d with SG.Config.alpha = Some (-0.1) }));
  check_string "negative band" "band"
    (field_of (SG.Config.validate { d with SG.Config.band = Some (-1) }));
  check_string "zero max_paths" "max_paths"
    (field_of (SG.Config.validate { d with SG.Config.max_paths = Some 0 }));
  check_string "zero domains" "domains"
    (field_of (SG.Config.validate { d with SG.Config.domains = Some 0 }));
  check_string "zero-way probe cache" "cst_ways"
    (field_of
       (SG.Config.validate
          {
            d with
            SG.Config.cst_config =
              { d.SG.Config.cst_config with Cache.Config.ways = 0 };
          }));
  (* under a zero line-size log2 a negative address's line stays negative,
     and the 61-set probe would index a negative set *)
  let line_bits n =
    field_of
      (SG.Config.validate
         {
           d with
           SG.Config.cst_config =
             { d.SG.Config.cst_config with Cache.Config.line_bits = n };
         })
  in
  check_string "zero line bits in the probe cache" "cst_line_bits"
    (line_bits 0);
  (* Cache.Config.make refuses a line above 64 KiB, and a shift by 64 is
     unspecified: both would silently change the CST scores *)
  check_string "17 line bits in the probe cache" "cst_line_bits"
    (line_bits 17);
  check_string "64 line bits in the probe cache" "cst_line_bits"
    (line_bits 64);
  check_string "zero fuel" "exec_fuel"
    (field_of
       (SG.Config.validate
          {
            d with
            SG.Config.exec = { d.SG.Config.exec with Cpu.Exec.fuel = 0 };
          }));
  check_string "inverted protected range" "exec_protected_range"
    (field_of
       (SG.Config.validate
          {
            d with
            SG.Config.exec =
              {
                d.SG.Config.exec with
                Cpu.Exec.protected_range = Some (10, 5);
              };
          }));
  check_string "newline in salt" "salt"
    (field_of (SG.Config.validate { d with SG.Config.salt = "a\nb" }));
  check_string "negative ensemble tau" "ensemble_tau"
    (field_of (SG.Config.validate { d with SG.Config.ensemble_tau = -0.5 }));
  check_string "nan ensemble tau" "ensemble_tau"
    (field_of
       (SG.Config.validate { d with SG.Config.ensemble_tau = Float.nan }));
  (* the checkers report the caller-chosen field name (CLI flags) *)
  check_string "flag name override" "--threshold"
    (field_of (SG.Config.check_threshold ~field:"--threshold" 2.0));
  (* exit-code taxonomy: config errors are usage errors *)
  check_int "config errors exit 1" 1
    (SG.Err.exit_code
       (SG.Err.Invalid_config { field = "x"; value = "y"; expected = "z" }));
  check_int "parse errors exit 2" 2
    (SG.Err.exit_code (SG.Err.Parse { file = None; line = None; msg = "m" }))

let parse_line = function
  | Error (SG.Err.Parse { line; _ }) -> line
  | Ok _ -> Alcotest.fail "expected Parse error, got Ok"
  | Error e -> Alcotest.failf "expected Parse, got %s" (SG.Err.to_string e)

let test_config_of_string_errors () =
  Alcotest.(check (option int))
    "bad magic points at line 1" (Some 1)
    (parse_line (SG.Config.of_string "bogus\n"));
  Alcotest.(check (option int))
    "unknown key points at its line" (Some 4)
    (parse_line
       (SG.Config.of_string "scaguard-config 1\n# comment\nthreshold=0.5\nwat=1\n"));
  Alcotest.(check (option int))
    "bad number points at its line" (Some 2)
    (parse_line (SG.Config.of_string "scaguard-config 1\nthreshold=abc\n"));
  List.iter
    (fun (line, field) ->
      match SG.Config.of_string ("scaguard-config 1\n" ^ line ^ "\n") with
      | Error (SG.Err.Invalid_config { field = f; _ }) when f = field -> ()
      | r ->
        Alcotest.failf "expected Invalid_config %s, got %s" field
          (match r with Ok _ -> "Ok" | Error e -> SG.Err.to_string e))
    [
      ("threshold=2", "threshold");
      ("cst_line_bits=0", "cst_line_bits");
      ("cst_line_bits=17", "cst_line_bits");
      ("cst_line_bits=64", "cst_line_bits");
    ];
  (* comments, blank lines and omitted keys are fine *)
  let c =
    ok_exn
      (SG.Config.of_string
         "scaguard-config 1\n\n# tuned for the cluster\nthreshold=0.5\nband=3\n")
  in
  check_bool "parsed partial config" true
    (c
    = {
        SG.Config.default with
        SG.Config.threshold = 0.5;
        SG.Config.band = Some 3;
      });
  (* a config saved before the index leaf size and pivot count were retired
     (build-repo --save-config) still loads: both keys parse, change nothing *)
  let saved =
    "scaguard-config 1\nthreshold=0.59999999999999998\nprune=true\n\
     cst_sets=61\ncst_ways=2\ncst_line_bits=6\nexec_spec_window=48\n\
     exec_quantum=64\nexec_victim_quantum=64\nexec_fuel=2000000\n\
     salt=2026:FR-F,PP-F,S-FR,S-PP\nrepo_format=text\nindex=auto\n\
     index_leaf=16\nindex_pivots=5\nensemble_tau=2\nlog_level=info\n"
  in
  check_bool "retired index keys are ignored" true
    (ok_exn (SG.Config.of_string saved)
    = { SG.Config.default with SG.Config.salt = "2026:FR-F,PP-F,S-FR,S-PP" });
  Alcotest.(check (option int))
    "a retired key still needs an integer" (Some 2)
    (parse_line (SG.Config.of_string "scaguard-config 1\nindex_leaf=many\n"))

let test_config_save_load () =
  with_tmp_dir (fun dir ->
      let path = Filename.concat dir "run.conf" in
      let c =
        {
          SG.Config.default with
          SG.Config.threshold = 0.55;
          SG.Config.domains = Some 2;
          SG.Config.salt = "2026:FR-F";
        }
      in
      ok_exn (SG.Config.save ~path c);
      check_bool "load returns the saved config" true
        (ok_exn (SG.Config.load ~path) = c);
      (match SG.Config.load ~path:(Filename.concat dir "absent.conf") with
      | Error (SG.Err.Io _) -> ()
      | r ->
        Alcotest.failf "expected Io, got %s"
          (match r with Ok _ -> "Ok" | Error e -> SG.Err.to_string e));
      let garbage = Filename.concat dir "garbage.conf" in
      let oc = open_out garbage in
      output_string oc "scaguard-config 1\nthreshold=oops\n";
      close_out oc;
      match SG.Config.load ~path:garbage with
      | Error (SG.Err.Parse { file = Some f; line = Some 2; _ }) ->
        check_string "parse error names the file" garbage f
      | r ->
        Alcotest.failf "expected Parse with file+line, got %s"
          (match r with Ok _ -> "Ok" | Error e -> SG.Err.to_string e))

(* -- Service bit-identity --------------------------------------------------- *)

let job_of (spec : Workloads.Attacks.spec) =
  SG.Pipeline.job ?settings:spec.Workloads.Attacks.settings
    ~init:spec.Workloads.Attacks.init ?victim:spec.Workloads.Attacks.victim
    ~name:(Isa.Program.name spec.Workloads.Attacks.program)
    spec.Workloads.Attacks.program

let test_jobs () =
  [|
    job_of (Workloads.Attacks.flush_reload ~style:Workloads.Attacks.Iaik ());
    job_of (Workloads.Attacks.evict_reload ());
    job_of (Workloads.Attacks.prime_probe ~style:Workloads.Attacks.Mastik ());
  |]

let strings models = Array.map SG.Persist.model_to_string models

let test_build_identical () =
  let jobs = test_jobs () in
  let manual, _ = SG.Pipeline.build_models_batch jobs in
  let models, report = ok_exn (SG.Service.build SG.Config.default jobs) in
  check_bool "models byte-identical to the manual composition" true
    (strings manual = strings models);
  check_int "report counts the builds" (Array.length jobs)
    report.SG.Service.built;
  check_bool "no cache configured, no cache stats" true
    (report.SG.Service.cache = None)

let test_detect_identical () =
  let rng = Sutil.Rng.create 11 in
  let repo =
    Experiments.Common.repository ~rng
      [ Workloads.Label.Fr_family; Workloads.Label.Pp_family ]
  in
  let targets, _ = SG.Pipeline.build_models_batch (test_jobs ()) in
  let manual, _, _ =
    SG.Engine.classify_batch (SG.Detector.prepare repo) targets
  in
  let prep = ok_exn (SG.Service.prepare SG.Config.default repo) in
  let verdicts, report =
    ok_exn (SG.Service.detect_prepared SG.Config.default prep targets)
  in
  check_bool "verdicts bit-identical to the manual composition" true
    (manual = verdicts);
  check_int "report counts the targets" (Array.length targets)
    report.SG.Service.classified;
  match report.SG.Service.engine with
  | Some stats ->
    check_int "engine stats cover the batch" (Array.length targets)
      stats.SG.Engine.targets
  | None -> Alcotest.fail "detect report is missing engine stats"

let test_screen_composes () =
  let rng = Sutil.Rng.create 12 in
  let repo =
    Experiments.Common.repository ~rng [ Workloads.Label.Fr_family ]
  in
  let jobs = test_jobs () in
  let prep = ok_exn (SG.Service.prepare SG.Config.default repo) in
  let models, verdicts, report =
    ok_exn (SG.Service.screen_prepared SG.Config.default prep jobs)
  in
  let models', _ = ok_exn (SG.Service.build SG.Config.default jobs) in
  let verdicts', _ =
    ok_exn (SG.Service.detect_prepared SG.Config.default prep models')
  in
  check_bool "screen builds the same models" true
    (strings models = strings models');
  check_bool "screen reaches the same verdicts" true (verdicts = verdicts');
  check_int "screen reports both stages" 2
    (List.length report.SG.Service.timings)

let test_config_knobs_flow_through () =
  (* a non-default detection config must agree with the manual composition
     given the same knobs *)
  let config =
    {
      SG.Config.default with
      SG.Config.threshold = 0.4;
      SG.Config.alpha = Some 0.9;
      SG.Config.band = Some 6;
      SG.Config.prune = false;
      SG.Config.domains = Some 2;
    }
  in
  let rng = Sutil.Rng.create 13 in
  let repo =
    Experiments.Common.repository ~rng
      [ Workloads.Label.Fr_family; Workloads.Label.Spectre_fr ]
  in
  let targets, _ = SG.Pipeline.build_models_batch (test_jobs ()) in
  let manual, _, _ =
    SG.Engine.classify_batch ~threshold:0.4 ~alpha:0.9 ~band:6 ~domains:2
      ~prune:false (SG.Detector.prepare repo) targets
  in
  let prep = ok_exn (SG.Service.prepare config repo) in
  let verdicts, _ = ok_exn (SG.Service.detect_prepared config prep targets) in
  check_bool "knobbed verdicts identical" true (manual = verdicts)

let test_build_with_cache () =
  with_tmp_dir (fun dir ->
      let config =
        { SG.Config.default with SG.Config.cache_dir = Some dir } in
      let jobs = test_jobs () in
      let cold, cold_report = ok_exn (SG.Service.build config jobs) in
      let warm, warm_report = ok_exn (SG.Service.build config jobs) in
      check_bool "warm cache models byte-identical" true
        (strings cold = strings warm);
      match (cold_report.SG.Service.cache, warm_report.SG.Service.cache) with
      | Some c, Some w ->
        check_int "cold run misses every job" (Array.length jobs)
          c.SG.Service.misses;
        check_int "cold run hits nothing" 0 c.SG.Service.hits;
        check_int "warm run hits every job" (Array.length jobs)
          w.SG.Service.hits;
        check_int "warm run misses nothing" 0 w.SG.Service.misses
      | _ -> Alcotest.fail "cache_dir set but report has no cache stats")

let test_save_load_formats () =
  (* Service.save_repository honours config.repo_format (and, for a binary
     image, config.index); load_repository sniffs either format, keeps an
     embedded index, and detect_prepared on the loaded prepared repository
     reaches the same verdicts as the in-memory linear scan *)
  let rng = Sutil.Rng.create 14 in
  let repo =
    Experiments.Common.repository ~rng
      [ Workloads.Label.Fr_family; Workloads.Label.Pp_family ]
  in
  let targets, _ = SG.Pipeline.build_models_batch (test_jobs ()) in
  let reference, _ =
    ok_exn
      (SG.Service.detect_prepared SG.Config.default
         (ok_exn (SG.Service.prepare SG.Config.default repo))
         targets)
  in
  with_tmp_dir (fun dir ->
      List.iter
        (fun (fmt, index) ->
          let config =
            { SG.Config.default with SG.Config.repo_format = fmt; index }
          in
          let name =
            SG.Config.repo_format_to_string fmt
            ^ "-" ^ SG.Config.index_mode_to_string index
          in
          let path = Filename.concat dir ("r." ^ name) in
          let save_report = ok_exn (SG.Service.save_repository config ~path repo) in
          check_bool "save report has a save timing" true
            (List.exists
               (fun t -> t.SG.Service.stage = "save")
               save_report.SG.Service.timings);
          check_bool "format on disk matches the knob" true
            (SG.Persist.is_binary (SG.Persist.read_file ~path)
            = (fmt = SG.Config.Binary));
          let loaded, prep, load_report =
            ok_exn (SG.Service.load_repository ~path ())
          in
          check_int "load report builds nothing" 0 load_report.SG.Service.built;
          check_string "loaded repository byte-identical"
            (SG.Persist.repository_to_string repo)
            (SG.Persist.repository_to_string loaded);
          check_bool
            ("loaded index present iff forced (" ^ name ^ ")")
            (index = SG.Config.Index_vp)
            (SG.Detector.prepared_index prep <> None);
          let verdicts, _ =
            ok_exn (SG.Service.detect_prepared SG.Config.default prep targets)
          in
          let bits vs =
            Array.map (fun v -> Int64.bits_of_float v.SG.Detector.best_score) vs
          in
          check_bool ("loaded detect_prepared = in-memory (" ^ name ^ ")") true
            (verdicts = reference && bits verdicts = bits reference))
        [
          (SG.Config.Text, SG.Config.Index_auto);
          (SG.Config.Binary, SG.Config.Index_auto);
          (SG.Config.Binary, SG.Config.Index_vp);
        ])

(* -- Service error paths ---------------------------------------------------- *)

let test_service_error_paths () =
  let jobs = test_jobs () in
  (match
     SG.Service.build
       { SG.Config.default with SG.Config.threshold = Float.nan }
       jobs
   with
  | Error (SG.Err.Invalid_config { field = "threshold"; _ }) -> ()
  | Ok _ -> Alcotest.fail "NaN threshold accepted"
  | Error e -> Alcotest.failf "wrong error: %s" (SG.Err.to_string e));
  (match
     Result.bind (SG.Service.prepare SG.Config.default []) (fun prep ->
         SG.Service.detect_prepared SG.Config.default prep [||])
   with
  | Error SG.Err.Empty_repository -> ()
  | Ok _ -> Alcotest.fail "empty repository accepted"
  | Error e -> Alcotest.failf "wrong error: %s" (SG.Err.to_string e));
  (* a cache_dir that collides with an existing *file* cannot be created *)
  let file = Filename.temp_file "scaguard_service" ".notadir" in
  Fun.protect
    ~finally:(fun () -> Sys.remove file)
    (fun () ->
      match
        SG.Service.build
          { SG.Config.default with SG.Config.cache_dir = Some file }
          jobs
      with
      | Error (SG.Err.Invalid_config _ | SG.Err.Io _) -> ()
      | Ok _ -> Alcotest.fail "file as cache_dir accepted"
      | Error e -> Alcotest.failf "wrong error: %s" (SG.Err.to_string e))

(* -- Report JSON ------------------------------------------------------------- *)

(* A fixed report exercising every section: timings, cache, engine stats and
   the latency records, with strings that need escaping and floats that
   need all 17 digits.  Its metrics are its own series, derived from those
   values: counters from the engine stats, the cache counts and [built];
   one stage histogram per timing (labelled, with a +Inf bucket, on the
   shared ladder whose 0.1 edge takes 17 digits); and the three latency
   histograms.  The golden string pins the report's bytes — keys, order,
   escaping, number format — that --report-format json consumers read. *)
let golden_report =
  let latency = SG.Obs.new_latency () in
  List.iter (SG.Obs.Hist.observe_ns latency.SG.Obs.verdict) [ 1_500; 300_000_000 ];
  SG.Obs.Hist.observe_ns latency.SG.Obs.dtw_pair 250;
  List.iter
    (SG.Obs.Hist.observe_ns latency.SG.Obs.model_build)
    [ 2_000_000; 2_000_001; 12_000_000_000 ];
  {
    SG.Service.built = 3;
    classified = 2;
    cache =
      Some
        {
          SG.Service.dir = "/var/cache/\"sg\"\\models\n";
          hits = 1;
          misses = 2;
          stale = 4;
        };
    engine =
      Some
        {
          SG.Engine.domains = 2;
          targets = 2;
          pairs = 8;
          cells = 1234;
          pairs_pruned_lb = 3;
          pairs_abandoned = 1;
          cells_saved = 456;
          lb_evals = 8;
          nodes_visited = 5;
          pairs_pruned_index = 7;
          wall_s = 0.0125;
          cpu_s = 1.0 /. 3.0;
          per_worker = [| 1; 1 |];
          latency = None;
        };
    timings =
      [
        { SG.Service.stage = "build"; wall_s = 0.5; cpu_s = 0.75 };
        { SG.Service.stage = "detect"; wall_s = 2.0 /. 3.0; cpu_s = 1e-9 };
      ];
    latency = Some latency;
  }

let golden_report_json =
  String.concat ""
    [
      {|{"built":3,"classified":2,"timings":[{"stage":"build","wall_s":0.5,"cpu_s":0.75},{"stage":"detect","wall_s":0.66666666666666663,"cpu_s":1.0000000000000001e-09}],"cache":{"dir":"/var/cache/\"sg\"\\models\n","hits":1,"misses":2,"stale":4},"engine":{"domains":2,"targets":2,"pairs":8,"cells":1234,"pairs_pruned_lb":3,"pairs_abandoned":1,"cells_saved":456,"lb_evals":8,"pairs_pruned_index":7,"nodes_visited":5,"wall_s":0.012500000000000001,"cpu_s":0.33333333333333331,"per_worker":[1,1]},"metrics":[|};
      {|{"name":"scaguard_cache_hits_total","value":1},|};
      {|{"name":"scaguard_cache_misses_total","value":2},|};
      {|{"name":"scaguard_cache_stale_total","value":4},|};
      {|{"name":"scaguard_dtw_pair_seconds","count":1,"sum":2.4999999999999999e-07,"buckets":[{"le":9.9999999999999995e-07,"count":1},{"le":1.9999999999999999e-06,"count":0},{"le":5.0000000000000004e-06,"count":0},{"le":1.0000000000000001e-05,"count":0},{"le":2.0000000000000002e-05,"count":0},{"le":5.0000000000000002e-05,"count":0},{"le":0.0001,"count":0},{"le":0.00020000000000000001,"count":0},{"le":0.00050000000000000001,"count":0},{"le":0.001,"count":0},{"le":0.002,"count":0},{"le":0.0050000000000000001,"count":0},{"le":0.01,"count":0},{"le":0.02,"count":0},{"le":0.050000000000000003,"count":0},{"le":0.10000000000000001,"count":0},{"le":0.25,"count":0},{"le":0.5,"count":0},{"le":1,"count":0},{"le":2.5,"count":0},{"le":5,"count":0},{"le":10,"count":0},{"le":"+Inf","count":0}]},|};
      {|{"name":"scaguard_engine_batches_total","value":1},|};
      {|{"name":"scaguard_engine_dp_cells_saved_total","value":456},|};
      {|{"name":"scaguard_engine_dp_cells_total","value":1234},|};
      {|{"name":"scaguard_engine_index_nodes_visited_total","value":5},|};
      {|{"name":"scaguard_engine_lb_evals_total","value":8},|};
      {|{"name":"scaguard_engine_pairs_abandoned_total","value":1},|};
      {|{"name":"scaguard_engine_pairs_pruned_index_total","value":7},|};
      {|{"name":"scaguard_engine_pairs_pruned_lb_total","value":3},|};
      {|{"name":"scaguard_engine_pairs_total","value":8},|};
      {|{"name":"scaguard_engine_targets_total","value":2},|};
      {|{"name":"scaguard_model_build_seconds","count":3,"sum":12.004000001,"buckets":[{"le":9.9999999999999995e-07,"count":0},{"le":1.9999999999999999e-06,"count":0},{"le":5.0000000000000004e-06,"count":0},{"le":1.0000000000000001e-05,"count":0},{"le":2.0000000000000002e-05,"count":0},{"le":5.0000000000000002e-05,"count":0},{"le":0.0001,"count":0},{"le":0.00020000000000000001,"count":0},{"le":0.00050000000000000001,"count":0},{"le":0.001,"count":0},{"le":0.002,"count":1},{"le":0.0050000000000000001,"count":1},{"le":0.01,"count":0},{"le":0.02,"count":0},{"le":0.050000000000000003,"count":0},{"le":0.10000000000000001,"count":0},{"le":0.25,"count":0},{"le":0.5,"count":0},{"le":1,"count":0},{"le":2.5,"count":0},{"le":5,"count":0},{"le":10,"count":0},{"le":"+Inf","count":1}]},|};
      {|{"name":"scaguard_models_built_total","value":3},|};
      {|{"name":"scaguard_stage_seconds","labels":{"stage":"build"},"count":1,"sum":0.5,"buckets":[{"le":9.9999999999999995e-07,"count":0},{"le":1.9999999999999999e-06,"count":0},{"le":5.0000000000000004e-06,"count":0},{"le":1.0000000000000001e-05,"count":0},{"le":2.0000000000000002e-05,"count":0},{"le":5.0000000000000002e-05,"count":0},{"le":0.0001,"count":0},{"le":0.00020000000000000001,"count":0},{"le":0.00050000000000000001,"count":0},{"le":0.001,"count":0},{"le":0.002,"count":0},{"le":0.0050000000000000001,"count":0},{"le":0.01,"count":0},{"le":0.02,"count":0},{"le":0.050000000000000003,"count":0},{"le":0.10000000000000001,"count":0},{"le":0.25,"count":0},{"le":0.5,"count":1},{"le":1,"count":0},{"le":2.5,"count":0},{"le":5,"count":0},{"le":10,"count":0},{"le":"+Inf","count":0}]},|};
      {|{"name":"scaguard_stage_seconds","labels":{"stage":"detect"},"count":1,"sum":0.66666666699999999,"buckets":[{"le":9.9999999999999995e-07,"count":0},{"le":1.9999999999999999e-06,"count":0},{"le":5.0000000000000004e-06,"count":0},{"le":1.0000000000000001e-05,"count":0},{"le":2.0000000000000002e-05,"count":0},{"le":5.0000000000000002e-05,"count":0},{"le":0.0001,"count":0},{"le":0.00020000000000000001,"count":0},{"le":0.00050000000000000001,"count":0},{"le":0.001,"count":0},{"le":0.002,"count":0},{"le":0.0050000000000000001,"count":0},{"le":0.01,"count":0},{"le":0.02,"count":0},{"le":0.050000000000000003,"count":0},{"le":0.10000000000000001,"count":0},{"le":0.25,"count":0},{"le":0.5,"count":0},{"le":1,"count":1},{"le":2.5,"count":0},{"le":5,"count":0},{"le":10,"count":0},{"le":"+Inf","count":0}]},|};
      {|{"name":"scaguard_verdict_seconds","count":2,"sum":0.30000149999999998,"buckets":[{"le":9.9999999999999995e-07,"count":0},{"le":1.9999999999999999e-06,"count":1},{"le":5.0000000000000004e-06,"count":0},{"le":1.0000000000000001e-05,"count":0},{"le":2.0000000000000002e-05,"count":0},{"le":5.0000000000000002e-05,"count":0},{"le":0.0001,"count":0},{"le":0.00020000000000000001,"count":0},{"le":0.00050000000000000001,"count":0},{"le":0.001,"count":0},{"le":0.002,"count":0},{"le":0.0050000000000000001,"count":0},{"le":0.01,"count":0},{"le":0.02,"count":0},{"le":0.050000000000000003,"count":0},{"le":0.10000000000000001,"count":0},{"le":0.25,"count":0},{"le":0.5,"count":1},{"le":1,"count":0},{"le":2.5,"count":0},{"le":5,"count":0},{"le":10,"count":0},{"le":"+Inf","count":0}]}|};
      {|]}|};
    ]

let test_report_json_golden () =
  let json = SG.Service.report_to_json golden_report in
  check_string "report JSON matches the golden string" golden_report_json
    (SG.Json.to_string json);
  match SG.Json.parse golden_report_json with
  | Ok v -> check_bool "golden string parses to the same value" true (v = json)
  | Error m -> Alcotest.failf "golden string does not parse: %s" m

(* -- Persist result variants ------------------------------------------------ *)

let test_persist_parse_locations () =
  let spec = Workloads.Attacks.flush_reload ~style:Workloads.Attacks.Iaik () in
  let analysis =
    SG.Pipeline.run_and_analyze ~init:spec.Workloads.Attacks.init
      ?victim:spec.Workloads.Attacks.victim spec.Workloads.Attacks.program
  in
  let repo =
    [ { SG.Detector.family = "FR-F"; model = analysis.SG.Pipeline.model } ]
  in
  let s = SG.Persist.repository_to_string repo in
  (* truncate mid-model: drop everything from the last 2 lines *)
  let lines = String.split_on_char '\n' s in
  let keep = List.filteri (fun i _ -> i < List.length lines - 3) lines in
  let truncated = String.concat "\n" keep in
  (match SG.Persist.repository_of_string_result truncated with
  | Error (SG.Err.Parse { line = Some n; _ }) ->
    check_bool "truncation reported near the end" true
      (n >= List.length keep - 1)
  | Ok _ -> Alcotest.fail "truncated repository parsed"
  | Error e -> Alcotest.failf "wrong error: %s" (SG.Err.to_string e));
  (* a corrupted line is reported with its exact 1-based number *)
  let is_cst l = String.length l >= 4 && String.sub l 0 4 = "cst " in
  let cst_line =
    1 + Option.get (List.find_index is_cst lines)
  in
  let corrupted =
    lines
    |> List.mapi (fun i l -> if i + 1 = cst_line then "cst wat" else l)
    |> String.concat "\n"
  in
  (match SG.Persist.repository_of_string_result corrupted with
  | Error (SG.Err.Parse { line = Some n; _ }) when n = cst_line -> ()
  | Error (SG.Err.Parse { line; _ }) ->
    Alcotest.failf "wrong line: %s (expected %d)"
      (match line with Some n -> string_of_int n | None -> "none")
      cst_line
  | Ok _ -> Alcotest.fail "corrupt repository parsed"
  | Error e -> Alcotest.failf "wrong error: %s" (SG.Err.to_string e));
  with_tmp_dir (fun dir ->
      (* on-disk loads label errors with the path *)
      let path = Filename.concat dir "trunc.repo" in
      let oc = open_out path in
      output_string oc truncated;
      close_out oc;
      (match SG.Persist.load_repository_prepared_result ~path with
      | Error (SG.Err.Parse { file = Some f; line = Some _; _ }) ->
        check_string "parse error names the file" path f
      | r ->
        Alcotest.failf "expected Parse with file, got %s"
          (match r with Ok _ -> "Ok" | Error e -> SG.Err.to_string e));
      (* and a missing file is Io, not Parse *)
      match
        SG.Persist.load_repository_prepared_result
          ~path:(Filename.concat dir "missing.repo")
      with
      | Error (SG.Err.Io _) -> ()
      | r ->
        Alcotest.failf "expected Io, got %s"
          (match r with Ok _ -> "Ok" | Error e -> SG.Err.to_string e))

let () =
  Alcotest.run "service"
    [
      ( "config",
        [
          QCheck_alcotest.to_alcotest prop_config_roundtrip;
          Alcotest.test_case "validate rejects bad fields" `Quick
            test_config_validate_rejects;
          Alcotest.test_case "of_string error locations" `Quick
            test_config_of_string_errors;
          Alcotest.test_case "save/load" `Quick test_config_save_load;
        ] );
      ( "facade identity",
        [
          Alcotest.test_case "build matches manual composition" `Quick
            test_build_identical;
          Alcotest.test_case "detect matches manual composition" `Quick
            test_detect_identical;
          Alcotest.test_case "screen composes build+detect" `Quick
            test_screen_composes;
          Alcotest.test_case "non-default knobs flow through" `Quick
            test_config_knobs_flow_through;
          Alcotest.test_case "cache round-trip via config" `Quick
            test_build_with_cache;
          Alcotest.test_case "save/load both formats, prepared detect" `Quick
            test_save_load_formats;
        ] );
      ( "error paths",
        [
          Alcotest.test_case "service errors" `Quick test_service_error_paths;
          Alcotest.test_case "persist parse locations" `Quick
            test_persist_parse_locations;
        ] );
      ( "report json",
        [ Alcotest.test_case "golden string" `Quick test_report_json_golden ] );
    ]
