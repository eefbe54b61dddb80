(* Command-line front-end:

     scaguard list                          # available programs
     scaguard leak fr-iaik                  # run a PoC, show the leakage
     scaguard model fr-iaik                 # print its CST-BBS model
     scaguard similarity fr-iaik pp-iaik    # similarity of two programs
     scaguard detect spectre-fr-classic --repo FR-F,PP-F
     scaguard scadet pp-iaik                # run the rule-based baseline
     scaguard compare                       # every detector on one dataset

   Every subcommand is a thin parser over Scaguard.Service/Scaguard.Config:
   the flags that set Config fields live in one term (config_t) validated
   through the Config checkers, the PoC repository comes from one term
   (repository_t: --repo or --repo-file, prepared), all pipeline work goes
   through Service.build/detect_prepared/screen_prepared, and every failure
   is a typed Scaguard.Err.t mapped to the documented exit codes (0 ok, 1
   usage/config, 2 runtime). *)

open Cmdliner
module C = Scaguard.Config

let ( let* ) = Result.bind

(* scaguard_uptime_seconds in detect-batch's exposition counts from here *)
let process_start_ns = Scaguard.Obs.Clock.now_ns ()

(* ---- program registry ------------------------------------------------------ *)

let poc_registry : (string * (unit -> Workloads.Attacks.spec)) list =
  let open Workloads.Attacks in
  [
    ("fr-iaik", fun () -> flush_reload ~style:Iaik ());
    ("fr-mastik", fun () -> flush_reload ~style:Mastik ());
    ("fr-nepoche", fun () -> flush_reload ~style:Nepoche ());
    ("ff", fun () -> flush_flush ());
    ("er", fun () -> evict_reload ());
    ("pp-iaik", fun () -> prime_probe ~style:Iaik ());
    ("pp-jzhang", fun () -> prime_probe ~style:Jzhang ());
    ("spectre-fr-classic", fun () -> spectre_fr ~style:Classic ());
    ("spectre-fr-idea", fun () -> spectre_fr ~style:Idea ());
    ("spectre-fr-good", fun () -> spectre_fr ~style:Good ());
    ("spectre-pp", fun () -> spectre_pp ());
    ("meltdown-fr", fun () -> meltdown_fr ());
  ]

let resolve_sample ~seed name =
  match List.assoc_opt name poc_registry with
  | Some f -> Some (Workloads.Dataset.of_spec (f ()))
  | None ->
    (* benign family names resolve to a benign sample *)
    if List.mem_assoc name Workloads.Benign.families then begin
      let g = Workloads.Benign.build name (Sutil.Rng.create seed) in
      Some
        {
          Workloads.Dataset.name = g.Workloads.Benign.name;
          label = Workloads.Label.Benign;
          program = g.Workloads.Benign.program;
          init = g.Workloads.Benign.init;
          victim = None;
          settings = None;
        }
    end
    else None

let sample_res ~seed name =
  match resolve_sample ~seed name with
  | Some s -> Ok s
  | None ->
    Error
      (Scaguard.Err.Invalid_config
         {
           field = "PROGRAM";
           value = name;
           expected = "a name from `scaguard list`";
         })

let samples_res ~seed names =
  List.fold_left
    (fun acc name ->
      let* acc = acc in
      let* s = sample_res ~seed name in
      Ok (s :: acc))
    (Ok []) names
  |> Result.map List.rev

(* A target program's job, salted on the seed like every target's
   (Pipeline.seeded): its harness state is a function of the seed. *)
let target_job ~seed s =
  Scaguard.Pipeline.seeded ~seed (Experiments.Common.job s)

(* Full analysis (CFG, relevant blocks, …) for the inspection commands;
   detection flows go through Service.build instead. *)
let analyze (s : Workloads.Dataset.sample) =
  let res = Workloads.Dataset.run s in
  ( Scaguard.Pipeline.analyze ~name:s.Workloads.Dataset.name
      ~program:s.Workloads.Dataset.program res,
    res )

(* ---- error handling ---------------------------------------------------------- *)

(* The single catch-and-exit point: every subcommand body returns
   [(unit, Scaguard.Err.t) result] and this maps it to the documented exit
   codes.  [obs] is the run's observation value once it has one, so the
   error event also lands in the run's event capture. *)
let handle ?obs = function
  | Ok () -> 0
  | Error e ->
    (* the Log mirror prints the exact "scaguard: <msg>" stderr line this
       always printed *)
    Scaguard.Log.err ?obs "cli.error" e;
    Scaguard.Err.exit_code e

(* Filesystem + decode guard for binary/source files. *)
let io ~path f =
  match f () with
  | v -> Ok v
  | exception Sys_error msg -> Error (Scaguard.Err.Io { path; msg })
  | exception Failure msg ->
    Error (Scaguard.Err.Parse { file = Some path; line = None; msg })

(* ---- common options ---------------------------------------------------------- *)

let seed_t =
  Arg.(value & opt int 2026 & info [ "seed" ] ~docv:"SEED" ~doc:"RNG seed.")

let opt_arg kind name docv doc =
  Arg.(value & opt (some kind) None & info [ name ] ~docv ~doc)

let format_t =
  opt_arg (Arg.enum [ ("text", C.Text); ("binary", C.Binary) ]) "format" "FMT"
    "Repository file format: $(b,text) (line-oriented, diffable) or \
     $(b,binary) (compact SCAGBIN image, which also keeps the repository \
     index's shape so loads skip the index rebuild).  Loading always \
     auto-detects the format; this flag only selects what gets written."

let with_victim_t =
  Arg.(
    value & flag
    & info [ "with-victim" ]
        ~doc:"Co-run the shared-library victim (for compiled or assembled \
              attacks).")

(* --per-family sizes a generated dataset (compare, export-dataset); below 1
   there is nothing to train on or export.  Checked like the Config integer
   flags. *)
let per_family_t ~default ~doc =
  let check n =
    if n >= 1 then Ok n
    else
      Error
        (Scaguard.Err.Invalid_config
           {
             field = "--per-family";
             value = string_of_int n;
             expected = "an integer >= 1";
           })
  in
  Term.(
    const check
    $ Arg.(value & opt int default & info [ "per-family" ] ~docv:"N" ~doc))

let trace_id_t =
  opt_arg Arg.string "trace-id" "ID"
    "Opaque correlation token stamped on every span, log event and \
     provenance record the run produces.  For $(b,client) it travels in the \
     request envelope and the server echoes it in every reply frame."

(* Every flag that sets a Config field, in one term: the base config
   (--config file or defaults) with the explicit flags applied through the
   Config checkers, so a bad value reports the offending flag and its
   accepted range. *)
let config_t =
  let assemble config_file threshold alpha band jobs domains cache_dir no_prune
      index =
    let* base =
      match config_file with None -> Ok C.default | Some path -> C.load ~path
    in
    let checked check value default =
      match value with None -> Ok default | Some v -> check v
    in
    let some check v = Result.map Option.some (check v) in
    let* threshold =
      checked (C.check_threshold ~field:"--threshold") threshold base.C.threshold
    in
    let* alpha = checked (some (C.check_alpha ~field:"--alpha")) alpha base.C.alpha in
    let* band = checked (some (C.check_band ~field:"--band")) band base.C.band in
    (* --jobs fans out model building and, for compatibility, also sets the
       scoring-engine worker count; --domains overrides both when given. *)
    let* domains =
      match domains with
      | Some _ ->
        checked (some (C.check_domains ~field:"--domains")) domains base.C.domains
      | None -> checked (some (C.check_domains ~field:"--jobs")) jobs base.C.domains
    in
    C.validate
      {
        base with
        C.threshold;
        alpha;
        band;
        domains;
        cache_dir = (match cache_dir with Some _ -> cache_dir | None -> base.C.cache_dir);
        prune = base.C.prune && not no_prune;
        index = Option.value index ~default:base.C.index;
      }
  in
  let index_mode_conv =
    Arg.enum [ ("off", C.Index_off); ("auto", C.Index_auto); ("vp", C.Index_vp) ]
  in
  Term.(
    const assemble
    $ opt_arg Arg.string "config" "FILE"
        "Load a saved configuration (key=value lines, see build-repo \
         $(b,--save-config)); explicit flags override its values."
    $ opt_arg Arg.float "threshold" "T"
        "Similarity threshold in [0,1] (default 0.60)."
    $ opt_arg Arg.float "alpha" "A"
        "DTW syntax/semantics weight in [0,1] (default: the paper's equal \
         weighting)."
    $ opt_arg Arg.int "band" "B"
        "Sakoe-Chiba band for the DTW (off by default; exact)."
    $ opt_arg Arg.int "jobs" "N"
        "Worker domains for model building (default: the recommended domain \
         count).  Models are byte-identical at any job count."
    $ opt_arg Arg.int "domains" "N"
        "Worker domains for model building and scoring, overriding \
         $(b,--jobs) (default: the recommended domain count)."
    $ opt_arg Arg.string "cache-dir" "DIR"
        "Content-addressed model cache; a hit skips the program's execution \
         and modeling entirely.  Keys cover the binary, the exec settings, \
         the CST geometry and the seed, so stale entries are never returned."
    $ Arg.(
        value & flag
        & info [ "no-prune" ]
            ~doc:"Disable the exact lower-bound pruning cascade (identical \
                  verdicts, more DP work; for benchmarking).")
    $ opt_arg index_mode_conv "index" "MODE"
        "Repository search index: $(b,off) scores targets with the linear \
         lower-bound cascade, $(b,auto) (the default) builds the \
         vantage-point index once the repository is large enough to repay \
         it, $(b,vp) always builds it.  Verdicts and scores are bit-identical \
         in every mode; only the work counters move.")

let repo_t =
  Arg.(
    value
    & opt (list string) [ "FR-F"; "PP-F"; "S-FR"; "S-PP" ]
    & info [ "repo" ] ~docv:"FAMILIES"
        ~doc:"Attack families in the PoC repository (comma-separated).")

(* The --repo families' PoC repository, built under the salt Config.seeded
   derives for them; returns that salted config with it. *)
let build_families ?obs ~seed names config =
  let* families = Experiments.Common.families_of_strings names in
  let config = C.seeded ~families:names ~seed config in
  let* repo, report =
    Experiments.Common.repository_service ?obs ~config
      ~rng:(Sutil.Rng.create seed) families
  in
  Ok (config, repo, report)

type repository = {
  prepared : Scaguard.Detector.prepared;
  file : string option;  (** the --repo-file it was loaded from *)
  report : Scaguard.Service.report;  (** its load or build *)
}

(* The PoC repository a detection command runs against, prepared under the
   config's index policy: loaded from --repo-file (either format), or else
   built from the --repo families and indexed under the same salt they are
   built with (the one build-repo embeds its index under). *)
let repository_t =
  let resolve names file ~obs ~seed config =
    match file with
    | Some path ->
      let* _repo, prepared, report =
        Scaguard.Service.load_repository ~obs ~config ~path ()
      in
      Ok { prepared; file = Some path; report }
    | None ->
      let* config, repo, report = build_families ~obs ~seed names config in
      let* prepared = Scaguard.Service.prepare config repo in
      Ok { prepared; file = None; report }
  in
  Term.(
    const resolve $ repo_t
    $ opt_arg Arg.string "repo-file" "FILE"
        "Load the PoC repository from a file written by `build-repo` \
         (either format; the binary image is the fast path) instead of \
         rebuilding it from $(b,--repo).  Under $(b,serve) also the \
         default path of the protocol's $(b,reload) verb.")

let name_arg p doc =
  Arg.(required & pos p (some string) None & info [] ~docv:"PROGRAM" ~doc)

let programs_t doc =
  Arg.(non_empty & pos_all string [] & info [] ~docv:"PROGRAM" ~doc)

let exits =
  Cmd.Exit.info 1
    ~doc:"on usage or configuration errors: a flag value outside its \
          accepted range, an unknown program name, an empty PoC repository."
  :: Cmd.Exit.info 2
       ~doc:"on runtime errors: file I/O failures, corrupt repository, \
             binary or config files."
  :: Cmd.Exit.defaults

let cmd_info name ~doc = Cmd.info name ~doc ~exits

(* ---- observability ------------------------------------------------------------ *)

type observability = {
  trace_out : string option;
  metrics_out : string option;
  span_sample_rate : float;
}

let observability_t =
  let make trace_out metrics_out span_sample_rate =
    { trace_out; metrics_out; span_sample_rate }
  in
  Term.(
    const make
    $ opt_arg Arg.string "trace-out" "FILE"
        "Record spans (pipeline stages, pool tasks, per-target \
         classification, cache lookups; under $(b,serve) one per request) and \
         write a Chrome trace-event JSON file when the run ends — load it in \
         ui.perfetto.dev or chrome://tracing."
    $ opt_arg Arg.string "metrics-out" "FILE"
        "Record counters and latency histograms and write them in Prometheus \
         text exposition format when the run ends."
    $ Arg.(
        value & opt float 1.0
        & info [ "span-sample-rate" ] ~docv:"R"
            ~doc:"Fraction of per-task spans to record, in [0,1] (default 1): \
                  1 records every task, 0.1 every tenth, 0 only the coarse \
                  stage spans.  Sampling is deterministic by task index."))

(* The run's observation value.  Tracing, metrics and capture only observe
   — verdicts are bit-identical with them on or off — so this needs no
   plumbing through Config.t. *)
let setup_observability ?trace_id ?capture ?(metrics = false) o =
  let r = o.span_sample_rate in
  match
    Scaguard.Obs.create ?trace_id ~tracing:(o.trace_out <> None)
      ~sample_rate:r ~metrics:(metrics || o.metrics_out <> None) ?capture ()
  with
  | exception Invalid_argument _ ->
    Error
      (Scaguard.Err.Invalid_config
         {
           field = "--span-sample-rate";
           value = string_of_float r;
           expected = "a fraction in [0, 1]";
         })
  | obs -> Ok obs

(* The artifact notices go to stderr: under serve --stdio, stdout carries
   the protocol and nothing else.  [exposition] renders the run's counts
   for --metrics-out. *)
let write_observability obs o ~exposition =
  let* () =
    match o.trace_out with
    | None -> Ok ()
    | Some path ->
      let* () =
        Scaguard.Obs.Trace_writer.write ~path (Scaguard.Obs.spans obs)
      in
      Printf.eprintf "wrote trace to %s (load in ui.perfetto.dev)\n" path;
      Ok ()
  in
  match o.metrics_out with
  | None -> Ok ()
  | Some path ->
    let* () =
      io ~path (fun () -> Scaguard.Persist.write_atomic ~path (exposition ()))
    in
    Printf.eprintf "wrote metrics to %s (Prometheus text format)\n" path;
    Ok ()

(* ---- shared verdict printing --------------------------------------------------- *)

let print_verdict ~threshold (v : Scaguard.Detector.verdict) =
  match v.Scaguard.Detector.best_family with
  | Some f -> Printf.printf "verdict: ATTACK, family %s\n" f
  | None ->
    Printf.printf "verdict: benign (best %.2f%% < %.0f%%)\n"
      (100.0 *. v.Scaguard.Detector.best_score)
      (100.0 *. threshold)

(* One verdict per line, detect-batch's format; `client detect` prints the
   same bytes, which CI diffs. *)
let print_verdict_line name family score =
  match family with
  | Some f -> Printf.printf "%-24s ATTACK %-6s (%6.2f%%)\n" name f (100.0 *. score)
  | None -> Printf.printf "%-24s benign        (best %6.2f%%)\n" name (100.0 *. score)

(* Score breakdown + verdict of one target model, both scored on the same
   prepared repository under the same alpha and band, so the table's top
   row is the verdict's best score. *)
let classify_one config prepared model =
  let* verdicts, _report =
    Scaguard.Service.detect_prepared config prepared [| model |]
  in
  List.iter
    (fun (poc, family, score) ->
      Printf.printf "  vs %-22s (%s): %6.2f%%\n" poc family (100.0 *. score))
    (Scaguard.Detector.score_all ?alpha:config.C.alpha ?band:config.C.band
       prepared model);
  print_verdict ~threshold:config.C.threshold verdicts.(0);
  Ok ()

(* Build the single target model for a one-off detect flow. *)
let build_one config job =
  let* models, _report = Scaguard.Service.build config [| job |] in
  Ok models.(0)

(* ---- list ---------------------------------------------------------------------- *)

let list_cmd =
  let run () =
    Printf.printf "Attack PoCs:\n";
    List.iter (fun (n, _) -> Printf.printf "  %s\n" n) poc_registry;
    Printf.printf "Benign generator families:\n";
    List.iter
      (fun (n, cat) -> Printf.printf "  %-16s (%s)\n" n cat)
      Workloads.Benign.families;
    0
  in
  Cmd.v (cmd_info "list" ~doc:"List available programs.")
    Term.(const run $ const ())

(* ---- leak ---------------------------------------------------------------------- *)

let leak_cmd =
  let run seed name =
    handle
    @@ let* s = sample_res ~seed name in
       let res = Workloads.Dataset.run s in
       Printf.printf "%s: %d instructions, %d cycles, halted=%b\n"
         s.Workloads.Dataset.name res.Cpu.Exec.instructions res.Cpu.Exec.cycles
         res.Cpu.Exec.halted_normally;
       let hist = Workloads.Attacks.result_histogram res in
       if Array.exists (fun v -> v > 0) hist then begin
         Printf.printf "result histogram: ";
         Array.iteri (fun i v -> if v > 0 then Printf.printf "%d:%d " i v) hist;
         Printf.printf "\nbest guess: %d\n" (Workloads.Attacks.secret_guess res)
       end
       else Printf.printf "no attack results recorded (benign program?)\n";
       Ok ()
  in
  Cmd.v (cmd_info "leak" ~doc:"Execute a program and show its attack results.")
    Term.(const run $ seed_t $ name_arg 0 "Program name (see `list`).")

(* ---- model ---------------------------------------------------------------------- *)

let model_cmd =
  let run seed name =
    handle
    @@ let* s = sample_res ~seed name in
       let a, _ = analyze s in
       Printf.printf "CFG: %d blocks; step1 %d; relevant %d; model %d blocks\n\n"
         (Cfg.Graph.n_blocks a.Scaguard.Pipeline.cfg)
         (List.length a.Scaguard.Pipeline.info.Scaguard.Relevant.step1)
         (List.length a.Scaguard.Pipeline.info.Scaguard.Relevant.relevant)
         (Scaguard.Model.length a.Scaguard.Pipeline.model);
       Format.printf "%a@." Scaguard.Model.pp a.Scaguard.Pipeline.model;
       Ok ()
  in
  Cmd.v (cmd_info "model" ~doc:"Build and print a program's CST-BBS model.")
    Term.(const run $ seed_t $ name_arg 0 "Program name (see `list`).")

(* ---- similarity ----------------------------------------------------------------- *)

let similarity_cmd =
  let run seed a b =
    handle
    @@ let* sa = sample_res ~seed a in
       let* sb = sample_res ~seed b in
       let* ma = build_one C.default (Experiments.Common.job sa) in
       let* mb = build_one C.default (Experiments.Common.job sb) in
       Printf.printf "similarity(%s, %s) = %.2f%%\n" a b
         (100.0 *. Scaguard.Dtw.compare_models ma mb);
       Ok ()
  in
  Cmd.v (cmd_info "similarity" ~doc:"Similarity score of two programs' models.")
    Term.(
      const run $ seed_t $ name_arg 0 "First program."
      $ name_arg 1 "Second program.")

(* ---- compare (the detector showdown) --------------------------------------------- *)

let compare_cmd =
  let run seed per_family screen_tau json detector_keys =
    handle
    @@ let* per_family = per_family in
       let* tau =
         match screen_tau with
         | None -> Ok None
         | Some t ->
           Result.map Option.some (C.check_ensemble_tau ~field:"--screen-tau" t)
       in
       let* detectors =
         match detector_keys with
         | [] -> Ok None
         | ks -> (
           match List.filter (fun k -> Option.is_none (Detect.find k)) ks with
           | [] -> Ok (Some ks)
           | unknown ->
             Error
               (Scaguard.Err.Invalid_config
                  {
                    field = "--detectors";
                    value = String.concat "," unknown;
                    expected =
                      "detector keys among "
                      ^ String.concat ", " (Detect.keys ());
                  }))
       in
       let rng = Sutil.Rng.create seed in
       let t =
         Experiments.Showdown.evaluate ?detectors ?tau ~rng ~per_family ()
       in
       if json then
         print_endline (Scaguard.Json.to_string (Experiments.Showdown.to_json t))
       else begin
         Sutil.Table.print (Experiments.Showdown.to_table t);
         Printf.printf
           "dataset preparation (execution + test models): %.3f s\n"
           t.Experiments.Showdown.prep_s
       end;
       Ok ()
  in
  let screen_tau_t =
    Arg.(
      value
      & opt (some float) None
      & info [ "screen-tau" ] ~docv:"Z"
          ~doc:"Ensemble screening threshold: runs whose largest \
                benign-profile |z| stays below it skip the DTW slow path.  \
                0 escalates everything (verdicts identical to pure \
                SCAGuard); default 2.")
  in
  let json_t =
    Arg.(
      value & flag
      & info [ "json" ] ~doc:"Emit the full result as JSON instead of text.")
  in
  let detectors_t =
    Arg.(
      value
      & opt (list string) []
      & info [ "detectors" ] ~docv:"KEYS"
          ~doc:"Comma-separated detector keys to run (default: every \
                registered detector; see docs/DETECTORS.md).")
  in
  Cmd.v
    (cmd_info "compare"
       ~doc:"Run every registered detector (and the two-tier ensemble) over \
             one generated dataset and print the accuracy/F1/latency/\
             throughput table.")
    Term.(
      const run $ seed_t
      $ per_family_t ~default:8
          ~doc:"Mutated samples per attack family (benign gets 2N plus the \
                MinC kernels)."
      $ screen_tau_t $ json_t $ detectors_t)

(* ---- detect --------------------------------------------------------------------- *)

let detect_cmd =
  let run seed config repository name =
    handle
    @@ let* config = config in
       let* r = repository ~obs:Scaguard.Obs.off ~seed config in
       let* s = sample_res ~seed name in
       let* model = build_one config (target_job ~seed s) in
       classify_one config r.prepared model
  in
  Cmd.v
    (cmd_info "detect"
       ~doc:"Classify a program against a PoC repository (the $(b,--repo) \
             families, or a $(b,--repo-file) written by `build-repo`) and \
             print its per-PoC score table.")
    Term.(
      const run $ seed_t $ config_t $ repository_t $ name_arg 0 "Program name.")

(* ---- detect-batch (the parallel engine) ------------------------------------------- *)

let write_event_capture obs ~log_out ~provenance_out records =
  let* () =
    match log_out with
    | None -> Ok ()
    | Some path ->
      let* () = Scaguard.Log.write obs ~path in
      Printf.eprintf "wrote %d log events to %s (JSON lines)\n"
        (List.length (Scaguard.Obs.events obs))
        path;
      Ok ()
  in
  match provenance_out with
  | None -> Ok ()
  | Some path ->
    let* () =
      io ~path (fun () ->
          Scaguard.Persist.write_atomic ~path
            (Scaguard.Provenance.to_jsonl records))
    in
    Printf.eprintf "wrote %d provenance records to %s (JSON lines)\n"
      (Array.length records) path;
    Ok ()

let detect_batch_cmd =
  let batch ~obs ~seed config repository o stats log_out provenance_out
      report_format names =
    if log_out <> None then
      Scaguard.Log.info ~obs "batch.start"
        ~fields:
          [
            ("targets", Scaguard.Json.Num (float_of_int (List.length names)));
            ("seed", Scaguard.Json.Num (float_of_int seed));
          ]
        "scaguard: detect-batch: classifying %d targets" (List.length names);
    let* r = repository ~obs ~seed config in
    let* samples = samples_res ~seed names in
    (* benign samples are re-derived from the seed alone (no shared rng
       stream), so the seed is a sufficient salt here *)
    let target_jobs = Array.of_list (List.map (target_job ~seed) samples) in
    (* --provenance-out asks the same engine run for its records *)
    let* _models, verdicts, report, records =
      if provenance_out = None then
        Result.map
          (fun (m, v, r) -> (m, v, r, [||]))
          (Scaguard.Service.screen_prepared ~obs config r.prepared target_jobs)
      else Scaguard.Service.explain ~obs config r.prepared target_jobs
    in
    List.iteri
      (fun i name ->
        let v = verdicts.(i) in
        print_verdict_line name v.Scaguard.Detector.best_family
          v.Scaguard.Detector.best_score)
      names;
    (if stats then
       let title, key =
         if r.file = None then ("repository build", "repository_build")
         else ("repository load", "repository_load")
       in
       match report_format with
       | `Text ->
         Format.printf "%s:@.%a@." title Scaguard.Service.pp_report r.report;
         Format.printf "%a@." Scaguard.Service.pp_report report
       | `Json ->
         print_endline
           (Scaguard.Json.to_string
              (Scaguard.Json.Obj
                 [
                   (key, Scaguard.Service.report_to_json r.report);
                   ("run", Scaguard.Service.report_to_json report);
                 ])));
    if log_out <> None then begin
      let attacks =
        Array.fold_left
          (fun n v -> if Scaguard.Detector.is_attack v then n + 1 else n)
          0 verdicts
      in
      Scaguard.Log.info ~obs "batch.done"
        ~fields:
          [
            ("targets", Scaguard.Json.Num (float_of_int (Array.length verdicts)));
            ("attacks", Scaguard.Json.Num (float_of_int attacks));
          ]
        "scaguard: detect-batch: %d of %d targets classified as attacks"
        attacks (Array.length verdicts)
    end;
    (* the exposition renders the repository's report and the run's, and
       nothing else this process did *)
    let exposition () =
      let books = Scaguard.Service.books None in
      Scaguard.Service.fold books r.report;
      Scaguard.Service.fold books report;
      Scaguard.Obs.Prom.to_prometheus
        (Scaguard.Service.series books
        @ Scaguard.Service.identity
            ~uptime_s:(Scaguard.Obs.Clock.elapsed_s ~since:process_start_ns))
    in
    let* () = write_observability obs o ~exposition in
    write_event_capture obs ~log_out ~provenance_out records
  in
  let run seed config repository o stats log_out log_level provenance_out
      trace_id report_format names =
    let setup =
      let* config = config in
      let config =
        match log_level with
        | None -> config
        | Some l -> { config with C.log_level = l }
      in
      let capture = Option.map (fun _ -> config.C.log_level) log_out in
      let* obs = setup_observability ?trace_id ?capture o in
      Ok (config, obs)
    in
    match setup with
    | Error e -> handle (Error e)
    | Ok (config, obs) -> (
      match
        batch ~obs ~seed config repository o stats log_out provenance_out
          report_format names
      with
      | Ok () -> 0
      | Error e ->
        (* a failed run still leaves its event log, cli.error included *)
        let code = handle ~obs (Error e) in
        ignore (write_event_capture obs ~log_out ~provenance_out:None [||]);
        code)
  in
  let stats_t =
    Arg.(
      value & flag
      & info [ "stats" ]
          ~doc:"Print the run report: stage timings, engine counters and \
                cache counters.")
  in
  let log_out_t =
    opt_arg Arg.string "log-out" "FILE"
      "Capture structured log events (severity, monotonic timestamp, trace \
       id, typed fields) and write them as JSON lines — the \
       machine-readable twin of the stderr lines."
  in
  let log_level_t =
    opt_arg
      (Arg.enum
         [
           ("debug", Scaguard.Log.Debug);
           ("info", Scaguard.Log.Info);
           ("warn", Scaguard.Log.Warn);
           ("error", Scaguard.Log.Error);
         ])
      "log-level" "LEVEL"
      "Minimum severity captured into $(b,--log-out) (default: the config \
       file's $(b,log_level), or $(b,info))."
  in
  let provenance_out_t =
    opt_arg Arg.string "provenance-out" "FILE"
      "Write one decision-provenance record per target (index pruning, \
       candidate outcomes, final score bits) as JSON lines, in target order. \
       Pure observation: verdicts are bit-identical with this on or off."
  in
  let report_format_t =
    Arg.(
      value
      & opt (enum [ ("text", `Text); ("json", `Json) ]) `Text
      & info [ "report-format" ] ~docv:"FMT"
          ~doc:"How $(b,--stats) renders the run report: $(b,text) (aligned \
                tables) or $(b,json) (one machine-readable object).")
  in
  Cmd.v
    (cmd_info "detect-batch"
       ~doc:"Classify many programs against a PoC repository in one parallel \
             batch (identical verdicts to `detect`, one per line).")
    Term.(
      const run $ seed_t $ config_t $ repository_t $ observability_t $ stats_t
      $ log_out_t $ log_level_t $ provenance_out_t $ trace_id_t
      $ report_format_t
      $ programs_t "Programs to classify (see `list`).")

(* ---- explain (verdict provenance) -------------------------------------------------- *)

let render_provenance (r : Scaguard.Provenance.t) =
  let open Scaguard.Provenance in
  let verdict =
    match r.best_family with
    | Some f -> Printf.sprintf "ATTACK %s" f
    | None -> "benign"
  in
  let path = match r.path with Linear -> "linear scan" | Indexed -> "indexed" in
  Printf.printf "%s: %s  (best %.2f%% vs threshold %.0f%%) [%s, %.3f ms%s]\n"
    r.target verdict (100.0 *. r.best_score) (100.0 *. r.threshold) path
    (Int64.to_float r.duration_ns /. 1e6)
    (match r.trace_id with Some t -> ", trace " ^ t | None -> "");
  (match r.index_events with
  | [] -> ()
  | evs ->
    let visited = ref 0
    and vmembers = ref 0
    and cut = ref 0
    and cmembers = ref 0
    and screened = ref 0 in
    List.iter
      (function
        | Node_visited { members; _ } ->
          incr visited;
          vmembers := !vmembers + members
        | Subtree_pruned { members; _ } ->
          incr cut;
          cmembers := !cmembers + members
        | Member_pruned _ -> incr screened)
      evs;
    Printf.printf
      "  index: visited %d nodes (%d models), cut %d subtrees (%d models), \
       screened out %d members\n"
      !visited !vmembers !cut !cmembers !screened);
  if r.candidates <> [] then begin
    Printf.printf "  candidates (evaluation order):\n";
    List.iter
      (fun c ->
        let lb =
          match c.lb with
          | Some b -> Printf.sprintf "  (lb %.2f%%)" (100.0 *. b)
          | None -> ""
        in
        match c.outcome with
        | Scored s ->
          Printf.printf "    %-22s (%s): %6.2f%%%s\n" c.poc c.family
            (100.0 *. s) lb
        | Pruned_lb ->
          Printf.printf "    %-22s (%s): pruned by lower bound%s\n" c.poc
            c.family lb
        | Abandoned ->
          Printf.printf "    %-22s (%s): abandoned mid-DP (cutoff)%s\n" c.poc
            c.family lb
        | Pruned ->
          Printf.printf "    %-22s (%s): pruned%s\n" c.poc c.family lb)
      r.candidates
  end;
  match r.best_matches with
  | [] -> ()
  | ms ->
    Printf.printf "  best matches:%s\n"
      (String.concat ""
         (List.map
            (fun (poc, family, s) ->
              Printf.sprintf " %s/%s %.2f%%" poc family (100.0 *. s))
            ms))

let explain_cmd =
  let run seed config repository trace_id json names =
    handle
    @@ let* config = config in
       let obs = Scaguard.Obs.create ?trace_id () in
       let* r = repository ~obs ~seed config in
       let* samples = samples_res ~seed names in
       let jobs = Array.of_list (List.map (target_job ~seed) samples) in
       let* _models, _verdicts, _report, records =
         Scaguard.Service.explain ~obs config r.prepared jobs
       in
       if json then print_string (Scaguard.Provenance.to_jsonl records)
       else Array.iter render_provenance records;
       Ok ()
  in
  let json_t =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:"Emit the raw provenance records as JSON lines instead of the \
                human rendering (the same codec the serve protocol's \
                $(b,explain) verb uses).")
  in
  Cmd.v
    (cmd_info "explain"
       ~doc:"Classify programs like `detect-batch` and print each verdict's \
             decision provenance, in argument order: the path taken (linear \
             or indexed), the index nodes visited and subtrees pruned with \
             their bounds, every candidate PoC's lower bound and outcome, \
             and the final score.  Verdicts are bit-identical to \
             `detect-batch` — provenance is pure observation.")
    Term.(
      const run $ seed_t $ config_t $ repository_t $ trace_id_t $ json_t
      $ programs_t "Programs to explain (see `list`).")

(* ---- build-repo -------------------------------------------------------------------- *)

let build_repo_cmd =
  let run seed repo_names config format save_config path =
    handle
    @@ let* config = config in
       let* config, repo, report = build_families ~seed repo_names config in
       let config =
         match format with None -> config | Some f -> { config with C.repo_format = f }
       in
       let* _save_report = Scaguard.Service.save_repository config ~path repo in
       Printf.printf "wrote %d PoC models to %s (%s format)\n"
         (List.length repo) path
         (C.repo_format_to_string config.C.repo_format);
       (match report.Scaguard.Service.cache with
       | Some c ->
         Printf.printf "cache %s: %d hits, %d misses, %d stale\n"
           c.Scaguard.Service.dir c.Scaguard.Service.hits
           c.Scaguard.Service.misses c.Scaguard.Service.stale
       | None -> ());
       match save_config with
       | None -> Ok ()
       | Some cpath ->
         let* () = C.save ~path:cpath config in
         Printf.printf "wrote config to %s\n" cpath;
         Ok ()
  in
  let path_t =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"FILE" ~doc:"Output repository file.")
  in
  let save_config_t =
    opt_arg Arg.string "save-config" "FILE"
      "Also persist the effective configuration (threshold, limits, cache, \
       salt) next to the repository, for later $(b,--config) runs."
  in
  Cmd.v
    (cmd_info "build-repo"
       ~doc:"Build a PoC-model repository and save it to a file.")
    Term.(
      const run $ seed_t $ repo_t $ config_t $ format_t $ save_config_t
      $ path_t)

(* ---- migrate-repo ------------------------------------------------------------------ *)

let migrate_repo_cmd =
  let run format in_path out_path =
    handle
    @@ let* in_bytes =
         io ~path:in_path (fun () -> Scaguard.Persist.read_file ~path:in_path)
       in
       let in_format =
         if Scaguard.Persist.is_binary in_bytes then C.Binary else C.Text
       in
       (* an input index stays an index: the vp policy keeps a v3 shape and
          rebuilds a v2 section, which loads skip *)
       let index =
         if Scaguard.Persist.has_index_section in_bytes then C.Index_vp
         else C.Index_off
       in
       let* repo, prep, _ =
         Scaguard.Service.load_repository ~config:{ C.default with C.index }
           ~path:in_path ()
       in
       let format = Option.value format ~default:C.Binary in
       let* () =
         match format with
         | C.Text -> Scaguard.Persist.save_repository_result ~path:out_path repo
         | C.Binary ->
           Scaguard.Persist.save_repository_bin_result
             ?index:(Scaguard.Detector.prepared_index prep) ~path:out_path repo
       in
       (* Paranoia that costs one read: reload what we just wrote and check
          it is the same repository (and index), so a migration can never
          silently corrupt the models. *)
       let* check, check_prep =
         Scaguard.Persist.load_repository_prepared_result ~path:out_path
       in
       let shape p =
         Option.map Scaguard.Vpindex.to_bytes (Scaguard.Detector.prepared_index p)
       in
       if
         Scaguard.Persist.repository_to_string check
         <> Scaguard.Persist.repository_to_string repo
         || (format = C.Binary && shape check_prep <> shape prep)
       then
         Error
           (Scaguard.Err.Parse
              {
                file = Some out_path;
                line = None;
                msg = "migration verification failed: reloaded repository differs";
              })
       else
         let* out_size =
           io ~path:out_path (fun () -> (Unix.stat out_path).Unix.st_size)
         in
         Printf.printf "migrated %d models: %s (%s, %d bytes) -> %s (%s, %d bytes)\n"
           (List.length repo) in_path
           (C.repo_format_to_string in_format)
           (String.length in_bytes) out_path
           (C.repo_format_to_string format)
           out_size;
         Ok ()
  in
  let in_t =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"IN" ~doc:"Repository file to migrate (either format).")
  in
  let out_t =
    Arg.(
      required
      & pos 1 (some string) None
      & info [] ~docv:"OUT" ~doc:"Output repository file.")
  in
  Cmd.v
    (cmd_info "migrate-repo"
       ~doc:"Convert a repository file between the text format and the \
             binary image (default: to binary).  A binary input's repository \
             index is kept in binary output (a v2 image's index is rebuilt). \
             The result is verified by reloading it and checking it matches \
             the input model for model, index included.")
    Term.(const run $ format_t $ in_t $ out_t)

(* ---- assemble / disasm / detect-binary ---------------------------------------------- *)

let assemble_cmd =
  let run seed name path =
    handle
    @@ let* s = sample_res ~seed name in
       let* () =
         io ~path (fun () ->
             Isa.Binary.write_file ~path s.Workloads.Dataset.program)
       in
       Printf.printf "wrote %s (%d instructions) to %s\n"
         s.Workloads.Dataset.name
         (Isa.Program.length s.Workloads.Dataset.program)
         path;
       Ok ()
  in
  let path_t =
    Arg.(
      required
      & pos 1 (some string) None
      & info [] ~docv:"OUT" ~doc:"Output binary file.")
  in
  Cmd.v (cmd_info "assemble" ~doc:"Assemble a program to a binary file.")
    Term.(const run $ seed_t $ name_arg 0 "Program name (see `list`)." $ path_t)

let binfile_t p =
  Arg.(
    required
    & pos p (some file) None
    & info [] ~docv:"BIN" ~doc:"Binary file written by `assemble`.")

let disasm_cmd =
  let run path =
    handle
    @@ let* prog = io ~path (fun () -> Isa.Binary.read_file ~path) in
       Format.printf "%a@." Isa.Program.pp prog;
       Ok ()
  in
  Cmd.v (cmd_info "disasm" ~doc:"Disassemble a binary file.")
    Term.(const run $ binfile_t 0)

let detect_binary_cmd =
  let run seed config repository with_victim path =
    handle
    @@ let* config = config in
       let* prog = io ~path (fun () -> Isa.Binary.read_file ~path) in
       let* r = repository ~obs:Scaguard.Obs.off ~seed config in
       let victim =
         if with_victim then Some (Workloads.Victim.shared_lib ()) else None
       in
       let* model =
         build_one config
           (Scaguard.Pipeline.job ?victim ~name:(Filename.basename path) prog)
       in
       classify_one config r.prepared model
  in
  Cmd.v
    (cmd_info "detect-binary"
       ~doc:"Run the full pipeline on a binary file and classify it.")
    Term.(
      const run $ seed_t $ config_t $ repository_t $ with_victim_t $ binfile_t 0)

(* ---- compile ----------------------------------------------------------------------- *)

let compile_cmd =
  let run optimize with_victim path =
    handle
    @@ let* src = io ~path (fun () -> Scaguard.Persist.read_file ~path) in
       let* prog =
         match
           Minc.Codegen.compile_source ~optimize
             ~name:(Filename.basename path) src
         with
         | prog -> Ok prog
         | exception (Minc.Parser.Error m | Minc.Codegen.Error m) ->
           Error (Scaguard.Err.Parse { file = Some path; line = None; msg = m })
         | exception Minc.Lexer.Error (m, off) ->
           Error
             (Scaguard.Err.Parse
                {
                  file = Some path;
                  line = None;
                  msg = Printf.sprintf "lex error at byte %d: %s" off m;
                })
       in
       Printf.printf "compiled %s: %d instructions (optimize=%b)\n" path
         (Isa.Program.length prog) optimize;
       let victim =
         if with_victim then Some (Workloads.Victim.shared_lib ()) else None
       in
       let res = Cpu.Exec.run ?victim prog in
       Printf.printf "ran: %d instructions, %d cycles, halted=%b\n"
         res.Cpu.Exec.instructions res.Cpu.Exec.cycles
         res.Cpu.Exec.halted_normally;
       let a = Scaguard.Pipeline.analyze ~name:path ~program:prog res in
       Printf.printf "model: %d blocks (of %d CFG blocks)\n"
         (Scaguard.Model.length a.Scaguard.Pipeline.model)
         (Cfg.Graph.n_blocks a.Scaguard.Pipeline.cfg);
       Ok ()
  in
  let opt_t =
    Arg.(value & flag & info [ "O" ] ~doc:"Enable the optimizing pipeline.")
  in
  let path_t =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"FILE" ~doc:"MinC source file.")
  in
  Cmd.v (cmd_info "compile" ~doc:"Compile and run a MinC source file.")
    Term.(const run $ opt_t $ with_victim_t $ path_t)

(* ---- dot ------------------------------------------------------------------------- *)

let dot_cmd =
  let run seed name attack_graph =
    handle
    @@ let* s = sample_res ~seed name in
       let a, _ = analyze s in
       let cfg = a.Scaguard.Pipeline.cfg in
       (if attack_graph then
          let ag = a.Scaguard.Pipeline.attack_graph in
          print_string
            (Cfg.Dot.of_attack_graph cfg
               ~relevant:ag.Scaguard.Attack_graph.relevant
               ~nodes:ag.Scaguard.Attack_graph.nodes
               ~edges:ag.Scaguard.Attack_graph.edges)
        else
          print_string
            (Cfg.Dot.of_graph
               ~highlight:a.Scaguard.Pipeline.info.Scaguard.Relevant.relevant
               cfg));
       Ok ()
  in
  let ag_t =
    Arg.(
      value & flag
      & info [ "attack-graph" ]
          ~doc:"Render the attack-relevant graph instead of the plain CFG.")
  in
  Cmd.v
    (cmd_info "dot"
       ~doc:"Print a Graphviz rendering of a program's CFG (relevant blocks \
             highlighted).")
    Term.(const run $ seed_t $ name_arg 0 "Program name." $ ag_t)

(* ---- export-dataset ----------------------------------------------------------------- *)

let export_dataset_cmd =
  let run seed per_family dir =
    handle
    @@ let* per_family = per_family in
       let* () =
         io ~path:dir (fun () ->
             try Unix.mkdir dir 0o755
             with Unix.Unix_error (Unix.EEXIST, _, _) -> ())
       in
       let rng = Sutil.Rng.create seed in
       let samples =
         List.concat_map snd (Workloads.Dataset.attack_dataset ~rng ~per_family)
         @ Workloads.Dataset.benign_samples ~rng ~count:per_family
       in
       let* () =
         io ~path:dir (fun () ->
             let manifest = open_out (Filename.concat dir "manifest.tsv") in
             Fun.protect
               ~finally:(fun () -> close_out manifest)
               (fun () ->
                 output_string manifest "file\tlabel\tname\n";
                 List.iter
                   (fun (s : Workloads.Dataset.sample) ->
                     let file = s.Workloads.Dataset.name ^ ".bin" in
                     Isa.Binary.write_file ~path:(Filename.concat dir file)
                       s.Workloads.Dataset.program;
                     Printf.fprintf manifest "%s\t%s\t%s\n" file
                       (Workloads.Label.to_string s.Workloads.Dataset.label)
                       s.Workloads.Dataset.name)
                   samples))
       in
       Printf.printf "exported %d binaries + manifest.tsv to %s\n"
         (List.length samples) dir;
       Ok ()
  in
  let dir_t =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"DIR" ~doc:"Output directory.")
  in
  Cmd.v
    (cmd_info "export-dataset"
       ~doc:"Write the Table II/III dataset as binary files with a manifest.")
    Term.(
      const run $ seed_t
      $ per_family_t ~default:16
          ~doc:"Samples per attack type (and benign count)."
      $ dir_t)

(* ---- heatmap --------------------------------------------------------------------- *)

let heatmap_cmd =
  let run seed name =
    handle
    @@ let* s = sample_res ~seed name in
       let res = Workloads.Dataset.run s in
       let sets = Cache.Config.llc.Cache.Config.sets in
       let counts = Array.make sets 0 in
       List.iter
         (fun (a : Hpc.Collector.access) ->
           let set =
             Cache.Config.set_of_addr Cache.Config.llc a.Hpc.Collector.target
           in
           counts.(set) <- counts.(set) + 1)
         (Hpc.Collector.accesses res.Cpu.Exec.collector);
       let bucket = 8 in
       let buckets = sets / bucket in
       let agg =
         Array.init buckets (fun i ->
             let s = ref 0 in
             for j = 0 to bucket - 1 do
               s := !s + counts.((i * bucket) + j)
             done;
             !s)
       in
       let peak = Array.fold_left max 1 agg in
       Printf.printf
         "LLC set access heat map for %s (each column = %d sets, peak %d \
          accesses):\n"
         s.Workloads.Dataset.name bucket peak;
       let glyphs = " .:-=+*#%@" in
       for row = 3 downto 0 do
         Printf.printf "  ";
         Array.iter
           (fun v ->
             let level = v * 40 / peak in
             let g =
               if level > row * 10 then glyphs.[min 9 (max 1 (level - (row * 10)))]
               else ' '
             in
             print_char g)
           agg;
         print_newline ()
       done;
       Printf.printf "  %s\n" (String.make buckets '-');
       Printf.printf "  set 0%ssets %d-%d\n"
         (String.make (buckets - 14) ' ')
         (sets - bucket) (sets - 1);
       Ok ()
  in
  Cmd.v
    (cmd_info "heatmap"
       ~doc:"ASCII heat map of a program's LLC set accesses (attacks show \
             their page-stride stripes).")
    Term.(const run $ seed_t $ name_arg 0 "Program name.")

(* ---- scadet --------------------------------------------------------------------- *)

let scadet_cmd =
  let run seed name =
    handle
    @@ let* s = sample_res ~seed name in
       let res = Workloads.Dataset.run s in
       let r = Baselines.Scadet.detect s.Workloads.Dataset.program res in
       Printf.printf "tight loops: %d\nswept sets: [%s]\nverdict: %s\n"
         r.Baselines.Scadet.tight_loops
         (String.concat "; "
            (List.map string_of_int r.Baselines.Scadet.swept_sets))
         (if r.Baselines.Scadet.detected then "Prime+Probe detected"
          else "nothing");
       Ok ()
  in
  Cmd.v
    (cmd_info "scadet" ~doc:"Run the rule-based SCADET baseline on a program.")
    Term.(const run $ seed_t $ name_arg 0 "Program name.")

(* ---- serve ---------------------------------------------------------------------- *)

(* "HOST:PORT" for --tcp; the last ':' splits, so a numeric host like
   127.0.0.1 parses. *)
let parse_hostport s =
  let bad () =
    Error
      (Scaguard.Err.Invalid_config
         { field = "--tcp"; value = s; expected = "HOST:PORT" })
  in
  match String.rindex_opt s ':' with
  | None -> bad ()
  | Some i -> (
    let host = String.sub s 0 i in
    let port = String.sub s (i + 1) (String.length s - i - 1) in
    match int_of_string_opt port with
    | Some p when p > 0 && p < 65536 && host <> "" -> Ok (host, p)
    | _ -> bad ())

let socket_t =
  Arg.(
    value
    & opt (some string) None
    & info [ "socket" ] ~docv:"PATH"
        ~doc:"Listen on (serve) or connect to (client) a Unix domain socket. \
              Serve reclaims a stale socket file left by a crash; a live \
              server keeps the address.")

let tcp_t =
  Arg.(
    value
    & opt (some string) None
    & info [ "tcp" ] ~docv:"HOST:PORT"
        ~doc:"Listen on (serve) or connect to (client) a TCP address.")

let serve_cmd =
  let run seed config repository queue_capacity max_line deadline_ms socket tcp
      stdio metrics_on o =
    handle
    @@ let* endpoint =
         match (socket, tcp, stdio) with
         | Some p, None, false -> Ok (Scaguard.Server.Unix_socket p)
         | None, Some hp, false ->
           let* host, port = parse_hostport hp in
           Ok (Scaguard.Server.Tcp { host; port })
         | None, None, _ -> Ok Scaguard.Server.Stdio
         | _ ->
           Error
             (Scaguard.Err.Invalid_config
                {
                  field = "--socket/--tcp/--stdio";
                  value = "(several)";
                  expected = "at most one endpoint";
                })
       in
       let* config = config in
       (* --metrics times targets and builds for the protocol's `metrics`
          verb even without a --metrics-out file *)
       let* obs = setup_observability ~metrics:metrics_on o in
       let* r = repository ~obs ~seed config in
       let prepared = r.prepared in
       let resolve ~seed name =
         Result.map Experiments.Common.job (sample_res ~seed name)
       in
       let* server =
         Scaguard.Server.create ~obs ~config ~resolve ~prepared
           ?repo_path:r.file
           ~queue_capacity ~max_line ~default_deadline_ms:deadline_ms ()
       in
       (* the banner mirrors to stderr so --stdio keeps stdout protocol-clean *)
       Scaguard.Log.info ~obs "serve.start"
         ~fields:
           [
             ( "models",
               Scaguard.Json.Num
                 (float_of_int (Scaguard.Detector.prepared_size prepared)) );
             ( "endpoint",
               Scaguard.Json.Str
                 (Scaguard.Server.endpoint_to_string endpoint) );
           ]
         "scaguard serve: %d models resident, listening on %s"
         (Scaguard.Detector.prepared_size prepared)
         (Scaguard.Server.endpoint_to_string endpoint);
       let* () = Scaguard.Server.serve server endpoint in
       Scaguard.Log.info ~obs "serve.drained"
         ~fields:
           [
             ( "requests",
               Scaguard.Json.Num (float_of_int (Scaguard.Server.served server))
             );
             ("uptime_s", Scaguard.Json.Num (Scaguard.Server.uptime_s server));
           ]
         "scaguard serve: drained after %d requests (up %.1f s)"
         (Scaguard.Server.served server)
         (Scaguard.Server.uptime_s server);
       write_observability obs o ~exposition:(fun () ->
           Scaguard.Server.exposition server)
  in
  let queue_capacity_t =
    Arg.(
      value & opt int 64
      & info [ "queue-capacity" ] ~docv:"N"
          ~doc:"Bounded request queue size; a full queue answers new \
                requests with an explicit $(b,busy) error (backpressure) \
                instead of buffering without limit.")
  in
  let max_line_t =
    Arg.(
      value
      & opt int (1 lsl 20)
      & info [ "max-line" ] ~docv:"BYTES"
          ~doc:"Longest accepted request frame; an oversized line is \
                discarded with a $(b,parse) error and the stream resyncs at \
                the next newline.")
  in
  let deadline_ms_t =
    Arg.(
      value & opt int 0
      & info [ "deadline-ms" ] ~docv:"MS"
          ~doc:"Default per-request deadline in milliseconds (0 = none); a \
                request's own $(b,deadline_ms) field overrides it.")
  in
  let stdio_flag_t =
    Arg.(
      value & flag
      & info [ "stdio" ]
          ~doc:"Speak the protocol on stdin/stdout (the default endpoint; \
                for tests and pipelines).")
  in
  let metrics_flag_t =
    Arg.(
      value & flag
      & info [ "metrics" ]
          ~doc:"Time every classified target and built model into the \
                latency histograms of the protocol's $(b,metrics) verb \
                (implied by $(b,--metrics-out)).  The verb's counters count \
                the daemon's work since start-up either way.")
  in
  Cmd.v
    (cmd_info "serve"
       ~doc:"Run the resident detection daemon: load the PoC repository \
             once, keep its prepared DTW summaries warm, and answer \
             newline-framed JSON requests (detect/screen/explain/stats/\
             metrics/reload/ping/shutdown) over stdio, a Unix socket or \
             TCP.  \
             Verdicts are bit-identical to `detect-batch`.  The wire \
             protocol is specified in docs/SERVER.md.")
    Term.(
      const run $ seed_t $ config_t $ repository_t $ queue_capacity_t
      $ max_line_t $ deadline_ms_t $ socket_t $ tcp_t $ stdio_flag_t
      $ metrics_flag_t $ observability_t)

(* ---- client --------------------------------------------------------------------- *)

(* Exit codes for protocol errors: the Err-taxonomy codes keep their CLI
   meaning (1 usage, 2 runtime) and the server-lifecycle codes (busy,
   deadline, unavailable) get 3 — "retry later", distinguishable in scripts. *)
let exit_of_error_code = function
  | "invalid_config" | "empty_repository" | "bad_request" -> 1
  | "busy" | "deadline" | "unavailable" -> 3
  | _ -> 2 (* parse, io, internal *)

let client_cmd =
  let module J = Scaguard.Json in
  let connect ~socket ~tcp =
    let dial path domain addr =
      let fail e = Error (Scaguard.Err.Io { path; msg = Unix.error_message e }) in
      match Unix.socket domain Unix.SOCK_STREAM 0 with
      | exception Unix.Unix_error (e, _, _) -> fail e
      | fd -> (
        match Unix.connect fd addr with
        | () -> Ok fd
        | exception Unix.Unix_error (e, _, _) ->
          (try Unix.close fd with Unix.Unix_error _ -> ());
          fail e)
    in
    match (socket, tcp) with
    | Some path, None -> dial path Unix.PF_UNIX (Unix.ADDR_UNIX path)
    | None, Some hp ->
      let* host, port = parse_hostport hp in
      let* addr = Scaguard.Server.resolve_host host in
      dial hp Unix.PF_INET (Unix.ADDR_INET (addr, port))
    | _ ->
      Error
        (Scaguard.Err.Invalid_config
           {
             field = "--socket/--tcp";
             value = "(both or neither)";
             expected = "exactly one endpoint";
           })
  in
  let build_request ~op ~targets ~seed ~deadline_ms ~no_stream ~path ~trace_id
      =
    let opt key f = function Some v -> [ (key, f v) ] | None -> [] in
    let* body =
      match op with
      | ("detect" | "screen" | "explain") when targets = [] ->
        Error
          (Scaguard.Err.Invalid_config
             {
               field = "TARGET";
               value = "(none)";
               expected = "at least one program name (see `scaguard list`)";
             })
      | "detect" | "screen" | "explain" ->
        Ok
          ([
             ("targets", J.List (List.map (fun t -> J.Str t) targets));
             ("seed", J.Num (float_of_int seed));
           ]
          @ if op = "detect" && no_stream then [ ("stream", J.Bool false) ] else [])
      | "stats" | "metrics" | "ping" | "shutdown" -> Ok []
      | "reload" -> Ok (opt "path" (fun p -> J.Str p) path)
      | other ->
        Error
          (Scaguard.Err.Invalid_config
             {
               field = "VERB";
               value = other;
               expected =
                 "detect, screen, explain, stats, metrics, reload, ping or \
                  shutdown";
             })
    in
    Ok
      (J.Obj
         ((("id", J.Num 1.0) :: ("op", J.Str op) :: body)
         @ opt "deadline_ms" (fun d -> J.Num (float_of_int d)) deadline_ms
         @ opt "trace_id" (fun t -> J.Str t) trace_id))
  in
  (* One reply frame -> terminal output.  Verdict events print in
     detect-batch's exact format so CI can diff the two outputs. *)
  let render frame =
    match J.member "event" frame with
    | Some (J.Str "verdict") -> begin
      let str k = match J.member k frame with Some (J.Str s) -> s | _ -> "" in
      let num k = match J.member k frame with Some (J.Num f) -> f | _ -> 0.0 in
      let attack = J.member "attack" frame = Some (J.Bool true) in
      print_verdict_line (str "target")
        (if attack then Some (str "family") else None)
        (num "score");
      `Continue
    end
    | Some _ -> `Continue
    | None -> (
      match J.member "ok" frame with
      | Some (J.Bool true) -> begin
        (match J.member "op" frame with
        | Some (J.Str "metrics") -> begin
          match J.member "body" frame with
          | Some (J.Str body) -> print_string body
          | _ -> ()
        end
        | Some (J.Str ("detect" | "ping")) -> ()
        | _ -> print_endline (J.to_string frame));
        `Done 0
      end
      | _ -> begin
        let code, message =
          match J.member "error" frame with
          | Some err ->
            ( (match J.member "code" err with Some (J.Str c) -> c | _ -> "internal"),
              match J.member "message" err with Some (J.Str m) -> m | _ -> "?" )
          | None -> ("internal", "malformed reply frame")
        in
        Scaguard.Log.error "client.reply"
          ~fields:[ ("code", J.Str code) ]
          "scaguard client: %s (%s)" message code;
        `Done (exit_of_error_code code)
      end)
  in
  let run socket tcp seed deadline_ms no_stream reload_path trace_id op targets
      =
    let result =
      let* request =
        build_request ~op ~targets ~seed ~deadline_ms ~no_stream
          ~path:reload_path ~trace_id
      in
      let* fd = connect ~socket ~tcp in
      let ic = Unix.in_channel_of_descr fd in
      let oc = Unix.out_channel_of_descr fd in
      let line = J.to_string request ^ "\n" in
      match
        output_string oc line;
        flush oc;
        let rec read_replies () =
          match input_line ic with
          | exception End_of_file ->
            Scaguard.Log.error "client.eof"
              "scaguard client: server closed the connection";
            2
          | reply -> (
            match J.parse reply with
            | Error msg ->
              Scaguard.Log.error "client.parse"
                "scaguard client: unparseable reply: %s" msg;
              2
            | Ok frame -> (
              match render frame with
              | `Continue -> read_replies ()
              | `Done code -> code))
        in
        read_replies ()
      with
      | code ->
        (try Unix.close fd with Unix.Unix_error _ -> ());
        Ok code
      | exception Sys_error msg ->
        (try Unix.close fd with Unix.Unix_error _ -> ());
        Error (Scaguard.Err.Io { path = "<connection>"; msg })
    in
    match result with
    | Ok code -> code
    | Error e ->
      Scaguard.Log.err "client.error" e;
      Scaguard.Err.exit_code e
  in
  let deadline_ms_t =
    Arg.(
      value
      & opt (some int) None
      & info [ "deadline-ms" ] ~docv:"MS"
          ~doc:"Ask the server to abandon the request after MS milliseconds.")
  in
  let no_stream_t =
    Arg.(
      value & flag
      & info [ "no-stream" ]
          ~doc:"For $(b,detect): run the whole batch on the parallel engine \
                and receive all verdicts at the end (identical frames).")
  in
  let reload_path_t =
    Arg.(
      value
      & opt (some string) None
      & info [ "path" ] ~docv:"FILE"
          ~doc:"For $(b,reload): the repository file to swap in (default: \
                the file the server was started from).")
  in
  let verb_t =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"VERB"
          ~doc:"Protocol request: $(b,detect), $(b,screen), $(b,explain), \
                $(b,stats), $(b,metrics), $(b,reload), $(b,ping) or \
                $(b,shutdown).")
  in
  let targets_t =
    Arg.(
      value & pos_right 0 string []
      & info [] ~docv:"TARGET"
          ~doc:"Programs to classify (for detect/screen; see `list`).")
  in
  Cmd.v
    (cmd_info "client"
       ~doc:"Send one request to a running `scaguard serve` and render the \
             reply: detect prints verdicts in `detect-batch`'s format, \
             metrics prints the Prometheus exposition, other verbs print \
             the reply frame.  Exit 3 means \"retry later\" (busy, \
             deadline, or a draining server).")
    Term.(
      const run $ socket_t $ tcp_t $ seed_t $ deadline_ms_t $ no_stream_t
      $ reload_path_t $ trace_id_t $ verb_t $ targets_t)

(* ---- main ----------------------------------------------------------------------- *)

let () =
  let doc = "SCAGuard: cache side-channel attack detection (DAC'23 reproduction)" in
  let info = Cmd.info "scaguard" ~version:Scaguard.Service.version ~doc ~exits in
  exit
    (Cmd.eval'
       (Cmd.group info
          [
            list_cmd; leak_cmd; model_cmd; similarity_cmd; compare_cmd;
            detect_cmd; explain_cmd;
            detect_batch_cmd; build_repo_cmd; migrate_repo_cmd;
            dot_cmd; compile_cmd; assemble_cmd; disasm_cmd; detect_binary_cmd;
            heatmap_cmd; export_dataset_cmd; scadet_cmd; serve_cmd; client_cmd;
          ]))
