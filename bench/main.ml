(* The benchmark harness: regenerates every table and figure of the paper's
   evaluation (Tables II-VI, Fig. 5), the ablation table, and Bechamel
   micro-benchmarks of the pipeline stages (the Section V time-cost
   analysis), plus the extensions' artifacts: the large-repository index
   sweep and the detector showdown.  Per-layer timings of a whole screen or
   serve session are perfbench's (perfbench/README.md).

   Usage:
     dune exec bench/main.exe                 # everything, default sizes
     dune exec bench/main.exe -- table6       # one artifact
     dune exec bench/main.exe -- --per-family 40 table6
     dune exec bench/main.exe -- --seed 7 all

   Sample counts default to 16 per attack type (the paper uses 400; pass
   --per-family 400 for a full-scale run — the shape is stable from ~16
   onward). *)

let per_family = ref 16
let seed = ref 20260704
let out_dir = ref None
let index_scales = ref [ 1_000; 10_000; 100_000 ]
let artifacts = ref []

let usage = "main.exe [--per-family N] [--seed S] [--out DIR] [--index-scales N,N,..] [table1..table6|fig5|ablation|extended|clusters|robustness|scaling|index|compare|timecost|all]"

(* A bad flag value is refused before the banner, like an unknown artifact:
   the flag and the usage line on stderr, exit 1. *)
let usage_error flag what =
  Printf.eprintf "%s: %s\n%s\n" flag what usage;
  exit 1

let int_arg ?(min = min_int) flag v =
  match int_of_string_opt v with
  | Some n when n >= min -> n
  | _ ->
    let bound = if min = min_int then "" else Printf.sprintf " >= %d" min in
    usage_error flag (Printf.sprintf "expected an integer%s, got %S" bound v)

let () =
  let rec parse = function
    | [] -> ()
    | [ ("--per-family" | "--seed" | "--out" | "--index-scales") as flag ] ->
      usage_error flag "missing value"
    | "--per-family" :: n :: rest ->
      per_family := int_arg ~min:1 "--per-family" n;
      parse rest
    | "--seed" :: s :: rest ->
      seed := int_arg "--seed" s;
      parse rest
    | "--out" :: dir :: rest ->
      out_dir := Some dir;
      parse rest
    | "--index-scales" :: ns :: rest ->
      index_scales :=
        List.map (int_arg ~min:1 "--index-scales")
          (String.split_on_char ',' ns);
      parse rest
    | x :: rest ->
      artifacts := x :: !artifacts;
      parse rest
  in
  parse (List.tl (Array.to_list Sys.argv))

let rng () = Sutil.Rng.create !seed

let section name = Printf.printf "\n===== %s =====\n%!" name

let write_file path contents =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc contents)

let out_path dir file =
  (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  Filename.concat dir file

(* print a table; also write it as CSV when --out is given *)
let emit_table ~artifact t =
  Sutil.Table.print t;
  match !out_dir with
  | None -> ()
  | Some dir ->
    let path = out_path dir (artifact ^ ".csv") in
    write_file path (Sutil.Table.to_csv t);
    Printf.printf "(csv written to %s)\n" path

let fail fmt = Printf.ksprintf (fun m -> prerr_endline m; exit 1) fmt

(* The index stage's identity assertion: the same ties, family and score,
   down to the score's float bits, target by target. *)
let check_verdicts what (expected : Scaguard.Detector.verdict array) actual =
  Array.iteri
    (fun i (v : Scaguard.Detector.verdict) ->
      let p : Scaguard.Detector.verdict = actual.(i) in
      if
        v.Scaguard.Detector.best_matches <> p.Scaguard.Detector.best_matches
        || v.Scaguard.Detector.best_family <> p.Scaguard.Detector.best_family
        || v.Scaguard.Detector.best_score <> p.Scaguard.Detector.best_score
        || Int64.bits_of_float v.Scaguard.Detector.best_score
           <> Int64.bits_of_float p.Scaguard.Detector.best_score
      then fail "%s verdict mismatch at target %d" what i)
    expected

(* ---- Table I: the HPC events (static reference) -------------------------- *)

let table1 () =
  section "Table I: HPC events used in this work";
  let t = Sutil.Table.create ~title:"" [ "Scope"; "Event" ] in
  let scope e =
    match e with
    | Hpc.Event.L1d_load_miss | Hpc.Event.L1d_load_hit | Hpc.Event.L1d_store_hit
    | Hpc.Event.L1i_load_miss -> "L1 Cache"
    | Hpc.Event.Llc_load_miss | Hpc.Event.Llc_load_hit | Hpc.Event.Llc_store_miss
    | Hpc.Event.Llc_store_hit -> "LLC"
    | Hpc.Event.Branch_miss | Hpc.Event.Branch_load_miss | Hpc.Event.Cache_miss
    | Hpc.Event.Timestamp -> "Others"
  in
  List.iter
    (fun e -> Sutil.Table.add_row t [ scope e; Hpc.Event.to_string e ])
    Hpc.Event.all;
  Sutil.Table.print t

(* ---- Tables II / III ------------------------------------------------------ *)

let table2 () =
  section "Table II: the attack dataset";
  Sutil.Table.print (Experiments.Datasets.table2 ~rng:(rng ()) ~per_family:!per_family)

let table3 () =
  section "Table III: the benign dataset";
  Sutil.Table.print (Experiments.Datasets.table3 ~rng:(rng ()) ~count:(!per_family * 4))

(* ---- Table IV -------------------------------------------------------------- *)

let table4 () =
  section "Table IV: accuracy of attack-relevant BB identification";
  let rows = Experiments.Table4.evaluate ~rng:(rng ()) ~per_family:!per_family in
  emit_table ~artifact:"table4" (Experiments.Table4.to_table rows)

(* ---- Table V ---------------------------------------------------------------- *)

let table5 () =
  section "Table V: similarity comparison of 5 typical scenarios";
  let rows = Experiments.Table5.evaluate ~rng:(rng ()) in
  emit_table ~artifact:"table5" (Experiments.Table5.to_table rows);
  Printf.printf
    "(paper: S1 94.31%%, S2 84.32%%, S3 74.48%%, S4 66.92%%, S5 15.10%%)\n"

(* ---- Table VI ----------------------------------------------------------------- *)

let table6 () =
  section "Table VI: classification results (E1-E4, 5 approaches)";
  let results = Experiments.Table6.evaluate_all ~rng:(rng ()) ~per_family:!per_family in
  emit_table ~artifact:"table6" (Experiments.Table6.to_table results);
  Printf.printf
    "(paper SCAGUARD F1: E1 96.52%%, E2 95.03%%, E3-1 91.25%%, E3-2 91.18%%, E4 92.25%%;\n\
    \ SCADET collapses to 0 on E2-E4, learning baselines drop on E3)\n"

(* ---- Fig 5 ---------------------------------------------------------------------- *)

let fig5 () =
  section "Fig. 5: classification vs similarity threshold";
  let points = Experiments.Fig5.evaluate ~rng:(rng ()) ~per_family:!per_family () in
  emit_table ~artifact:"fig5" (Experiments.Fig5.to_table points);
  (match Experiments.Fig5.plateau points with
  | Some (lo, hi) ->
    Printf.printf
      ">=90%% plateau: %.0f%%-%.0f%% (paper: 30%%-60%%; our similarity scale \
       sits higher, threshold %.0f%% is its middle)\n"
      (100.0 *. lo) (100.0 *. hi)
      (100.0 *. Scaguard.Detector.default_threshold)
  | None -> Printf.printf "no >=90%% plateau at this sample size\n");
  (* a text rendering of the curves *)
  Printf.printf "\n  F1 curve: ";
  List.iter
    (fun p ->
      Printf.printf "%s"
        (if p.Experiments.Fig5.f1 >= 0.9 then "#"
         else if p.Experiments.Fig5.f1 >= 0.7 then "+"
         else "."))
    points;
  Printf.printf "  (thresholds 5%%..95%%)\n"

(* ---- Ablation ------------------------------------------------------------------- *)

let ablation () =
  section "Ablation: design choices of DESIGN.md section 5";
  let results =
    List.map
      (fun v ->
        (v, Experiments.Ablation.detection_scores ~rng:(rng ()) ~per_family:!per_family v))
      Experiments.Ablation.variants
  in
  emit_table ~artifact:"ablation" (Experiments.Ablation.to_table results)

(* ---- Extended baselines --------------------------------------------------------------- *)

let extended () =
  section "Extended baselines: anomaly detection & Phased-Guard (related work)";
  let results =
    List.map
      (fun task ->
        (task, Experiments.Extended.evaluate ~rng:(rng ()) ~per_family:!per_family task))
      [ Experiments.Table6.E1; Experiments.Table6.E2 ]
  in
  emit_table ~artifact:"extended" (Experiments.Extended.to_table results);
  Printf.printf
    "(the victim-oriented anomaly detector needs no attack samples but cannot\n\
    \ classify families; Phased-Guard gates a classifier behind it)\n"

(* ---- Unsupervised family discovery ---------------------------------------------------- *)

let clusters () =
  section "Unsupervised family discovery: clustering the PoC models";
  let labelled =
    List.map
      (fun (s : Workloads.Attacks.spec) ->
        let res = Workloads.Attacks.run_spec s in
        ( (Scaguard.Pipeline.analyze ~name:s.Workloads.Attacks.name
             ~program:s.Workloads.Attacks.program res)
            .Scaguard.Pipeline.model,
          Workloads.Label.to_string s.Workloads.Attacks.label ))
      (Workloads.Attacks.base_pocs ())
  in
  List.iter
    (fun threshold ->
      Printf.printf "threshold %.0f%%:\n" (100.0 *. threshold);
      List.iteri
        (fun i cluster ->
          Printf.printf "  cluster %d: %s\n" i
            (String.concat ", "
               (List.map
                  (fun m ->
                    Printf.sprintf "%s[%s]" m.Scaguard.Model.name
                      (List.assq m labelled))
                  cluster)))
        (Scaguard.Cluster.by_similarity ~threshold (List.map fst labelled)))
    [ 0.80; 0.85; 0.90 ];
  Printf.printf
    "(at 85%% single-linkage recovers exactly the paper's four families,\n\
    \ with no labels involved)\n"

(* ---- Robustness extensions ---------------------------------------------------------- *)

let robustness () =
  section "Robustness: replacement policies and victim-less detection";
  let rows = Experiments.Robustness.policy_matrix ~rng:(rng ()) in
  emit_table ~artifact:"robustness" (Experiments.Robustness.to_policy_table rows);
  let ok = List.filter (fun r -> r.Experiments.Robustness.detected) rows in
  Printf.printf "detected under every policy: %d/%d\n\n" (List.length ok)
    (List.length rows);
  Printf.printf "Detection with the victim process absent (behavior, not leak):\n";
  List.iter
    (fun (name, detected) ->
      Printf.printf "  %-22s %s\n" name (if detected then "detected" else "MISSED"))
    (Experiments.Robustness.detection_without_victim ~rng:(rng ()));
  Printf.printf "\nDetection with an unrelated benign co-runner instead of the victim:\n";
  List.iter
    (fun (name, detected) ->
      Printf.printf "  %-22s %s\n" name (if detected then "detected" else "MISSED"))
    (Experiments.Robustness.detection_with_noise ~rng:(rng ()))

(* ---- Scaling study ------------------------------------------------------------------- *)

let scaling () =
  section "Scaling: SCAGuard E1 quality vs samples per attack type";
  let t =
    Sutil.Table.create ~title:"Scaling study (E1, SCAGUARD)"
      [ "per-family"; "Precision"; "Recall"; "F1-score" ]
  in
  List.iter
    (fun n ->
      let rng = rng () in
      let td = Experiments.Table6.prepare ~rng ~per_family:n Experiments.Table6.E1 in
      let s = Experiments.Table6.evaluate_approach ~rng td Experiments.Table6.Scaguard in
      Sutil.Table.add_row t
        [
          string_of_int n;
          Sutil.Table.pct s.Ml.Metrics.precision;
          Sutil.Table.pct s.Ml.Metrics.recall;
          Sutil.Table.pct s.Ml.Metrics.f1;
        ])
    [ 4; 8; 16; 32 ];
  emit_table ~artifact:"scaling" t;
  Printf.printf "(the shape is stable from small sample counts on)\n"

(* ---- Index: sublinear repository search ------------------------------------------- *)

(* The vantage-point index only pays off on repositories far larger than the
   per-family PoC set, so this stage grows a synthetic population in model
   space: a seed set of pipeline-built models (base PoCs plus Mutate
   variants) is expanded by deterministic entry-level edits — dropped or
   duplicated entries, token-sequence splices and CST swaps, all drawn from
   the seed set's own entry pool so every synthetic entry carries a real
   measured cache transition.  That keeps 100k-model repositories cheap to
   build while preserving the family-cluster structure the index exploits. *)
let index_bench () =
  section "Index: vantage-point repository search vs the linear cascade";
  let module L = Workloads.Label in
  let module D = Workloads.Dataset in
  let module M = Scaguard.Model in
  let time f =
    let t0 = Scaguard.Obs.Clock.now_ns () in
    let r = f () in
    (r, Scaguard.Obs.Clock.elapsed_s ~since:t0)
  in
  let rng0 = rng () in
  let base_repo = Experiments.Common.repository ~rng:rng0 L.attack_labels in
  let mutant_samples =
    List.concat_map
      (fun l ->
        List.map
          (fun s -> (L.to_string l, s))
          (D.mutated_attacks ~rng:rng0 ~count:(max 2 (min !per_family 8)) l))
      L.attack_labels
  in
  let mutant_jobs =
    Array.of_list (List.map (fun (_, s) -> Experiments.Common.job s) mutant_samples)
  in
  let mutant_models =
    match Scaguard.Service.build Scaguard.Config.default mutant_jobs with
    | Ok (models, _) -> models
    | Error e -> fail "index: build failed: %s" (Scaguard.Err.to_string e)
  in
  let base =
    Array.of_list
      (List.map
         (fun (p : Scaguard.Detector.poc) ->
           (p.Scaguard.Detector.family, p.Scaguard.Detector.model))
         base_repo
      @ List.mapi
          (fun i (family, _) -> (family, mutant_models.(i)))
          mutant_samples)
  in
  (* the entry pool every synthetic edit draws from *)
  let pool =
    Array.concat
      (Array.to_list (Array.map (fun (_, m) -> M.entries_array m) base))
  in
  if Array.length pool = 0 then fail "index: empty entry pool";
  let synth ~rng ~count =
    Array.init count (fun i ->
        let family, base_m = base.(i mod Array.length base) in
        let entries = Array.to_list (M.entries_array base_m) in
        let n = List.length entries in
        (* drop the head entry on some models (keeps >= 2 entries) *)
        let entries =
          match entries with
          | _ :: tl when n > 2 && Sutil.Rng.int rng 4 = 0 -> tl
          | es -> es
        in
        (* duplicate the head entry on some others *)
        let entries =
          if Sutil.Rng.int rng 4 = 0 then List.hd entries :: entries
          else entries
        in
        (* splice roughly one entry per model: a token-sequence cut + a
           tail borrowed from a random pool entry, and that entry's CST —
           every edit stays inside observed token/magnitude space *)
        let k = List.length entries in
        let victim = Sutil.Rng.int rng k in
        let entries =
          List.mapi
            (fun j (e : M.entry) ->
              if j <> victim then e
              else begin
                let p = pool.(Sutil.Rng.int rng (Array.length pool)) in
                let en = e.M.normalized and pn = p.M.normalized in
                let cut = Sutil.Rng.int rng (Array.length en + 1) in
                let add =
                  if Array.length pn = 0 then [||]
                  else Array.sub pn 0 (Sutil.Rng.int rng (Array.length pn + 1))
                in
                let normalized = Array.append (Array.sub en 0 cut) add in
                let normalized =
                  if Array.length normalized = 0 then en else normalized
                in
                M.make_entry ~block:e.M.block ~instrs:e.M.instrs ~normalized
                  ~cst:p.M.cst ~first_time:e.M.first_time
              end)
            entries
        in
        (family, M.make ~name:(Printf.sprintf "synth-%07d" i) entries))
  in
  let t =
    Sutil.Table.create
      ~title:"Repository index: visited fraction and speedup"
      [
        "models"; "targets"; "build (s)"; "linear (s)"; "indexed (s)";
        "speedup"; "visited"; "pruned by index"; "nodes"; "image (bytes)";
        "load (s)";
      ]
  in
  List.iter
    (fun scale ->
      let rng = Sutil.Rng.create (!seed lxor (scale * 2654435761)) in
      let popul = synth ~rng ~count:scale in
      let repo =
        Array.to_list
          (Array.map
             (fun (family, model) -> { Scaguard.Detector.family; model })
             popul)
      in
      let tcount = min scale (if scale >= 100_000 then 16 else 32) in
      (* targets: fresh synthetic variants, not repository members — the
         realistic "close to one family, far from the rest" query *)
      let targets =
        Array.map snd (synth ~rng ~count:tcount)
      in
      Printf.printf "scale %d: %d models, %d targets...\n%!" scale scale
        tcount;
      let prep_lin = Scaguard.Detector.prepare repo in
      let spec =
        { Scaguard.Vpindex.default_spec with
          Scaguard.Vpindex.mode = Scaguard.Vpindex.Force;
          seed = Scaguard.Vpindex.seed_of_salt (string_of_int !seed) }
      in
      let ix, build_dt =
        time (fun () ->
            Scaguard.Vpindex.build spec
              (Scaguard.Detector.prepared_summaries prep_lin))
      in
      if ix = None then fail "index: Force build returned no index";
      let prep_ix = Scaguard.Detector.attach_index prep_lin ix in
      (* cold start of the indexed image: an eager load re-derives every
         summary and index bound from the models *)
      let path = Filename.temp_file "scaguard-bench-index" ".img" in
      (match Scaguard.Persist.save_repository_bin_result ?index:ix ~path repo with
      | Ok () -> ()
      | Error e -> fail "index: save failed: %s" (Scaguard.Err.to_string e));
      let image_bytes = (Unix.stat path).Unix.st_size in
      let loaded, load_dt =
        time (fun () -> Scaguard.Persist.load_repository_prepared_result ~path)
      in
      Sys.remove path;
      (match loaded with
      | Ok (_, prep) when Scaguard.Detector.prepared_index prep <> None -> ()
      | Ok _ -> fail "index: the image loaded without its index"
      | Error e -> fail "index: load failed: %s" (Scaguard.Err.to_string e));
      let ws_lin = Scaguard.Dtw.workspace () in
      let v_lin, lin_dt =
        time (fun () ->
            Array.map
              (Scaguard.Detector.classify_prepared ~ws:ws_lin prep_lin)
              targets)
      in
      let ws_ix = Scaguard.Dtw.workspace () in
      let ixc = Scaguard.Vpindex.counters () in
      let v_ix, ix_dt =
        time (fun () ->
            Array.map
              (Scaguard.Detector.classify_prepared ~ws:ws_ix ~ixc prep_ix)
              targets)
      in
      check_verdicts (Printf.sprintf "index (scale %d):" scale) v_lin v_ix;
      let lin_evals = Scaguard.Dtw.lb_evals ws_lin in
      let ix_evals = Scaguard.Dtw.lb_evals ws_ix in
      let visited =
        if lin_evals = 0 then 1.0
        else float_of_int ix_evals /. float_of_int lin_evals
      in
      (* the headline acceptance bar: at the 10k scale the index must
         evaluate under 35% of the linear cascade's lower bounds *)
      if scale = 10_000 && visited >= 0.35 then
        fail "index: visited fraction %.1f%% at 10k (must be < 35%%)"
          (100.0 *. visited);
      Sutil.Table.add_row t
        [
          string_of_int scale;
          string_of_int tcount;
          Printf.sprintf "%.4f" build_dt;
          Printf.sprintf "%.4f" lin_dt;
          Printf.sprintf "%.4f" ix_dt;
          Printf.sprintf "%.2fx" (lin_dt /. ix_dt);
          Printf.sprintf "%.1f%%" (100.0 *. visited);
          string_of_int ixc.Scaguard.Vpindex.pairs_pruned_index;
          string_of_int ixc.Scaguard.Vpindex.nodes_visited;
          string_of_int image_bytes;
          Printf.sprintf "%.4f" load_dt;
        ])
    !index_scales;
  emit_table ~artifact:"index" t;
  Printf.printf
    "verdicts: indexed classification bit-identical to the linear cascade at \
     every scale\n"

(* ---- Compare: every registered detector on one dataset ---------------------------- *)

(* The showdown table from `scaguard compare`, as a bench artifact: one
   dataset, every detector, accuracy + latency + throughput side by side.
   The stage also enforces the ensemble's contract — its detection F1 and
   throughput must not fall below pure-DTW SCAGuard's, otherwise the cheap
   screen is mis-tuned and the two-tier split is a net loss.  Throughput
   is a median over round-robin predict phases (Showdown.repeats), since
   the stage runs beside the whole test suite under @smoke; the
   deterministic half of the contract is that the screen fast-rejects at
   least one run, so the ensemble runs strictly fewer DTW slow paths than
   pure SCAGuard, which runs one per test run, and never escalates more
   runs than it screened. *)
let compare_bench () =
  section "Compare: every detector over one generated dataset";
  let module S = Experiments.Showdown in
  let rng = rng () in
  let t = S.evaluate ~rng ~per_family:(max 4 !per_family) () in
  emit_table ~artifact:"compare" (S.to_table t);
  if t.S.repeats < 5 then
    fail "compare: throughput is a median of %d predict phases (need >= 5)"
      t.S.repeats;
  let row key =
    match List.find_opt (fun (r : S.row) -> r.S.key = key) t.S.rows with
    | Some r -> r
    | None -> fail "compare: detector %S missing from the showdown" key
  in
  let sg = row "scaguard" in
  let en = row "ensemble" in
  if en.S.detection.Ml.Metrics.f1 < sg.S.detection.Ml.Metrics.f1 then
    fail
      "compare: ensemble detection F1 %.4f fell below pure SCAGuard's %.4f \
       — the screen is fast-rejecting attacks"
      en.S.detection.Ml.Metrics.f1 sg.S.detection.Ml.Metrics.f1;
  let stats =
    match en.S.ensemble with
    | Some s -> s
    | None -> fail "compare: ensemble row carries no screening stats"
  in
  if stats.Detect.Ensemble.slow_path >= sg.S.tested then
    fail
      "compare: the ensemble sent %d of %d runs to DTW, as many as pure \
       SCAGuard — the screen fast-rejected none"
      stats.Detect.Ensemble.slow_path sg.S.tested;
  if Detect.Ensemble.slow_path_rate stats > 1.0 then
    fail "compare: the ensemble escalated %d runs but screened only %d"
      stats.Detect.Ensemble.slow_path stats.Detect.Ensemble.screened;
  if en.S.throughput < sg.S.throughput then
    fail
      "compare: ensemble median throughput %.1f runs/s below pure SCAGuard's \
       %.1f over %d predict phases — the screen costs more than the DTW it \
       skips"
      en.S.throughput sg.S.throughput t.S.repeats;
  Printf.printf
    "verdicts: ensemble >= SCAGuard on detection F1 (%.4f vs %.4f) and median \
     throughput over %d predict phases (%.1f vs %.1f runs/s), DTW slow path \
     %d/%d vs %d\n"
    en.S.detection.Ml.Metrics.f1 sg.S.detection.Ml.Metrics.f1 t.S.repeats
    en.S.throughput sg.S.throughput stats.Detect.Ensemble.slow_path
    stats.Detect.Ensemble.screened sg.S.tested

(* ---- Time cost (Section V), via Bechamel ------------------------------------------ *)

let timecost () =
  section "Time cost of pipeline stages (Section V), Bechamel";
  let open Bechamel in
  let sample =
    Workloads.Dataset.with_harness ~rng:(rng ())
      (Workloads.Dataset.of_spec
         (Workloads.Attacks.flush_reload ~style:Workloads.Attacks.Iaik ()))
  in
  let exec_result = Workloads.Dataset.run sample in
  let analysis =
    Scaguard.Pipeline.analyze ~name:"bench" ~program:sample.Workloads.Dataset.program
      exec_result
  in
  let cfg_g = analysis.Scaguard.Pipeline.cfg in
  let info = analysis.Scaguard.Pipeline.info in
  let model = analysis.Scaguard.Pipeline.model in
  let other =
    (Scaguard.Pipeline.run_and_analyze
       ~init:(fun _ -> ())
       (Workloads.Attacks.prime_probe ~style:Workloads.Attacks.Iaik ())
         .Workloads.Attacks.program)
      .Scaguard.Pipeline.model
  in
  let tests =
    [
      Test.make ~name:"collect: execute PoC (runtime data)"
        (Staged.stage (fun () -> ignore (Workloads.Dataset.run sample)));
      Test.make ~name:"cfg: build CFG"
        (Staged.stage (fun () ->
             ignore (Cfg.Graph.of_program sample.Workloads.Dataset.program)));
      Test.make ~name:"identify: attack-relevant BBs"
        (Staged.stage (fun () ->
             ignore (Scaguard.Relevant.identify cfg_g exec_result.Cpu.Exec.collector)));
      Test.make ~name:"algorithm1: attack-relevant graph"
        (Staged.stage (fun () ->
             ignore
               (Scaguard.Attack_graph.build cfg_g
                  ~hpc:info.Scaguard.Relevant.hpc_of_block
                  ~relevant:info.Scaguard.Relevant.relevant)));
      Test.make ~name:"cst: model construction"
        (Staged.stage (fun () ->
             ignore
               (Scaguard.Model.build ~name:"m" info analysis.Scaguard.Pipeline.attack_graph)));
      Test.make ~name:"dtw: model comparison"
        (Staged.stage (fun () -> ignore (Scaguard.Dtw.compare_models model other)));
    ]
  in
  let benchmark test =
    let ols =
      Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
    in
    let instance = Toolkit.Instance.monotonic_clock in
    let cfg =
      Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:(Some 1000) ()
    in
    let raw = Benchmark.all cfg [ instance ] (Test.make_grouped ~name:"" [ test ]) in
    let results = Analyze.all ols instance raw in
    Hashtbl.iter
      (fun name result ->
        match Analyze.OLS.estimates result with
        | Some [ est ] ->
          Printf.printf "  %-42s %12.1f ns/run\n%!" name est
        | _ -> Printf.printf "  %-42s (no estimate)\n%!" name)
      results
  in
  List.iter benchmark tests

let all () =
  table1 (); table2 (); table3 (); table4 (); table5 (); table6 ();
  fig5 (); ablation (); extended (); clusters (); robustness (); scaling ();
  index_bench (); compare_bench (); timecost ()

let () =
  Printf.printf
    "SCAGuard reproduction benches (per-family %d, seed %d)\n%!"
    !per_family !seed;
  let run = function
    | "table1" -> table1 ()
    | "table2" -> table2 ()
    | "table3" -> table3 ()
    | "table4" -> table4 ()
    | "table5" -> table5 ()
    | "table6" -> table6 ()
    | "fig5" -> fig5 ()
    | "ablation" -> ablation ()
    | "robustness" -> robustness ()
    | "extended" -> extended ()
    | "clusters" -> clusters ()
    | "scaling" -> scaling ()
    | "index" -> index_bench ()
    | "compare" -> compare_bench ()
    | "timecost" -> timecost ()
    | "all" -> all ()
    | other ->
      Printf.eprintf "unknown artifact %S\n%s\n" other usage;
      exit 1
  in
  match !artifacts with
  | [] -> all ()
  | xs -> List.iter run (List.rev xs)
