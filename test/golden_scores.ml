(* Golden scores: the suite's 4-PoC repository against a few named
   targets.  Prints every pairwise score, raw score and lower bound as
   exact hex floats, then each target's verdict and the engine counters
   with the repository index off and forced, then every index event of a
   forced two-model-leaf index with its bound.  [dune runtest] diffs the
   output against fixtures/golden_scores.expected, so a moved score bit or
   work count shows up as a diff. *)

module A = Workloads.Attacks
module D = Workloads.Dataset
module SG = Scaguard

let model_of (s : D.sample) =
  (SG.Pipeline.analyze ~name:s.D.name ~program:s.D.program (D.run s)).SG.Pipeline.model

let of_spec spec = model_of (D.of_spec spec)

let repository =
  List.map
    (fun (family, spec) -> { SG.Detector.family; model = of_spec spec })
    [
      ("FR-F", A.flush_reload ~style:A.Iaik ());
      ("PP-F", A.prime_probe ~style:A.Iaik ());
      ("S-FR", A.spectre_fr ~style:A.Classic ());
      ("S-PP", A.spectre_pp ());
    ]

let targets =
  Array.of_list
    (List.map of_spec
       [ A.flush_reload ~style:A.Mastik (); A.prime_probe ~style:A.Jzhang (); A.evict_reload () ]
    @ List.map model_of (D.benign_samples ~rng:(Sutil.Rng.create 7) ~count:2)
    @ List.map (fun (p : SG.Detector.poc) -> p.SG.Detector.model) repository)

let () =
  let summaries = List.map (fun (p : SG.Detector.poc) -> (p, SG.Dtw.summarize p.SG.Detector.model)) repository in
  Array.iter
    (fun t ->
      let st = SG.Dtw.summarize t in
      List.iter
        (fun ((p : SG.Detector.poc), sp) ->
          List.iter
            (fun alpha ->
              Printf.printf "%s vs %s alpha %g: score %h raw %h lb %h\n" t.SG.Model.name
                p.SG.Detector.family alpha
                (SG.Dtw.compare_models ~alpha t p.SG.Detector.model)
                (SG.Dtw.compare_models_raw ~alpha t p.SG.Detector.model)
                (SG.Dtw.lower_bound ~alpha st sp))
            [ 0.0; 0.5; 0.9 ])
        summaries)
    targets;
  List.iter
    (fun (label, index) ->
      let prep = SG.Detector.prepare ?index repository in
      let verdicts, _, s = SG.Engine.classify_batch ~domains:1 prep targets in
      Array.iteri
        (fun i (v : SG.Detector.verdict) ->
          Printf.printf "index %s: %s -> %s %h\n" label targets.(i).SG.Model.name
            (Option.value v.SG.Detector.best_family ~default:"-")
            v.SG.Detector.best_score)
        verdicts;
      Printf.printf
        "index %s: pairs %d cells %d pruned_lb %d abandoned %d cells_saved %d lb_evals %d \
         nodes_visited %d pruned_index %d\n"
        label s.SG.Engine.pairs s.SG.Engine.cells s.SG.Engine.pairs_pruned_lb
        s.SG.Engine.pairs_abandoned s.SG.Engine.cells_saved s.SG.Engine.lb_evals
        s.SG.Engine.nodes_visited s.SG.Engine.pairs_pruned_index)
    [
      ("off", None);
      ("forced", Some { SG.Vpindex.default_spec with SG.Vpindex.mode = SG.Vpindex.Force });
    ];
  (* A forced index with two-model leaves branches even over four models:
     every node and member bound of its search, per target, pins the
     sketches and the frontier order that single-leaf indexes never reach.
     Once over the 4-PoC repository, once over all 13 models built here. *)
  let deep = { SG.Vpindex.default_spec with SG.Vpindex.mode = SG.Vpindex.Force; leaf = 2 } in
  let everything =
    repository
    @ Array.to_list
        (Array.map (fun (m : SG.Model.t) -> { SG.Detector.family = m.SG.Model.name; model = m }) targets)
  in
  List.iter
    (fun (label, repo) ->
      let prep = SG.Detector.prepare ~index:deep repo in
      let _, records, _ = SG.Engine.classify_batch ~domains:1 ~explain:true prep targets in
      Array.iter
        (fun (r : SG.Provenance.t) ->
          Printf.printf "leaf 2 %s: %s:" label r.SG.Provenance.target;
          List.iter
            (function
              | SG.Provenance.Node_visited { bound; members } -> Printf.printf " visit %d %h" members bound
              | SG.Provenance.Subtree_pruned { bound; members } ->
                Printf.printf " prune_subtree %d %h" members bound
              | SG.Provenance.Member_pruned { bound } -> Printf.printf " prune_member 1 %h" bound)
            r.SG.Provenance.index_events;
          print_newline ())
        records)
    [ ("pocs", repository); ("all", everything) ]
