type poc = { family : string; model : Model.t }
type repository = poc list

type verdict = {
  best_matches : (string * string * float) list;
  best_family : string option;
  best_score : float;
}

let default_threshold = 0.60

(* Deterministic ordering: score descending, then family, then model name —
   ties must not depend on how the repository list was assembled. *)
let compare_scored (n1, f1, s1) (n2, f2, s2) =
  match Float.compare s2 s1 with
  | 0 -> (
    match String.compare f1 f2 with
    | 0 -> String.compare n1 n2
    | c -> c)
  | c -> c

let empty_verdict = { best_matches = []; best_family = None; best_score = 0.0 }

type prepared = {
  pocs : (poc * Dtw.summary) array;
  index : Vpindex.t option;
}

let build_index index pocs =
  match index with
  | None -> None
  | Some spec -> Vpindex.build spec (Array.map snd pocs)

let prepare ?index repository =
  let pocs =
    Array.of_list (List.map (fun p -> (p, Dtw.summarize p.model)) repository)
  in
  { pocs; index = build_index index pocs }

let prepared_size prep = Array.length prep.pocs

let prepared_index prep = prep.index

let prepared_summaries prep = Array.map snd prep.pocs

let attach_index prep index =
  (match index with
  | Some ix when Vpindex.size ix <> Array.length prep.pocs ->
    invalid_arg
      (Printf.sprintf
         "Detector.attach_index: index covers %d models, repository has %d"
         (Vpindex.size ix) (Array.length prep.pocs))
  | _ -> ());
  { prep with index }

let classify_prepared ?(threshold = default_threshold) ?alpha ?ws ?band
    ?(prune = true) ?ixc prep target =
  let k = Array.length prep.pocs in
  (* provenance is pure observation: the builder (created only when the
     switch is on — one ref load, zero allocation otherwise) is written to
     but never read on this path, so the verdict is bit-identical with
     capture on or off.  The k = 0 case still records (and consumes any
     pending ensemble note), so every classification has a record. *)
  let prov =
    if Provenance.enabled () then
      Some (Provenance.start ~target:target.Model.name ~threshold)
    else None
  in
  if k = 0 then begin
    (match prov with
    | None -> ()
    | Some b ->
      Provenance.finish b ~best_matches:[] ~best_family:None ~best_score:0.0);
    empty_verdict
  end
  else begin
    (* the bounds are only sound for a convex blend of the two cost terms;
       exotic ablation alphas fall back to full scoring *)
    let prune =
      prune && (match alpha with None -> true | Some a -> a >= 0.0 && a <= 1.0)
    in
    let st = Dtw.summarize target in
    let best = ref neg_infinity in
    let kept = ref [] in
    (* the cutoff is the best score seen so far: a pair provably below it
       can never appear among the best-score ties.  The first pair visited
       is always scored exactly.  Every score that comes back is exact, so
       neither the visit order nor which strictly-losing pairs get pruned
       can change the verdict — the final ordering is compare_scored. *)
    let score ?lb i =
      let p, sp = prep.pocs.(i) in
      let cutoff = if prune && !best > neg_infinity then Some !best else None in
      (* the abandoned-counter delta distinguishes "lower bound proved it"
         from "the DP started and hit the cutoff" without touching the
         scoring path *)
      let ab0 =
        match (prov, ws) with
        | Some _, Some w -> Dtw.pairs_abandoned w
        | _ -> 0
      in
      let r = Dtw.compare_summaries ?ws ?band ?alpha ?cutoff ?lb sp st in
      (match prov with
      | None -> ()
      | Some b ->
        Provenance.candidate b ~poc:p.model.Model.name ~family:p.family ?lb
          (match r with
          | Some s -> Provenance.Scored s
          | None -> (
            match ws with
            | Some w when Dtw.pairs_abandoned w > ab0 -> Provenance.Abandoned
            | Some _ -> Provenance.Pruned_lb
            | None -> Provenance.Pruned)));
      match r with
      | Some s ->
        kept := (p.model.Model.name, p.family, s) :: !kept;
        if s > !best then best := s
      | None -> ()
    in
    (match prep.index with
    | Some ix when prune ->
      (* best-first over the index: subtrees whose aggregate bound cannot
         beat the running best are skipped wholesale.  The radius mirrors
         compare_summaries' cutoff conversion exactly, margin included. *)
      let dmax () =
        if !best > neg_infinity then 1.0 -. !best +. Dtw.prune_margin
        else infinity
      in
      let trace =
        match prov with
        | None -> None
        | Some b ->
          Provenance.set_path b Provenance.Indexed;
          Some (fun ev -> Provenance.index_event b ev)
      in
      Vpindex.search ?alpha ?ixc ?trace ix st ~dmax ~visit:(fun i -> score i)
    | _ ->
      (* linear cascade: visiting PoCs by ascending lower bound tends to
         establish a tight cutoff on the very first DP, maximizing what
         the cascade can prune afterwards.  The index tie-break keeps the
         visit order deterministic. *)
      let order =
        if not prune then Array.init k (fun i -> (i, None))
        else begin
          let lbs =
            Array.init k (fun i ->
                (i, Some (Dtw.lower_bound ?ws ?alpha (snd prep.pocs.(i)) st)))
          in
          Array.sort
            (fun (i, la) (j, lb) ->
              match Float.compare (Option.get la) (Option.get lb) with
              | 0 -> Int.compare i j
              | c -> c)
            lbs;
          lbs
        end
      in
      Array.iter (fun (i, lb) -> score ?lb i) order);
    let b = !best in
    let best_matches =
      List.filter (fun (_, _, s) -> s = b) !kept |> List.sort compare_scored
    in
    let best_family =
      if b >= threshold then
        match best_matches with
        | (_, family, _) :: _ -> Some family
        | [] -> None
      else None
    in
    (match prov with
    | None -> ()
    | Some pb -> Provenance.finish pb ~best_matches ~best_family ~best_score:b);
    { best_matches; best_family; best_score = b }
  end

let score_all ?alpha ?ws ?band prep target =
  (* every score is reported, so there is nothing sound to skip: the index
     (when present) is deliberately not consulted *)
  let st = Dtw.summarize target in
  Array.to_list prep.pocs
  |> List.map (fun (p, sp) ->
         ( p.model.Model.name,
           p.family,
           Option.get (Dtw.compare_summaries ?ws ?band ?alpha sp st) ))
  |> List.sort compare_scored

let classify ?threshold ?alpha ?ws ?band ?prune repository target =
  classify_prepared ?threshold ?alpha ?ws ?band ?prune (prepare repository)
    target

let is_attack v = Option.is_some v.best_family
