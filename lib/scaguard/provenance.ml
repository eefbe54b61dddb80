(* Per-verdict decision provenance.

   One record per classified target, capturing *why* the verdict came out
   the way it did: the repository-index traversal (nodes visited and
   subtrees cut off, with the pooled bounds that justified each), every
   candidate PoC with its lower bound and outcome (scored / pruned by bound
   / abandoned mid-DP), and the final score down to its float bits.

   A record is a return value, never ambient state: the caller that asks
   for one starts a builder, [Detector.classify_prepared ~prov] writes into
   it (and never reads it back, so verdicts are bit-identical with or
   without one), and [finish] seals it with the verdict, the target's
   position in its batch and the run's trace id. *)

type index_event =
  | Node_visited of { bound : float; members : int }
      (** the search expanded this node: its pooled bound [bound] did not
          beat best-so-far, so its [members]-model subtree stayed live *)
  | Subtree_pruned of { bound : float; members : int }
      (** the best-first frontier's minimum bound exceeded the pruning
          radius: [members] models across every remaining subtree were
          proven losers and skipped without a lower-bound evaluation *)
  | Member_pruned of { bound : float }
      (** a leaf member's per-model screen bound exceeded the radius *)

type outcome =
  | Scored of float  (** full DTW ran (or was resolved exactly) *)
  | Pruned_lb  (** the cheap lower bound proved the pair irrelevant *)
  | Abandoned  (** the DP started but the cutoff ended it mid-matrix *)
  | Pruned
      (** proven irrelevant, bound-vs-abandon indistinguishable (no
          workspace counters were threaded through this call) *)

type candidate = {
  poc : string;
  family : string;
  lb : float option;  (** the precomputed lower bound, when one was used *)
  outcome : outcome;
}

type path = Linear | Indexed

type t = {
  seq : int;
  target : string;
  trace_id : string option;
  worker : int;
  path : path;
  index_events : index_event list;  (** in traversal order *)
  candidates : candidate list;  (** in evaluation order *)
  best_matches : (string * string * float) list;
  best_family : string option;
  best_score : float;
  threshold : float;
  duration_ns : int64;
}

(* ---- builder ---------------------------------------------------------------- *)

type builder = {
  b_target : string;
  b_threshold : float;
  b_t0 : int64;
  mutable b_path : path;
  mutable b_index_events : index_event list;  (* reversed *)
  mutable b_candidates : candidate list;  (* reversed *)
}

let start ~target ~threshold =
  {
    b_target = target;
    b_threshold = threshold;
    b_t0 = Monotonic_clock.now ();
    b_path = Linear;
    b_index_events = [];
    b_candidates = [];
  }

let set_path b p = b.b_path <- p
let index_event b ev = b.b_index_events <- ev :: b.b_index_events

let candidate b ~poc ~family ?lb outcome =
  b.b_candidates <- { poc; family; lb; outcome } :: b.b_candidates

let finish ?trace_id b ~seq ~best_matches ~best_family ~best_score =
  {
    seq;
    target = b.b_target;
    trace_id;
    worker = (Domain.self () :> int);
    path = b.b_path;
    index_events = List.rev b.b_index_events;
    candidates = List.rev b.b_candidates;
    best_matches;
    best_family;
    best_score;
    threshold = b.b_threshold;
    duration_ns = Int64.sub (Monotonic_clock.now ()) b.b_t0;
  }

(* ---- JSON ------------------------------------------------------------------- *)

let path_to_string = function Linear -> "linear" | Indexed -> "indexed"

(* Finite floats ride as JSON numbers (%.17g round-trips float64 exactly);
   non-finite values (an infinite pooled bound, say) ride as tagged strings,
   since JSON has no spelling for them. *)
let jfloat f =
  if Float.is_finite f then Json.Num f
  else
    Json.Str
      (if f > 0.0 then "Infinity"
       else if f < 0.0 then "-Infinity"
       else "NaN")

let index_event_to_json = function
  | Node_visited { bound; members } ->
    Json.Obj
      [
        ("event", Json.Str "visit");
        ("bound", jfloat bound);
        ("members", Json.Num (float_of_int members));
      ]
  | Subtree_pruned { bound; members } ->
    Json.Obj
      [
        ("event", Json.Str "prune_subtree");
        ("bound", jfloat bound);
        ("members", Json.Num (float_of_int members));
      ]
  | Member_pruned { bound } ->
    Json.Obj [ ("event", Json.Str "prune_member"); ("bound", jfloat bound) ]

let outcome_to_strings = function
  | Scored s -> ("scored", Some s)
  | Pruned_lb -> ("pruned_lb", None)
  | Abandoned -> ("abandoned", None)
  | Pruned -> ("pruned", None)

let candidate_to_json c =
  let outcome, score = outcome_to_strings c.outcome in
  Json.Obj
    ([ ("poc", Json.Str c.poc); ("family", Json.Str c.family) ]
    @ (match c.lb with Some lb -> [ ("lb", jfloat lb) ] | None -> [])
    @ [ ("outcome", Json.Str outcome) ]
    @ (match score with Some s -> [ ("score", jfloat s) ] | None -> []))

let to_json r =
  Json.Obj
    ([
       ("seq", Json.Num (float_of_int r.seq));
       ("target", Json.Str r.target);
     ]
    @ (match r.trace_id with
      | Some t -> [ ("trace_id", Json.Str t) ]
      | None -> [])
    @ [
        ("worker", Json.Num (float_of_int r.worker));
        ("path", Json.Str (path_to_string r.path));
      ]
    @ (match r.index_events with
      | [] -> []
      | evs -> [ ("index", Json.List (List.map index_event_to_json evs)) ])
    @ [
        ("candidates", Json.List (List.map candidate_to_json r.candidates));
        ( "best",
          Json.Obj
            [
              ( "matches",
                Json.List
                  (List.map
                     (fun (poc, family, score) ->
                       Json.Obj
                         [
                           ("poc", Json.Str poc);
                           ("family", Json.Str family);
                           ("score", jfloat score);
                         ])
                     r.best_matches) );
              ( "family",
                match r.best_family with
                | Some f -> Json.Str f
                | None -> Json.Null );
              ("score", jfloat r.best_score);
              (* exact bits next to the human-readable number, so a record
                 can be audited down to the last ulp even after a lossy
                 re-serialization *)
              ( "score_bits",
                Json.Str (Int64.to_string (Int64.bits_of_float r.best_score))
              );
            ] );
        ("threshold", jfloat r.threshold);
        ("duration_ns", Json.Str (Int64.to_string r.duration_ns));
      ])

(* ---- text ------------------------------------------------------------------- *)

let pp ppf r =
  let open Format in
  let verdict =
    match r.best_family with Some f -> "ATTACK " ^ f | None -> "benign"
  in
  let path = match r.path with Linear -> "linear scan" | Indexed -> "indexed" in
  fprintf ppf "@[<v>%s: %s  (best %.2f%% vs threshold %.0f%%) [%s, %.3f ms%s]"
    r.target verdict (100.0 *. r.best_score) (100.0 *. r.threshold) path
    (Int64.to_float r.duration_ns /. 1e6)
    (match r.trace_id with Some t -> ", trace " ^ t | None -> "");
  if r.index_events <> [] then begin
    let count f = List.fold_left (fun n ev -> n + f ev) 0 r.index_events in
    fprintf ppf
      "@,  index: visited %d nodes (%d models), cut %d subtrees (%d models), \
       screened out %d members"
      (count (function Node_visited _ -> 1 | _ -> 0))
      (count (function Node_visited { members; _ } -> members | _ -> 0))
      (count (function Subtree_pruned _ -> 1 | _ -> 0))
      (count (function Subtree_pruned { members; _ } -> members | _ -> 0))
      (count (function Member_pruned _ -> 1 | _ -> 0))
  end;
  if r.candidates <> [] then begin
    fprintf ppf "@,  candidates (evaluation order):";
    List.iter
      (fun c ->
        let lb =
          match c.lb with
          | Some b -> Printf.sprintf "  (lb %.2f%%)" (100.0 *. b)
          | None -> ""
        in
        fprintf ppf "@,    %-22s (%s): " c.poc c.family;
        match c.outcome with
        | Scored s -> fprintf ppf "%6.2f%%%s" (100.0 *. s) lb
        | Pruned_lb -> fprintf ppf "pruned by lower bound%s" lb
        | Abandoned -> fprintf ppf "abandoned mid-DP (cutoff)%s" lb
        | Pruned -> fprintf ppf "pruned%s" lb)
      r.candidates
  end;
  if r.best_matches <> [] then begin
    fprintf ppf "@,  best matches:";
    List.iter
      (fun (poc, family, s) -> fprintf ppf " %s/%s %.2f%%" poc family (100.0 *. s))
      r.best_matches
  end;
  fprintf ppf "@]"

let to_jsonl rs =
  let buf = Buffer.create 1024 in
  Array.iter
    (fun r ->
      Json.to_buf buf (to_json r);
      Buffer.add_char buf '\n')
    rs;
  Buffer.contents buf

