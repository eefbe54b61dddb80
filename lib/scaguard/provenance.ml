(* Per-verdict decision provenance.

   One record per classified target, capturing *why* the verdict came out
   the way it did: the ensemble path taken (screen z-score vs tau,
   fast-reject or escalate), the repository-index traversal (nodes visited
   and subtrees cut off, with the pooled bounds that justified each), every
   candidate PoC with its lower bound and outcome (scored / pruned by bound
   / abandoned mid-DP), and the final score down to its float bits.

   The capture discipline copies [Obs]: a plain-ref switch read once at
   [Detector.classify_prepared] entry (zero allocation when off — the
   builder simply is not created), a lock-free bounded [Sutil.Sink] safe
   from every engine worker domain, and strict observation purity —
   the detection path never reads anything back from here, so verdicts are
   bit-identical with capture on or off (qcheck-asserted).

   The ensemble handoff uses domain-local state: [Detect.Ensemble] notes
   the screen outcome just before escalating into the DTW detector, which
   runs on the same domain and folds the note into its record ([take] on
   finish).  A fast-reject never reaches the detector, so the ensemble
   emits the (tiny) record itself. *)

type ensemble_path = { screen_z : float; tau : float; escalated : bool }

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

type path = Linear | Indexed | Fast_rejected

type t = {
  seq : int;
  target : string;
  trace_id : string option;
  worker : int;
  path : path;
  ensemble : ensemble_path option;
  index_events : index_event list;  (** in traversal order *)
  candidates : candidate list;  (** in evaluation order *)
  best_matches : (string * string * float) list;
  best_family : string option;
  best_score : float;
  threshold : float;
  duration_ns : int64;
}

(* ---- switch and sink -------------------------------------------------------- *)

let capture_on = ref false
let enabled () = !capture_on
let set_capture b = capture_on := b

let default_capacity = 16384
let sink : t Sutil.Sink.t = Sutil.Sink.create ~capacity:default_capacity ()
let seq_counter = Atomic.make 0
let set_capacity n = Sutil.Sink.set_capacity sink n
let emit r = Sutil.Sink.push sink r
let dropped () = Sutil.Sink.dropped sink
let by_seq rs = List.sort (fun a b -> compare a.seq b.seq) rs
let records () = by_seq (Sutil.Sink.items sink)
let clear () = Sutil.Sink.clear sink

(* Capture exactly the records [f] produces: force the switch on, swap in a
   fresh sink, restore both afterwards.  Other domains must only emit
   records from within [f]'s dynamic extent (true for the serve drainer,
   which owns all execution, and for the CLI) — records pushed concurrently
   from outside it would land in [f]'s capture. *)
let with_capture f =
  let saved_on = !capture_on in
  capture_on := true;
  let v, mine =
    Fun.protect
      ~finally:(fun () -> capture_on := saved_on)
      (fun () -> Sutil.Sink.isolate sink f)
  in
  (v, by_seq mine)

(* ---- the ensemble handoff --------------------------------------------------- *)

let ensemble_key : ensemble_path option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let note_ensemble ~screen_z ~tau ~escalated =
  Domain.DLS.get ensemble_key := Some { screen_z; tau; escalated }

let take_ensemble () =
  let cell = Domain.DLS.get ensemble_key in
  let v = !cell in
  cell := None;
  v

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

let finish b ~best_matches ~best_family ~best_score =
  emit
    {
      seq = Atomic.fetch_and_add seq_counter 1;
      target = b.b_target;
      trace_id = Traceid.get ();
      worker = (Domain.self () :> int);
      path = b.b_path;
      ensemble = take_ensemble ();
      index_events = List.rev b.b_index_events;
      candidates = List.rev b.b_candidates;
      best_matches;
      best_family;
      best_score;
      threshold = b.b_threshold;
      duration_ns = Int64.sub (Monotonic_clock.now ()) b.b_t0;
    }

(* The ensemble's cheap screen rejected the run before any DTW: record the
   decision (and the screen evidence) with the rejected verdict's values —
   no candidates, score 0. *)
let emit_fast_reject ~target ~threshold =
  emit
    {
      seq = Atomic.fetch_and_add seq_counter 1;
      target;
      trace_id = Traceid.get ();
      worker = (Domain.self () :> int);
      path = Fast_rejected;
      ensemble = take_ensemble ();
      index_events = [];
      candidates = [];
      best_matches = [];
      best_family = None;
      best_score = 0.0;
      threshold;
      duration_ns = 0L;
    }

(* ---- JSON codec ------------------------------------------------------------- *)

let path_to_string = function
  | Linear -> "linear"
  | Indexed -> "indexed"
  | Fast_rejected -> "fast_reject"

let path_of_string = function
  | "linear" -> Some Linear
  | "indexed" -> Some Indexed
  | "fast_reject" -> Some Fast_rejected
  | _ -> None

(* Finite floats ride as JSON numbers (%.17g round-trips float64 exactly);
   the non-finite values the screen can produce (z = infinity when there is
   no screen model) ride as tagged strings, since JSON has no spelling for
   them. *)
let jfloat f =
  if Float.is_finite f then Json.Num f
  else
    Json.Str
      (if f > 0.0 then "Infinity"
       else if f < 0.0 then "-Infinity"
       else "NaN")

let jfloat_of = function
  | Json.Num f -> Some f
  | Json.Str "Infinity" -> Some infinity
  | Json.Str "-Infinity" -> Some neg_infinity
  | Json.Str "NaN" -> Some Float.nan
  | _ -> None

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
    @ (match r.ensemble with
      | Some e ->
        [
          ( "ensemble",
            Json.Obj
              [
                ("screen_z", jfloat e.screen_z);
                ("tau", jfloat e.tau);
                ("escalated", Json.Bool e.escalated);
              ] );
        ]
      | None -> [])
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

(* -- decoding -- *)

let ( let* ) = Result.bind

let fail fmt = Printf.ksprintf (fun m -> Error m) fmt

let get_str k j =
  match Json.member k j with
  | Some (Json.Str s) -> Ok s
  | _ -> fail "provenance: missing or ill-typed field %S" k

let get_float k j =
  match Option.bind (Json.member k j) jfloat_of with
  | Some f -> Ok f
  | None -> fail "provenance: missing or ill-typed field %S" k

let get_int k j =
  match Json.member k j with
  | Some (Json.Num f) when Float.is_integer f -> Ok (int_of_float f)
  | _ -> fail "provenance: missing or ill-typed field %S" k

let get_int64_str k j =
  match Json.member k j with
  | Some (Json.Str s) -> (
    match Int64.of_string_opt s with
    | Some v -> Ok v
    | None -> fail "provenance: field %S is not an int64" k)
  | _ -> fail "provenance: missing or ill-typed field %S" k

let rec map_result f = function
  | [] -> Ok []
  | x :: xs ->
    let* y = f x in
    let* ys = map_result f xs in
    Ok (y :: ys)

let index_event_of_json j =
  let* ev = get_str "event" j in
  let* bound = get_float "bound" j in
  match ev with
  | "visit" ->
    let* members = get_int "members" j in
    Ok (Node_visited { bound; members })
  | "prune_subtree" ->
    let* members = get_int "members" j in
    Ok (Subtree_pruned { bound; members })
  | "prune_member" -> Ok (Member_pruned { bound })
  | other -> fail "provenance: unknown index event %S" other

let candidate_of_json j =
  let* poc = get_str "poc" j in
  let* family = get_str "family" j in
  let lb = Option.bind (Json.member "lb" j) jfloat_of in
  let* outcome_s = get_str "outcome" j in
  let* outcome =
    match outcome_s with
    | "scored" ->
      let* s = get_float "score" j in
      Ok (Scored s)
    | "pruned_lb" -> Ok Pruned_lb
    | "abandoned" -> Ok Abandoned
    | "pruned" -> Ok Pruned
    | other -> fail "provenance: unknown candidate outcome %S" other
  in
  Ok { poc; family; lb; outcome }

let of_json j =
  let* seq = get_int "seq" j in
  let* target = get_str "target" j in
  let trace_id =
    match Json.member "trace_id" j with Some (Json.Str t) -> Some t | _ -> None
  in
  let* worker = get_int "worker" j in
  let* path_s = get_str "path" j in
  let* path =
    match path_of_string path_s with
    | Some p -> Ok p
    | None -> fail "provenance: unknown path %S" path_s
  in
  let* ensemble =
    match Json.member "ensemble" j with
    | None -> Ok None
    | Some e ->
      let* screen_z = get_float "screen_z" e in
      let* tau = get_float "tau" e in
      let* escalated =
        match Json.member "escalated" e with
        | Some (Json.Bool b) -> Ok b
        | _ -> fail "provenance: missing or ill-typed field \"escalated\""
      in
      Ok (Some { screen_z; tau; escalated })
  in
  let* index_events =
    match Json.member "index" j with
    | None -> Ok []
    | Some (Json.List evs) -> map_result index_event_of_json evs
    | Some _ -> fail "provenance: ill-typed field \"index\""
  in
  let* candidates =
    match Json.member "candidates" j with
    | Some (Json.List cs) -> map_result candidate_of_json cs
    | _ -> fail "provenance: missing or ill-typed field \"candidates\""
  in
  let* best =
    match Json.member "best" j with
    | Some (Json.Obj _ as b) -> Ok b
    | _ -> fail "provenance: missing or ill-typed field \"best\""
  in
  let* best_matches =
    match Json.member "matches" best with
    | Some (Json.List ms) ->
      map_result
        (fun m ->
          let* poc = get_str "poc" m in
          let* family = get_str "family" m in
          let* score = get_float "score" m in
          Ok (poc, family, score))
        ms
    | _ -> fail "provenance: missing or ill-typed field \"best.matches\""
  in
  let* best_family =
    match Json.member "family" best with
    | Some (Json.Str f) -> Ok (Some f)
    | Some Json.Null -> Ok None
    | _ -> fail "provenance: missing or ill-typed field \"best.family\""
  in
  (* the bits are authoritative: they survive any number of re-encodings *)
  let* best_score =
    match Json.member "score_bits" best with
    | Some (Json.Str s) -> (
      match Int64.of_string_opt s with
      | Some bits -> Ok (Int64.float_of_bits bits)
      | None -> fail "provenance: field \"best.score_bits\" is not an int64")
    | _ -> get_float "score" best
  in
  let* threshold = get_float "threshold" j in
  let* duration_ns = get_int64_str "duration_ns" j in
  Ok
    {
      seq;
      target;
      trace_id;
      worker;
      path;
      ensemble;
      index_events;
      candidates;
      best_matches;
      best_family;
      best_score;
      threshold;
      duration_ns;
    }

let to_jsonl rs =
  let buf = Buffer.create 1024 in
  List.iter
    (fun r ->
      Json.to_buf buf (to_json r);
      Buffer.add_char buf '\n')
    rs;
  Buffer.contents buf

