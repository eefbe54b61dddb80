(** Per-verdict decision provenance.

    One record per classified target, explaining {e why} the verdict came
    out the way it did:

    - the {b index traversal} ({!Vpindex.search}): nodes visited and
      subtrees cut off, each with the pooled bound that justified it;
    - every {b candidate} PoC model with its lower bound and outcome —
      scored, pruned by the bound, or abandoned mid-DP;
    - the {b final score} down to its float bits, the matches above
      threshold, and the winning family.

    A record exists only when a caller asks for one, and it is that call's
    return value: [Engine.classify_batch ~explain:true] {!start}s a builder
    per target, [Detector.classify_prepared ~prov] writes the decision
    trail into it, and {!finish} seals it with the verdict, the target's
    position in its batch and the run's trace id.  Nothing is captured
    globally, so a batch gets exactly one record per target, in target
    order, however many domains ran it.  The detection path never reads a
    builder back, so verdicts are bit-identical with or without one
    (qcheck-asserted).

    Records serialize to JSON ({!to_json}) and are rendered by
    [scaguard explain] and the serve protocol's [explain] verb. *)

type index_event =
  | Node_visited of { bound : float; members : int }
      (** the search expanded this node: its pooled bound did not beat
          best-so-far, so its [members]-model subtree stayed live *)
  | Subtree_pruned of { bound : float; members : int }
      (** the best-first frontier's minimum bound exceeded the pruning
          radius: [members] models across every remaining subtree were
          proven losers and skipped *)
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

type path =
  | Linear  (** every repository model was considered in order *)
  | Indexed  (** the vantage-point index drove candidate selection *)

type t = {
  seq : int;  (** the target's position in its batch *)
  target : string;
  trace_id : string option;  (** the run's {!Obs.trace_id} *)
  worker : int;  (** domain id of the classifying worker *)
  path : path;
  index_events : index_event list;  (** in traversal order *)
  candidates : candidate list;  (** in evaluation order *)
  best_matches : (string * string * float) list;
      (** (poc, family, score): the entries tying the best score, in the
          verdict's canonical (family, name) order — [Detector.verdict]'s
          [best_matches] verbatim *)
  best_family : string option;
  best_score : float;
  threshold : float;
  duration_ns : int64;
}

(** {1 Builder}

    Every recording call is a cheap mutation of the builder; {!finish}
    turns it into the record. *)

type builder

val start : target:string -> threshold:float -> builder
(** Begin a record (captures the monotonic start time). *)

val set_path : builder -> path -> unit
val index_event : builder -> index_event -> unit

val candidate :
  builder -> poc:string -> family:string -> ?lb:float -> outcome -> unit

val finish :
  ?trace_id:string ->
  builder ->
  seq:int ->
  best_matches:(string * string * float) list ->
  best_family:string option ->
  best_score:float ->
  t
(** Seal the record: stamps the duration, [trace_id] (the run's
    {!Obs.trace_id}; default none) and the calling domain's id. *)

(** {1 JSON} *)

val to_json : t -> Json.t

val to_jsonl : t array -> string
(** One compact JSON object per line, in array order.  (Writing the
    artifact is the caller's job — [Persist.write_atomic] sits {e above}
    this module in the dependency order, so there is no [write] here.) *)
