(** The attack behavior model: a cache-state-transition-enhanced basic block
    sequence (CST-BBS, Definition 5).

    The attack-relevant graph is flattened into a block sequence ordered by
    each block's first execution timestamp, and every block carries its
    normalized instruction sequence and its measured CST. *)

type entry = {
  block : int;                 (** CFG block id *)
  instrs : Isa.Instr.t list;   (** the block's instructions *)
  normalized : string array;   (** normalized tokens (imm/mem/reg rules) *)
  tokens : int array;
    (** [normalized], interned through {!Sutil.Intern.global}: same length,
        and two tokens are equal iff the corresponding strings are.  The
        Levenshtein inner loop of the DTW step cost compares these ints;
        ids are process-local, so they are never persisted. *)
  cst : Cst.t;
  first_time : int;            (** first retirement timestamp; [max_int] for
                                   statically restored, never-executed blocks *)
}

type t = private {
  name : string;
  entries : entry list;        (** the CST-BBS, in timestamp order *)
  entries_arr : entry array;
    (** [entries] as an array, materialized once at construction — the DTW
        scorers index it on every comparison ({!entries_array}). *)
}

val make_entry :
  block:int -> instrs:Isa.Instr.t list -> normalized:string array ->
  cst:Cst.t -> first_time:int -> entry
(** Assemble one entry, interning [normalized] into {!field-entry.tokens}. *)

val make : name:string -> entry list -> t
(** Assemble a model, materializing the entries array once. *)

val build :
  ?cst_config:Cache.Config.t -> ?measurer:Cst.measurer -> name:string ->
  Relevant.info -> Attack_graph.t -> t
(** Assemble the model from identification output and the attack-relevant
    graph.  [measurer] lends a reusable probe-cache to the per-block CST
    measurements (one per pool worker); within one build, blocks with
    identical access lists share a single measurement.  Results are
    byte-identical with or without either optimization. *)

val length : t -> int
val is_empty : t -> bool

val entries_array : t -> entry array
(** The CST-BBS as an array, in timestamp order.  The array is the one
    materialized at construction and is {e shared} — callers must not
    mutate it.  (It used to be rebuilt from the entry list on every call,
    which put an O(n) allocation on every {!Dtw.compare_models}.) *)

val pp : Format.formatter -> t -> unit
