(** Attack-relevant basic-block identification (§III-A1) — the two-step
    runtime-data-driven pruning of the CFG.

    Step 1 maps the collected HPC events onto basic blocks by instruction
    address and keeps blocks whose summed 11-event HPC value is non-zero
    (they performed cache-related operations).

    Step 2 exploits the observation that a cache side-channel attack must
    touch some cache sets from at least two different blocks (e.g. the Flush
    and Reload steps): it counts, per LLC set of {!Cache.Config.llc}, the
    distinct candidates that access it, and eliminates candidates that touch
    no set accessed by two or more.  Both steps are linear in the program
    and the access log: one pass per step, with no sorting and no hash
    table. *)

type info = {
  cfg : Cfg.Graph.t;
  hpc_of_block : float array;
    (** summed HPC value per block id (step 1's ranking signal, also used by
        Algorithm 1's path scoring) *)
  accesses_of_block : (int * Hpc.Collector.access_kind) list array;
    (** data addresses (loads, stores, flushes) per block, chronological *)
  first_time_of_block : int option array;
    (** first retirement timestamp of each block's leader (or of any of its
        instructions, whichever is earliest) *)
  step1 : int list;    (** candidate block ids after step 1, ascending *)
  relevant : int list; (** attack-relevant block ids after step 2, ascending *)
}

val identify : Cfg.Graph.t -> Hpc.Collector.t -> info
(** [identify cfg collector] runs both steps over a collector of [cfg]'s
    program (every logged pc is one of its instructions). *)

val ground_truth_blocks : Cfg.Graph.t -> int list
(** Blocks whose instructions carry {!Isa.Program.attack_tag} — the
    Table IV reference answer. *)

val accuracy : identified:int list -> truth:int list -> float
(** |identified ∩ truth| / |truth| — Table IV's accuracy (1.0 when [truth]
    is empty). *)
