(** Base instruction costs (cycles), excluding memory-hierarchy latency which
    {!Cache.Hierarchy} charges separately. *)

val mispredict_penalty : int
(** Extra cycles charged when a conditional branch mispredicts. *)

val cost : Isa.Instr.t -> int
(** Base cost of one instruction (memory latency not included): 1 for ALU
    ops, moves, correctly predicted branches and nop; 3 for imul; 20 for
    mfence/lfence/cpuid; 25 for rdtsc/rdtscp. *)
