(** Architectural state of one simulated hardware thread: register file,
    flags, sparse byte-addressed memory and program counter (as an
    instruction index into its program). *)

type t

val create : ?stack_top:int -> unit -> t
(** Fresh state: registers zero except RSP = [stack_top] (default
    [0x7FFF_06C0], chosen off the cache sets attacks monitor), flags clear,
    empty memory, pc 0. *)

val get_reg : t -> Isa.Reg.t -> int
val set_reg : t -> Isa.Reg.t -> int -> unit
val slot : t -> int -> int
val set_slot : t -> int -> int -> unit
(** Registers by {!Isa.Reg.index}; slot [Isa.Reg.count] reads 0 and must
    not be written. *)

val load : t -> int -> int
(** Architectural memory read; uninitialized locations read as 0. *)

val store : t -> int -> int -> unit

val init_region : t -> base:int -> int array -> unit
(** [init_region t ~base values] writes [values.(i)] at [base + 8*i] —
    convenient 8-byte-stride table initialization. *)

(** Flags set by compare/ALU instructions. *)
val zf : t -> bool
val sf : t -> bool
val cf : t -> bool
val set_flags : t -> zf:bool -> sf:bool -> cf:bool -> unit

val cond_holds : t -> Isa.Instr.cond -> bool
(** Evaluate a branch condition against the current flags. *)

val pc : t -> int
val set_pc : t -> int -> unit

val halted : t -> bool
val set_halted : t -> bool -> unit

val shadow : t -> t
(** [shadow t] is a copy-on-write view of [t] for wrong-path execution,
    holding [t]'s current registers, flags and pc.  Its stores go to a small
    overlay of its own and its loads fall through to [t], so [t] must not
    be written while the shadow runs.  There is one level: a shadow of a
    shadow is refused with [Invalid_argument]. *)

val fork : t -> unit
(** [fork s] restarts shadow [s] from its parent's current state, dropping
    the previous wrong path's registers, flags and stores.
    @raise Invalid_argument when [s] is not a shadow. *)

val fold_mem : t -> init:'a -> f:(int -> int -> 'a -> 'a) -> 'a
(** Fold over all touched memory locations (address, value) in unspecified
    order — used by equivalence checks and diagnostics.  A shadow shows its
    own stores over its parent's memory. *)
