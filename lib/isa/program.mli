(** Assembled programs: an instruction array with resolved labels, a base
    address, and per-instruction tags.

    Instruction [i] of a program with base address [b] lives at address
    [b + 4*i]; this plays the role of the ELF text layout that the paper's
    tooling (Angr / Intel PT) works with.

    Tags are generator-provided annotations.  Attack generators tag their
    attack-relevant instructions with {!attack_tag}, giving the ground truth
    that Table IV's accuracy is measured against. *)

type stmt =
  | Ins of Instr.t      (** an instruction *)
  | Lbl of string       (** a label binding the next instruction's index *)

type t

val attack_tag : string
(** The distinguished tag marking attack-relevant instructions. *)

val assemble : ?base:int -> ?tags:(int * string list) list -> name:string ->
  stmt list -> t
(** [assemble ~name stmts] resolves labels and checks that every branch
    target is bound exactly once, that the program is non-empty, and that
    every operand has a shape execution gives a meaning to: no immediate
    destination of [mov], [add], [sub], [imul], [xor], [and], [or], [shl],
    [shr], [inc] or [dec], and a memory operand for [lea], [clflush] and
    [prefetch].  [tags] maps instruction indices (post label-stripping) to
    tag lists; builders provide it.  [base] defaults to [0x400000].
    @raise Invalid_argument on duplicate/unbound labels, empty code or an
    ill-typed operand. *)

val name : t -> string
val base : t -> int
val code : t -> Instr.t array
val length : t -> int
(** Number of instructions. *)

val instr : t -> int -> Instr.t
(** [instr p i] is instruction [i].  @raise Invalid_argument out of range. *)

val addr_of_index : t -> int -> int
(** Address of instruction [i]. *)

val index_of_addr : t -> int -> int option
(** Inverse of {!addr_of_index}; [None] for addresses outside the program. *)

val label_index : t -> string -> int
(** Index bound to a label.  @raise Not_found for unknown labels. *)

val labels : t -> (string * int) list
(** All labels with their indices, sorted by index. *)

val tags : t -> int -> string list
(** Tags of instruction [i] ([\[\]] when untagged). *)

val has_tag : t -> int -> string -> bool

val tagged_indices : t -> string -> int list
(** Indices carrying a given tag, ascending. *)

type item = {
  labels : string list;  (** labels bound just before this instruction *)
  ins : Instr.t;
  item_tags : string list;
}

val deconstruct : t -> item list
(** The program as a transformable item list; {!reconstruct} inverts it.
    Used by the mutation and obfuscation engines. *)

val reconstruct : ?base:int -> name:string -> item list -> t
(** Reassemble a (possibly transformed) item list into a program.
    @raise Invalid_argument as {!assemble}. *)

val rename_labels : (string -> string) -> item list -> item list
(** Apply a renaming to every bound label and branch target. *)

val splice : ?base:int -> name:string -> t list -> t
(** Concatenate programs into one, prefixing each part's labels so the
    namespaces stay disjoint.  Any [Halt] in a non-final part is replaced by
    [Nop] so control falls through to the next part. *)

val pp : Format.formatter -> t -> unit
(** Disassembly listing with addresses and labels. *)
