(** Binary encoding of programs — the "ELF" of the simulated world.

    SCAGuard is a tool that takes {e binaries}; this codec gives programs a
    durable byte format so the CLI can assemble PoCs to files and the
    detection pipeline can start from a file on disk.

    The format serializes the code, base address and label table.
    Generator tags (the attack-relevant ground truth) are lab metadata and
    deliberately {e not} part of a binary — a decoded program carries none,
    exactly like a real-world target. *)

val magic : string
(** ["SCAB1"]. *)

val encode : Program.t -> string
(** Serialize to bytes. *)

val decode : string -> Program.t
(** @raise Failure on malformed input (bad magic, truncation, an
    instruction count beyond the bytes that remain, unknown opcodes,
    out-of-range label references, a program that does not assemble),
    and on nothing else. *)

val write_file : path:string -> Program.t -> unit
val read_file : path:string -> Program.t
