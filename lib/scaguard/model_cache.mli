(** Content-addressed on-disk cache of CST-BBS models.

    Model building is the front-end's dominant cost (simulate, identify,
    walk, measure); for a fixed binary and fixed knobs the resulting model
    is deterministic, so it can be built once and reloaded forever after.
    An entry is one model in the {!Persist} binary encoding
    ({!Persist.model_to_bytes}), named by the hex digest of everything that
    determines the model's bytes:

    - a format version (bumped when the pipeline or the persisted format
      changes behavior),
    - the model name,
    - the execution settings and the CST probe-cache geometry,
    - the attack-graph bounds ([max_paths] / [max_len]),
    - the {e encoded} attacker and victim programs ({!Isa.Binary.encode}:
      code, base address, labels),
    - a caller-supplied [salt] covering inputs that cannot be hashed —
      chiefly the [init] closures that prepare machine state (the CLI
      passes the workload seed).

    There is no invalidation protocol: change any ingredient and the key
    changes, so the old entry is never looked up again.  Corrupt or
    unreadable entries — including entries whose binary-format version this
    build does not read — count as {e stale}, are deleted, and fall back to
    a rebuild; a cache directory can never make a run fail.  Counters use
    [Atomic] and the store writes atomically ({!Persist.write_atomic}), so
    one cache may be shared by all pool workers of a batch build. *)

type t

val create : dir:string -> t
(** Open (creating directories as needed) a cache rooted at [dir].
    @raise Invalid_argument if [dir] exists and is not a directory. *)

val create_result : dir:string -> (t, Err.t) result
(** Like {!create}: [Error (Invalid_config _)] if [dir] exists and is not a
    directory, [Error (Io _)] if the directories cannot be created. *)

val dir : t -> string

val key :
  ?settings:Cpu.Exec.settings ->
  ?cst_config:Cache.Config.t ->
  ?max_paths:int ->
  ?max_len:int ->
  ?victim:Isa.Program.t ->
  ?salt:string ->
  name:string -> Isa.Program.t -> string
(** Digest of the ingredient list above.  [settings] and [cst_config]
    default to the pipeline's defaults, so omitting them and passing the
    default explicitly yield the same key. *)

val find : ?obs:Obs.t -> t -> key:string -> Model.t option
(** Look up a model; counts a hit, a miss (no entry), or a stale entry
    (present but unloadable — corrupt, truncated, or an unsupported format
    version; the file is deleted), and reports it to [obs] (default
    {!Obs.off}). *)

val store : t -> key:string -> Model.t -> unit
(** Write-through (atomic temp-file + rename). *)

val find_or_build :
  ?obs:Obs.t -> t -> key:string -> (unit -> Model.t) -> Model.t
(** [find] and, on miss/stale, build, store and return. *)

val hits : t -> int
val misses : t -> int
val stale : t -> int
