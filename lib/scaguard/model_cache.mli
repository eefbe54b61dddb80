(** Content-addressed cache of CST-BBS models, in two tiers: a bounded
    in-memory tier that is always present, in front of an optional on-disk
    tier.

    Model building is the front-end's dominant cost (simulate, identify,
    walk, measure); for a fixed binary and fixed knobs the resulting model
    is deterministic, so it can be built once and reloaded after.  An entry
    is one model in the {!Persist} binary encoding
    ({!Persist.model_to_bytes}) — the same bytes in both tiers — and a hit
    in either tier decodes through the same strict loader
    ({!Persist.model_of_bytes_result}), so a memory hit, a disk hit and a
    fresh build are byte-identical ({!Persist.model_to_string}).  The key
    ({!key}) is the text of everything that determines the model's bytes:

    - a format version (bumped when the pipeline or the persisted format
      changes behavior),
    - the model name,
    - the execution settings and the CST probe-cache geometry,
    - the attack-graph bounds ([max_paths] / [max_len]),
    - the {e encoded} attacker and victim programs ({!Isa.Binary.encode}:
      code, base address, labels),
    - a caller-supplied [salt] covering inputs that cannot be hashed —
      chiefly the [init] closures that prepare machine state (target jobs
      salt on the workload seed, see {!Pipeline.seeded}).

    The memory tier keys on that full text, so a hash collision cannot
    hand one input another input's model; the disk tier names its files by
    the text's hex MD5.  The memory tier holds at most {!memory_budget}
    bytes of keys and entries and evicts the oldest entry first.

    There is no invalidation protocol: change any ingredient and the key
    changes, so the old entry is never looked up again.  Corrupt or
    unreadable disk entries — including entries whose binary-format version
    this build does not read, and text-format entries — count as {e stale}, are deleted, and fall
    back to a rebuild; a cache directory can never make a run fail.

    {b Domains.}  The memory tier is not synchronized: {!recall} and
    {!remember} run in one domain at a time (the batch builder calls them
    before and after its fan-out).  {!fetch} — the
    disk tier and the build — may run on every pool worker at once: its
    counters are [Atomic] and the store writes atomically
    ({!Persist.write_atomic}). *)

type t

val memory_budget : int
(** Bytes the memory tier may hold, counting each entry's key text and
    encoded model: 8 MiB, a constant.  An entry — key text, which carries
    the encoded program, plus a model of a few dozen blocks — takes about
    0.3 to 2 KiB, so the budget holds several thousand programs; the 96
    distinct targets of the serve-mixed benchmark workload take well under
    a quarter of a MiB. *)

val create : ?dir:string -> unit -> (t, Err.t) result
(** An empty memory tier, in front of a disk tier rooted at [dir] when one
    is given (directories are created as needed).  Without [dir] this never
    fails.  Errors: [Invalid_config] if [dir] exists and is not a
    directory, [Io] if the directories cannot be created. *)

val dir : t -> string option
(** The disk tier's directory, if there is one. *)

val key :
  ?settings:Cpu.Exec.settings ->
  ?cst_config:Cache.Config.t ->
  ?max_paths:int ->
  ?max_len:int ->
  ?victim:Isa.Program.t ->
  ?salt:string ->
  name:string -> Isa.Program.t -> string
(** The text of the ingredient list above.  [settings] and [cst_config]
    default to the pipeline's defaults, so omitting them and passing the
    default explicitly yield the same key. *)

val file : t -> key:string -> string option
(** The disk tier's file for [key]: [dir/<hex MD5 of key>.cstbbs]. *)

(** {1 Lookup in phases}

    A lookup is three calls, so a batch can split it across domains
    ({!Pipeline.build_models_batch}): {!recall} in the calling domain,
    {!fetch} on the workers for what the memory tier lacks, {!remember}
    back in the calling domain.  Each lookup is counted once, by the tier
    that answers it: a memory or disk hit as a hit; otherwise a miss, or
    stale when the disk held an unreadable entry. *)

val recall : ?obs:Obs.t -> t -> key:string -> Model.t option
(** The memory tier's model for [key], decoded.  Counts a hit; without a
    disk tier an absent key counts a miss (with one, {!fetch} counts the
    lookup).  Reports the outcome to [obs] (default {!Obs.off}). *)

val fetch :
  ?obs:Obs.t -> t -> key:string -> (unit -> Model.t) -> Model.t * string option
(** After a {!recall} that found nothing: the disk tier's model if it has
    one, else [build ()], stored to the disk tier.  Counts the disk
    lookup.  Also returns the entry {!remember} may keep — [None] when the
    built model's encoding does not decode (a non-finite CST), which the
    memory tier never holds.  Safe on any domain. *)

val remember : t -> key:string -> string -> unit
(** Keep an entry {!fetch} returned in the memory tier, evicting the oldest
    entries until the tier fits {!memory_budget}.  An entry larger than the
    whole budget, or a key already resident, leaves the tier unchanged. *)

(** {1 Counters} *)

val hits : t -> int
val misses : t -> int
val stale : t -> int

val resident_bytes : t -> int
(** Bytes the memory tier holds now (keys plus entries); never above
    {!memory_budget}. *)
