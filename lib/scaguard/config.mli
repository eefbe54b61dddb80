(** One typed record for every knob of the build→detect stack.

    Three PRs of pipeline work left the knobs smeared across the stack as
    optional arguments ([?threshold ?alpha ?band ?domains ?prune] on
    {!Detector}/{!Engine}, [?max_paths ?max_len ?cst_config ?settings] on
    {!Pipeline}, [--jobs]/[--cache-dir] only at the CLI).  [Config.t] gathers
    them in one validated value that can be passed to {!Service}, printed,
    and persisted next to a model repository ({!to_string}/{!of_string}
    round-trip exactly).

    {!default} reproduces today's behaviour knob for knob: running
    {!Service.build}/{!Service.detect_prepared} with it is bit-identical to
    the bare [Pipeline.build_models_batch] / [Engine.classify_batch]
    composition. *)

type repo_format = Text | Binary
(** On-disk repository format: the line-oriented text format (diffable,
    backward compatible) or the compact ["SCAGBIN"] binary image, which can
    also carry the repository index's shape (see {!Persist}).  Loads always sniff
    the file, so this knob only selects what {e saves} write. *)

val repo_format_to_string : repo_format -> string
(** ["text"] / ["binary"] — the spelling used by the config file and the
    CLI's [--format] flag. *)

val repo_format_of_string : string -> repo_format option

type index_mode = Index_off | Index_auto | Index_vp
(** Repository index policy for detection ({!Vpindex}): [Index_off] always
    scans linearly; [Index_auto] (the default) builds the index only when
    the repository has at least {!Vpindex.auto_min} models, so small-repo
    behaviour — and its counters — are unchanged; [Index_vp] always builds
    one, whatever the repository's size.
    Verdicts are bit-identical under every mode; only the work differs. *)

val index_mode_to_string : index_mode -> string
(** ["off"] / ["auto"] / ["vp"] — the spelling used by the config file and
    the CLI's [--index] flag. *)

val index_mode_of_string : string -> index_mode option

type t = {
  (* detection *)
  threshold : float;  (** similarity threshold θ in [0, 1]; default 0.60 *)
  alpha : float option;
      (** DTW syntax/semantics weight in [0, 1]; [None] = paper default *)
  band : int option;  (** Sakoe–Chiba band half-width; [None] = unbanded *)
  prune : bool;  (** exact lower-bound pruning cascade; default [true] *)
  (* modeling *)
  max_paths : int option;  (** CFG path-enumeration bound per block pair *)
  max_len : int option;  (** CFG path length bound *)
  cst_config : Cache.Config.t;
      (** probe-cache geometry for CST measurement; default
          [Cache.Config.cst_probe] *)
  exec : Cpu.Exec.settings;
      (** execution settings for jobs that do not carry their own; a
          {!Pipeline.job} with [settings = Some _] keeps its own (e.g. the
          Meltdown PoCs' protected range) *)
  (* execution *)
  domains : int option;
      (** worker domains for both model building and the scoring engine;
          [None] = library default ([Sutil.Pool.default_domains]) *)
  cache_dir : string option;  (** on-disk model cache; [None] = no cache *)
  salt : string;
      (** cache-key salt, applied to jobs that do not set their own (dataset
          seed provenance) — the PoC repository's; targets salt on the seed
          ({!Pipeline.seeded}); default [""] *)
  repo_format : repo_format;
      (** format {!Service.save_repository} (and [build-repo]) writes;
          default [Text] *)
  index : index_mode;  (** repository index policy; default [Index_auto] *)
  ensemble_tau : float;
      (** screening threshold of the two-tier ensemble detector
          ([Detect.Ensemble]): runs whose largest benign-profile z-score
          stays below it are rejected by the cheap HPC fast path without
          paying the DTW slow path.  [0.0] disables screening (every run
          reaches DTW, verdicts bit-identical to pure SCAGuard); default
          2.0 *)
  log_level : Log.level;
      (** minimum severity captured into the structured event log when a
          front-end turns capture on ([detect-batch --log-out], the serve
          daemon); pure observation — never affects verdicts; default
          [Info] *)
}

val default : t
(** Today's behaviour: threshold 0.60 ({!Detector.default_threshold}), no
    alpha/band overrides, pruning on, paper modeling limits,
    [Cache.Config.cst_probe], [Cpu.Exec.default_settings], default domain
    count, no cache, empty salt. *)

val seeded : ?families:string list -> seed:int -> t -> t
(** The front-ends' seed→salt policy for the PoC repository: the config
    with salt [string_of_int seed] — or ["seed:f1,f2,..."] for a PoC
    repository built from [families], whose harness kernels are drawn from
    one rng stream in family-list order — unless the config already carries
    a salt, which an operator's config file always wins.  The CLI and the
    serve daemon both derive the repository's salt here, so the same seed
    gives the same cache keys and index seeds everywhere.  Target programs
    do not use the config's salt: they salt on the seed
    ({!Pipeline.seeded}), so a pinned salt cannot make two seeds share a
    target's cache key. *)

(** {1 Field validation}

    Each checker returns the value unchanged or
    [Error (Invalid_config {field; value; expected})] — the CLI reuses them
    to reject bad flag values with the accepted range in the message. *)

val check_threshold : ?field:string -> float -> (float, Err.t) result
(** Finite and in [0, 1].  [field] overrides the reported field name (e.g.
    ["--threshold"]). *)

val check_alpha : ?field:string -> float -> (float, Err.t) result
(** Finite and in [0, 1]. *)

val check_band : ?field:string -> int -> (int, Err.t) result
(** Non-negative. *)

val check_domains : ?field:string -> int -> (int, Err.t) result
(** At least 1. *)

val check_max_paths : ?field:string -> int -> (int, Err.t) result
(** At least 1. *)

val check_max_len : ?field:string -> int -> (int, Err.t) result
(** At least 1. *)

val check_ensemble_tau : ?field:string -> float -> (float, Err.t) result
(** Finite and non-negative (a z-score bound, so it is not confined to
    [0, 1]). *)

val validate : t -> (t, Err.t) result
(** Re-check every field of a record built by hand (the type is public on
    purpose — [{ default with threshold = 0.8 }] is the intended style).
    {!Service} validates the config it is given, so a NaN threshold or a
    probe cache with no ways or a line-size log2 outside [\[1, 16\]] is
    caught before any work starts. *)

(** {1 Persistence}

    Human-readable [key=value] lines under a [scaguard-config 1] header.
    [of_string (to_string c) = Ok c] for every valid [c] (floats are printed
    round-trip exactly); omitted keys keep their {!default}, unknown keys are
    a {!Err.Parse} error with the line number.  The retired [index_leaf] and
    [index_pivots] keys, which older saves carry, are parsed as integers
    and ignored. *)

val to_string : t -> string

val of_string : string -> (t, Err.t) result

val save : path:string -> t -> (unit, Err.t) result
(** Atomic, via the same writer as {!Persist}. *)

val load : path:string -> (t, Err.t) result

val pp : Format.formatter -> t -> unit
