(** Serialization of CST-BBS models and PoC repositories — a line-oriented
    text format and a compact versioned binary image.

    The deployment story of §V builds the repository once and screens
    programs later; persistence makes that real.  Two formats serve the two
    halves of that story:

    - {b Text}: simple, diffable, line-oriented.  Tokens, model names and
      families are escaped (['\\'] → ["\\\\"], newline → ["\\n"], the empty
      string → ["\\_"]) so {e any} string round-trips; no writer code path
      can abort the process.
    - {b Binary}: ["SCAGBIN"] magic + version header, an embedded string
      table (interned token ids are process-local, so the image carries its
      own strings), varint-packed token sequences, floats as exact bit
      patterns, a model index (name, family, blob length) and, optionally,
      the shape of the repository index.  It stores nothing the loader can
      derive: summaries and index bounds are recomputed on load.  See
      DESIGN.md for the byte-level spec.

    Every [load_*] entry point sniffs the leading bytes and accepts either
    format; the binary magic cannot collide with the text headers.

    Every operation returns typed {!Err.t} errors — text parse failures
    carry the file name and 1-based line number, binary ones the file name
    and byte offset.  No entry point leaks [Unix.Unix_error] or raw
    [failwith]s from the writers.

    Loaded models carry empty [instrs] lists — similarity comparison only
    needs the normalized token sequences and the CSTs, both of which are
    preserved exactly. *)

val model_to_string : Model.t -> string
(** Text encoding.  Total: every model value serializes (escaping handles
    newlines, backslashes and empty tokens). *)

val model_of_string_result : ?file:string -> string -> (Model.t, Err.t) result
(** [Error (Parse _)] on malformed input; [?file] is only used to label the
    error location.  Text format only (file loads sniff, string parsing is
    explicit — use {!model_of_bytes_result} for binary bytes). *)

val repository_to_string : Detector.repository -> string
(** Text encoding; total, like {!model_to_string}. *)

val repository_of_string_result :
  ?file:string -> string -> (Detector.repository, Err.t) result

(** {1 Binary encoding} *)

val is_binary : string -> bool
(** Whether the bytes start with the binary magic — the same sniff the
    [load_*] functions apply. *)

val repository_to_bytes : ?index:Vpindex.t -> Detector.repository -> string
(** The binary repository image.  Deterministic: a given repository value
    (and index) always produces the same bytes.  [index] embeds the
    serialized repository index ({!Vpindex.to_bytes}) in the image's
    optional index section so loads skip the rebuild; it must have been
    built over exactly this repository. *)

val repository_of_bytes_result :
  ?file:string -> string -> (Detector.repository, Err.t) result
(** Decode a binary image.  [Error (Parse {line = None; _})] with the byte
    offset in the message on truncation, bad magic, unsupported version or
    any other corruption. *)

val repository_of_bytes_prepared_result :
  ?file:string ->
  string ->
  (Detector.repository * Detector.prepared, Err.t) result
(** {!repository_of_bytes_result} plus the repository {!Detector.prepare}d,
    with the image's index attached when it carries a v3 index shape: the
    bounds are re-derived from the summaries ({!Vpindex.of_bytes_result}),
    so no byte of the image can make pruning unsound.  v1 images, v2 images
    (whose index section, if any, is skipped) and images saved without an
    index load with no index.  Never raises: every corruption is
    [Error (Parse _)]. *)

val has_index_section : string -> bool
(** Whether the bytes are a binary repository image saved with an index
    section — including a v2 section, which loads skip.  [false] for text
    and for bytes that do not parse. *)

val model_to_bytes : Model.t -> string
(** Single-model binary encoding (the {!Model_cache} entry format). *)

val model_of_bytes_result : ?file:string -> string -> (Model.t, Err.t) result

(** {1 Saving and loading} *)

val save_repository_result :
  path:string -> Detector.repository -> (unit, Err.t) result
(** Text format.  Atomic and durable: the repository is written to a temp
    file in the destination's directory, fsynced, renamed into place, and
    the directory is fsynced — a crash can never leave a truncated or
    corrupt file at [path]. *)

val save_repository_bin_result :
  ?index:Vpindex.t -> path:string -> Detector.repository ->
  (unit, Err.t) result
(** {!save_repository_result}, binary image format.  [index] as in
    {!repository_to_bytes}. *)

val load_repository_result :
  path:string -> (Detector.repository, Err.t) result
(** Sniffs the format: binary images and text files both load.
    [Error (Io _)] on IO problems, [Error (Parse {file; line; _})] on
    malformed content.  Parsing is strict: every token of a text [cst] line
    must be a float, every binary blob must match its declared length —
    malformed data is corruption, not noise. *)

val load_repository_prepared_result :
  path:string ->
  (Detector.repository * Detector.prepared, Err.t) result
(** {!load_repository_result} plus a ready-to-classify {!Detector.prepared}
    — {!repository_of_bytes_prepared_result} for binary images, so an
    embedded v3 index shape is attached without a rebuild, and
    {!Detector.prepare} after parsing for text files.  Either way the
    prepared repository classifies bit-identically to
    [Detector.prepare repo]. *)

val save_model_result : path:string -> Model.t -> (unit, Err.t) result
(** One model to one file, text format; atomic like
    {!save_repository_result}. *)

val save_model_bin_result : path:string -> Model.t -> (unit, Err.t) result
(** {!save_model_result}, binary format. *)

val load_model_result : path:string -> (Model.t, Err.t) result
(** Sniffs the format like {!load_repository_result}.  The loaded model's
    tokens are re-interned in this process; interned ids are never part of
    either on-disk format. *)

(** {1 Shared file plumbing}

    Used by {!Config} (and available to other callers) so every artefact the
    system persists goes through the same atomic writer. *)

val bin_version : int
(** The SCAGBIN container version this build writes (3; readers accept
    versions 1 and 2 too).  Exported as the [format_version] label of the
    [scaguard_build_info] gauge, so a scrape identifies what a process
    would emit. *)

val write_atomic : path:string -> string -> unit
(** Write [contents] to a sibling temp file, fsync it, rename it over
    [path], and fsync the directory — atomic {e and} durable (the data hits
    disk before the rename publishes it).  Failures from the Unix layer
    (including cross-device renames) surface as [Sys_error], never
    [Unix.Unix_error], and the temp file is removed on any failure.
    @raise Sys_error on IO problems. *)

val read_file : path:string -> string
(** Read the whole file.
    @raise Sys_error on IO problems. *)
