(** Edit distance between interned token sequences, the syntactic half of
    the CST distance (§III-B1 of the paper) on normalized instruction
    sequences.  Tokens are interned ({!Intern}), so two tokens are equal iff
    their ids are. *)

type workspace
(** Reusable DP row buffers.  A workspace is owned by one caller at a time
    (one per pool worker); it grows monotonically and never shrinks.  Once
    grown, a call allocates nothing. *)

val workspace : unit -> workspace

val distance_ints : ws:workspace -> int array -> int array -> int
(** The Levenshtein (insert/delete/substitute, all cost 1) distance.  When
    the sequences were interned from string sequences out of one pool, it
    equals the distance of the strings: interning is a bijection, so
    equality, the only thing the DP consults, is preserved. *)

val normalized_ints : ws:workspace -> int array -> int array -> float
(** [distance_ints a b / max (length a) (length b)], following the paper's
    D_IS definition; [0.] when both are empty. *)
