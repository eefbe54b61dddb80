(** Small numeric summaries used by experiment reporting.

    All functions are total: the empty list yields [0.] rather than an
    exception, so table code can fold over possibly-empty measurement sets
    without guards.  {!sum} (and therefore {!mean}) is Kahan-compensated —
    the experiment harness accumulates thousands of small similarity values
    and naive summation visibly drifts in the fourth decimal the tables
    print. *)

val mean : float list -> float
(** Arithmetic mean; [0.] on the empty list. *)

val stddev : float list -> float
(** Population standard deviation; [0.] on lists of length < 2. *)

val median : float list -> float
(** Median (average of middle two for even length); [0.] on []. *)

val percentile : float -> float list -> float
(** [percentile p xs] with [p] in [\[0,1\]], nearest-rank; [0.] on []. *)

val minimum : float list -> float
(** Smallest element; [0.] on []. *)

val maximum : float list -> float
(** Largest element; [0.] on []. *)

val sum : float list -> float
(** Kahan-summed total. *)

(** {1 Histogram-bucket quantiles}

    The observability registry keeps latency distributions as fixed-bucket
    histograms (an array of ascending upper bounds plus one overflow bucket),
    so quantiles can only be estimated from the bucket counts.  These
    helpers implement the standard estimate — nearest-rank into the
    cumulative counts, then linear interpolation inside the chosen bucket —
    the same model as Prometheus' [histogram_quantile]. *)

val bucket_total : int array -> int
(** Total number of observations across all buckets. *)

val percentile_of_buckets :
  bounds:float array -> counts:int array -> float -> float
(** [percentile_of_buckets ~bounds ~counts p] with [p] in [\[0,1\]]:
    [bounds] are the ascending finite upper bucket edges and [counts] the
    per-bucket (non-cumulative) observation counts, with
    [length counts = length bounds + 1] — the extra cell is the overflow
    (+inf) bucket.  The first bucket's lower edge is [0.].  Returns [0.]
    when the histogram is empty; a rank landing in the overflow bucket
    reports the largest finite bound (the estimate cannot exceed the
    instrumented range).
    @raise Invalid_argument on a length mismatch. *)
