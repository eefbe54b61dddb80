(** Ablation studies for the design choices DESIGN.md calls out:
    the CST term, the relevance filtering, the MST path restoration, and the
    DTW normalization. *)

type variant =
  | Full             (** the complete pipeline *)
  | No_cst           (** similarity from instruction syntax only (alpha=1) *)
  | No_syntax        (** similarity from cache semantics only (alpha=0) *)
  | No_step2         (** skip the cache-set-overlap elimination: models built
                         from all step-1 candidates *)
  | No_restoration   (** connect relevant blocks directly, skipping the
                         MST path restoration *)
  | Raw_dtw          (** the paper's literal 1/(1+raw D) conversion *)

val variants : variant list
val variant_name : variant -> string

val model_of_run : variant -> Detect.Run.t -> Scaguard.Model.t
(** Build the (possibly ablated) model of an executed sample. *)

val similarity : variant -> Scaguard.Model.t -> Scaguard.Model.t -> float

val detection_scores :
  rng:Sutil.Rng.t -> per_family:int -> variant -> Ml.Metrics.scores
(** E1-style 5-class classification quality under the ablated pipeline
    (threshold fixed at the detector default; Raw_dtw uses 0.45, matching
    its different scale). *)

val to_table : (variant * Ml.Metrics.scores) list -> Sutil.Table.t
