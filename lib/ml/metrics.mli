(** Multi-class classification metrics, reported the way Table VI does:
    macro-averaged Precision / Recall / F1 over the classes present in the
    ground truth, plus the per-class breakdown and a JSON export the
    detector-showdown table is built from. *)

type class_scores = {
  cls : int;  (** the class this row scores *)
  support : int;  (** ground-truth samples of the class ([tp + fn]) *)
  tp : int;
  fp : int;
  fn : int;
  c_precision : float;
  c_recall : float;
  c_f1 : float;
}

type scores = {
  precision : float;
  recall : float;
  f1 : float;
  accuracy : float;
}

val per_class : classes:int list -> (int * int) list -> class_scores list
(** One {!class_scores} per class, in [classes] order, from [(predicted,
    actual)] pairs.  Absent denominators score 0 (same convention as
    {!evaluate}).  @raise Invalid_argument on []. *)

val evaluate : classes:int list -> (int * int) list -> scores
(** [evaluate ~classes pairs] where each pair is [(predicted, actual)]:
    the macro average of {!per_class} (bit-identical to averaging the
    breakdown by hand) plus overall accuracy.
    @raise Invalid_argument on []. *)

val confusion : classes:int list -> (int * int) list -> int array array
(** [confusion.(i).(j)] counts samples of actual class [classes[i]] predicted
    as [classes[j]]; predictions outside [classes] are dropped. *)

val pp : Format.formatter -> scores -> unit
