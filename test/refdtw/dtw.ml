(* Reference copy of Scaguard.Dtw before the scoring kernel: a generic DP
   over a [~cost] closure, boxed (cost, length) cells and per-pair
   lower-bound tuples.  The oracle of the DTW reference property. *)

module Model = Scaguard.Model
module Cst = Scaguard.Cst

(* DP over (accumulated cost, path length); the length of the optimal path
   normalizes the distance so scores are comparable across model sizes.

   Two optional refinements serve the batch engine:
   - a workspace reuses the four DP rows (and the Levenshtein rows of the
     entry cost) across calls, making the hot path allocation-free;
   - a Sakoe-Chiba band restricts the DP to |i - j| <= band, with an early
     bail-out (infinite distance) when the length difference alone exceeds
     the band.  Without [band] the full matrix is computed and results are
     bit-identical to the unbanded code.

   On top sits an *exact* pruning cascade (UCR-suite style) used by the
   detector's best-so-far loop: precomputed per-model summaries yield cheap
   lower bounds on the normalized distance, and the DP itself can abandon
   early against a score cutoff.  Soundness notes are kept next to each
   bound; the margin below absorbs float rounding so a mathematically-sound
   bound can never prune a pair whose computed score would have tied the
   best. *)

type workspace = {
  mutable prev_c : float array;
  mutable prev_l : int array;
  mutable cur_c : float array;
  mutable cur_l : int array;
  lev : Levenshtein.workspace;
  mutable pairs : int;
  mutable cells : int;
  mutable lb_pruned : int;
  mutable abandoned : int;
  mutable cells_saved : int;
  mutable lb_evals : int;
}

let workspace () =
  {
    prev_c = [||];
    prev_l = [||];
    cur_c = [||];
    cur_l = [||];
    lev = Levenshtein.workspace ();
    pairs = 0;
    cells = 0;
    lb_pruned = 0;
    abandoned = 0;
    cells_saved = 0;
    lb_evals = 0;
  }

let pairs_scored ws = ws.pairs
let cells_computed ws = ws.cells
let pairs_pruned_lb ws = ws.lb_pruned
let pairs_abandoned ws = ws.abandoned
let cells_saved ws = ws.cells_saved
let lb_evals ws = ws.lb_evals

let ensure ws len =
  if Array.length ws.prev_c < len then begin
    let cap = max len (2 * Array.length ws.prev_c) in
    ws.prev_c <- Array.make cap infinity;
    ws.prev_l <- Array.make cap 0;
    ws.cur_c <- Array.make cap infinity;
    ws.cur_l <- Array.make cap 0
  end

(* Number of DP cells the (possibly banded) DP visits for an n x m pair;
   used to account for the work a pruned pair would have cost. *)
let band_cells ?band n m =
  match band with
  | None -> n * m
  | Some w ->
    let total = ref 0 in
    for i = 1 to n do
      let jlo = max 1 (i - w) and jhi = min m (i + w) in
      if jhi >= jlo then total := !total + (jhi - jlo + 1)
    done;
    !total

let dp ?ws ?band ?cutoff ~cost a b =
  (match ws with Some w -> w.pairs <- w.pairs + 1 | None -> ());
  let n = Array.length a and m = Array.length b in
  if n = 0 && m = 0 then (0.0, 1)
  else if n = 0 || m = 0 then (infinity, 1)
  else if (match band with Some w -> abs (n - m) > w | None -> false) then
    (* no monotone path stays within the band: bail out without any DP work *)
    (infinity, 1)
  else begin
    let inf = infinity in
    let width = match band with Some w -> w | None -> max n m in
    let prev_c, prev_l, cur_c, cur_l =
      match ws with
      | Some w ->
        ensure w (m + 1);
        (w.prev_c, w.prev_l, w.cur_c, w.cur_l)
      | None ->
        ( Array.make (m + 1) inf,
          Array.make (m + 1) 0,
          Array.make (m + 1) inf,
          Array.make (m + 1) 0 )
    in
    Array.fill prev_c 0 (m + 1) inf;
    Array.fill prev_l 0 (m + 1) 0;
    prev_c.(0) <- 0.0;
    let cells = ref 0 in
    let abandoned_at = ref 0 in
    let i = ref 1 in
    while !abandoned_at = 0 && !i <= n do
      let row = !i in
      let jlo = max 1 (row - width) and jhi = min m (row + width) in
      cur_c.(jlo - 1) <- inf;
      cur_l.(jlo - 1) <- 0;
      let row_min = ref inf in
      for j = jlo to jhi do
        let c = cost a.(row - 1) b.(j - 1) in
        (* predecessors: (i-1,j) delete, (i,j-1) insert, (i-1,j-1) match *)
        let pc, pl =
          let c1 = prev_c.(j) and c2 = cur_c.(j - 1) and c3 = prev_c.(j - 1) in
          if c3 <= c1 && c3 <= c2 then (c3, prev_l.(j - 1))
          else if c1 <= c2 then (c1, prev_l.(j))
          else (c2, cur_l.(j - 1))
        in
        let v = c +. pc in
        cur_c.(j) <- v;
        cur_l.(j) <- pl + 1;
        if v < !row_min then row_min := v
      done;
      cells := !cells + (jhi - jlo + 1);
      (* seal the band edge so the next row reads infinity outside it *)
      if jhi < m then begin
        cur_c.(jhi + 1) <- inf;
        cur_l.(jhi + 1) <- 0
      end;
      let hi = min m (jhi + 1) in
      Array.blit cur_c (jlo - 1) prev_c (jlo - 1) (hi - jlo + 2);
      Array.blit cur_l (jlo - 1) prev_l (jlo - 1) (hi - jlo + 2);
      (* every warping path crosses every row, so the row minimum is a lower
         bound on the final accumulated cost: once it exceeds the cutoff the
         pair can never come back.  Cell costs are non-negative, so this
         check is float-exact (accumulation is monotone). *)
      (match cutoff with
      | Some cut when !row_min > cut -> abandoned_at := row
      | _ -> ());
      incr i
    done;
    (match ws with Some w -> w.cells <- w.cells + !cells | None -> ());
    if !abandoned_at > 0 then begin
      (match ws with
      | Some w ->
        w.abandoned <- w.abandoned + 1;
        let saved = ref 0 in
        for k = !abandoned_at + 1 to n do
          let jlo = max 1 (k - width) and jhi = min m (k + width) in
          if jhi >= jlo then saved := !saved + (jhi - jlo + 1)
        done;
        w.cells_saved <- w.cells_saved + !saved
      | None -> ());
      (infinity, 1)
    end
    else (prev_c.(m), max 1 prev_l.(m))
  end

let distance ?ws ?band ?cutoff ~cost a b = fst (dp ?ws ?band ?cutoff ~cost a b)

let normalized_distance ?ws ?band ~cost a b =
  let d, len = dp ?ws ?band ~cost a b in
  if d = infinity then 1.0 else d /. float_of_int len

let similarity_of_distance d = 1.0 /. (1.0 +. d)

(* Cost selection: [interned] (the default) compares token ids; [false]
   replays the string-token reference cost.  Scores are bit-identical — the
   flag exists so the tests can assert exactly that. *)
let entry_cost ~interned ?lev ?alpha () =
  if interned then Distance.entry_distance ?lev ?alpha
  else Distance.entry_distance_strings ?lev ?alpha

(* An empty model carries no behavior to compare: any score against it —
   including another empty model — is 0, never a perfect match. *)
let compare_models ?ws ?band ?alpha ?(interned = true) m1 m2 =
  if Model.is_empty m1 || Model.is_empty m2 then begin
    (match ws with Some w -> w.pairs <- w.pairs + 1 | None -> ());
    0.0
  end
  else
    let lev = match ws with Some w -> Some w.lev | None -> None in
    1.0
    -. normalized_distance ?ws ?band
         ~cost:(entry_cost ~interned ?lev ?alpha ())
         (Model.entries_array m1) (Model.entries_array m2)

let compare_models_raw ?ws ?band ?alpha ?(interned = true) m1 m2 =
  if Model.is_empty m1 || Model.is_empty m2 then begin
    (match ws with Some w -> w.pairs <- w.pairs + 1 | None -> ());
    0.0
  end
  else
    let lev = match ws with Some w -> Some w.lev | None -> None in
    similarity_of_distance
      (distance ?ws ?band
         ~cost:(entry_cost ~interned ?lev ?alpha ())
         (Model.entries_array m1) (Model.entries_array m2))

(* ------------------------------------------------------------------ *)
(* Per-model summaries and the exact lower-bound cascade.              *)

type summary = {
  s_model : Model.t;
  s_entries : Model.entry array;
  s_lens : int array;       (* normalized-token count per entry *)
  s_mags : float array;     (* cache-change magnitude per entry *)
  s_sorted_mags : float array;  (* s_mags, ascending *)
}

let summarize m =
  let s_entries = Model.entries_array m in
  let s_lens = Array.map (fun e -> Array.length e.Model.tokens) s_entries in
  let s_mags =
    Array.map (fun e -> Cst.change_magnitude e.Model.cst) s_entries
  in
  let s_sorted_mags = Array.copy s_mags in
  Array.sort Float.compare s_sorted_mags;
  { s_model = m; s_entries; s_lens; s_mags; s_sorted_mags }

let summary_model s = s.s_model
let summary_size s = Array.length s.s_entries
let summary_lens s = s.s_lens
let summary_mags s = s.s_mags

(* All bounds below bound the *normalized* distance D/L.  Since every step
   cost is in [0,1] (for alpha in [0,1]) the normalized distance is in
   [0,1], and any warping path over an n x m matrix has length
   L <= n + m - 1; dividing an accumulated-cost bound by Lmax = n + m - 1
   therefore under-approximates D/L. *)
let lower_bound ?ws ?(alpha = Distance.default_alpha) sa sb =
  (match ws with Some w -> w.lb_evals <- w.lb_evals + 1 | None -> ());
  let n = Array.length sa.s_entries and m = Array.length sb.s_entries in
  if n = 0 || m = 0 then 0.0
  else begin
    let beta = 1.0 -. alpha in
    let lmax = float_of_int (n + m - 1) in
    (* Stage A, O(1): if the magnitude ranges of the two models are
       disjoint, every single step costs at least beta * gap, and
       D/L >= beta * gap regardless of path length. *)
    let gap =
      let amin = sa.s_sorted_mags.(0) and amax = sa.s_sorted_mags.(n - 1) in
      let bmin = sb.s_sorted_mags.(0) and bmax = sb.s_sorted_mags.(m - 1) in
      Float.max 0.0 (Float.max (amin -. bmax) (bmin -. amax))
    in
    let lb = ref (beta *. gap) in
    (* Stage B, LB_Kim: every path starts at (1,1) and ends at (n,m), so D
       includes those two (distinct, when n+m >= 3) cell costs. *)
    let lev = match ws with Some w -> Some w.lev | None -> None in
    let kim =
      let c_first =
        Distance.entry_distance ?lev ~alpha sa.s_entries.(0) sb.s_entries.(0)
      in
      if n = 1 && m = 1 then c_first (* D = c_first, L = 1 *)
      else
        let c_last =
          Distance.entry_distance ?lev ~alpha
            sa.s_entries.(n - 1)
            sb.s_entries.(m - 1)
        in
        (c_first +. c_last) /. lmax
    in
    if kim > !lb then lb := kim;
    (* Stage C, O(n*m) in cheap scalar ops (no Levenshtein DPs): a warping
       path visits every row and every column at least once, each visit a
       distinct step, so D >= max(sum_i min_j lb(i,j), sum_j min_i lb(j,i))
       with lb the O(1) per-entry bound. *)
    let rows = ref 0.0 in
    for i = 0 to n - 1 do
      let best = ref infinity in
      let ea = (sa.s_lens.(i), sa.s_mags.(i)) in
      for j = 0 to m - 1 do
        let c =
          Distance.entry_lower_bound ~alpha ea (sb.s_lens.(j), sb.s_mags.(j))
        in
        if c < !best then best := c
      done;
      rows := !rows +. !best
    done;
    let cols = ref 0.0 in
    for j = 0 to m - 1 do
      let best = ref infinity in
      let eb = (sb.s_lens.(j), sb.s_mags.(j)) in
      for i = 0 to n - 1 do
        let c =
          Distance.entry_lower_bound ~alpha (sa.s_lens.(i), sa.s_mags.(i)) eb
        in
        if c < !best then best := c
      done;
      cols := !cols +. !best
    done;
    let stage_c = Float.max !rows !cols /. lmax in
    if stage_c > !lb then lb := stage_c;
    !lb
  end

(* Margin, in score space, absorbing float rounding between a bound and the
   score the exact DP would compute: a pair is only pruned when its bound
   proves the score misses the cutoff by more than this. *)
let prune_margin = 1e-9

let compare_summaries ?ws ?band ?alpha ?cutoff ?lb sa sb =
  if Model.is_empty sa.s_model || Model.is_empty sb.s_model then begin
    (match ws with Some w -> w.pairs <- w.pairs + 1 | None -> ());
    Some 0.0
  end
  else begin
    let n = Array.length sa.s_entries and m = Array.length sb.s_entries in
    if (match band with Some w -> abs (n - m) > w | None -> false) then begin
      (* outside the band the DP would bail out to similarity 0; keep the
         exact compare_models convention without paying for the call *)
      (match ws with Some w -> w.pairs <- w.pairs + 1 | None -> ());
      Some 0.0
    end
    else begin
      (* score >= cutoff  <=>  normalized distance <= 1 - cutoff =: dmax *)
      let dmax =
        match cutoff with
        | Some c -> 1.0 -. c +. prune_margin
        | None -> infinity
      in
      let pruned_by_lb =
        dmax < infinity
        &&
        let l = match lb with Some l -> l | None -> lower_bound ?ws ?alpha sa sb in
        l > dmax
      in
      if pruned_by_lb then begin
        (match ws with
        | Some w ->
          w.pairs <- w.pairs + 1;
          w.lb_pruned <- w.lb_pruned + 1;
          w.cells_saved <- w.cells_saved + band_cells ?band n m
        | None -> ());
        None
      end
      else begin
        let lev = match ws with Some w -> Some w.lev | None -> None in
        let raw_cutoff =
          (* D/L > dmax is implied by D > dmax * Lmax since L <= Lmax *)
          if dmax < infinity then Some (dmax *. float_of_int (n + m - 1))
          else None
        in
        let d, len =
          dp ?ws ?band ?cutoff:raw_cutoff
            ~cost:(Distance.entry_distance ?lev ?alpha)
            sa.s_entries sb.s_entries
        in
        if d = infinity then None
        else Some (1.0 -. (d /. float_of_int len))
      end
    end
  end
