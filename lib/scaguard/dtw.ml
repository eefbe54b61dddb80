(* DP over (accumulated cost, path length); the length of the optimal path
   normalizes the distance so scores are comparable across model sizes.

   One kernel scores every pair: [dp] runs over two summaries and computes
   the step cost inline from each entry's interned tokens and precomputed
   cache-change magnitude, with the float operations of
   Distance.entry_distance in the same order.  It swaps its rows instead of
   copying them and leaves the path length in the workspace, so once the
   workspace has grown a call allocates nothing per cell.

   Two optional refinements serve the batch engine:
   - a Sakoe-Chiba band restricts the DP to |i - j| <= band, with an early
     bail-out (infinite distance) when the length difference alone exceeds
     the band.  Without [band] the full matrix is computed.
   - a cutoff abandons the DP once a whole row exceeds it.

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
  mutable col_min : float array; (* the lower bound's column minima *)
  mutable len : int; (* path length of the latest [dp] *)
  lev : Sutil.Levenshtein.workspace;
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
    col_min = [||];
    len = 1;
    lev = Sutil.Levenshtein.workspace ();
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
    let cap = Int.max len (2 * Array.length ws.prev_c) in
    ws.prev_c <- Array.make cap infinity;
    ws.prev_l <- Array.make cap 0;
    ws.cur_c <- Array.make cap infinity;
    ws.cur_l <- Array.make cap 0
  end

let or_fresh = function Some ws -> ws | None -> workspace ()

(* The band's half-width for an n x m pair; unbanded, every column. *)
let width ~band n m = match band with Some w -> w | None -> Int.max n m

(* Number of DP cells rows [first..n] of an n x m pair visit within the
   band; it accounts for the work a pruned or abandoned pair would have
   cost. *)
let rows_cells ~width ~first n m =
  let total = ref 0 in
  for i = first to n do
    let jlo = Int.max 1 (i - width) and jhi = Int.min m (i + width) in
    if jhi >= jlo then total := !total + (jhi - jlo + 1)
  done;
  !total

let similarity_of_distance d = 1.0 /. (1.0 +. d)

(* ------------------------------------------------------------------ *)
(* Per-model summaries.                                                *)

type summary = {
  s_model : Model.t;
  s_tokens : int array array; (* interned tokens per entry *)
  s_lens : int array; (* normalized-token count per entry *)
  s_mags : float array; (* cache-change magnitude per entry *)
  s_sorted_mags : float array; (* s_mags, ascending *)
}

let summarize m =
  let entries = Model.entries_array m in
  let s_tokens = Array.map (fun e -> e.Model.tokens) entries in
  let s_mags = Array.map (fun e -> Cst.change_magnitude e.Model.cst) entries in
  let s_sorted_mags = Array.copy s_mags in
  Array.sort Float.compare s_sorted_mags;
  let s_lens = Array.map Array.length s_tokens in
  { s_model = m; s_tokens; s_lens; s_mags; s_sorted_mags }

let summary_model s = s.s_model
let summary_size s = Array.length s.s_tokens
let summary_lens s = s.s_lens
let summary_mags s = s.s_mags

(* ------------------------------------------------------------------ *)
(* The kernel.                                                         *)

(* Distance.entry_distance between entry [i] of [sa] and entry [j] of
   [sb]: D_IS as Levenshtein.normalized_ints computes it, and
   D_CSP = |mag_b - mag_a|, which is exactly Cst.distance. *)
let[@inline] step ws ~alpha ~beta sa i sb j =
  let ta = sa.s_tokens.(i) and tb = sb.s_tokens.(j) in
  let la = Array.length ta and lb = Array.length tb in
  let longer = if la > lb then la else lb in
  let d_is =
    if longer = 0 then 0.0
    else
      float_of_int (Sutil.Levenshtein.distance_ints ~ws:ws.lev ta tb)
      /. float_of_int longer
  in
  (alpha *. d_is) +. (beta *. abs_float (sb.s_mags.(j) -. sa.s_mags.(i)))

(* Raw accumulated distance, with the path length left in [ws.len].  Both
   empty: 0.  One empty, no monotone path within the band, or a row minimum
   above [cut]: infinity (length 1). *)
let dp ws ~band ~cut ~alpha sa sb =
  ws.pairs <- ws.pairs + 1;
  ws.len <- 1;
  let n = summary_size sa and m = summary_size sb in
  if n = 0 && m = 0 then 0.0
  else if n = 0 || m = 0 then infinity
  else if (match band with Some w -> abs (n - m) > w | None -> false) then infinity
  else begin
    let beta = 1.0 -. alpha and width = width ~band n m in
    ensure ws (m + 1);
    let prev_c = ref ws.prev_c and prev_l = ref ws.prev_l in
    let cur_c = ref ws.cur_c and cur_l = ref ws.cur_l in
    Array.fill !prev_c 0 (m + 1) infinity;
    Array.fill !prev_l 0 (m + 1) 0;
    !prev_c.(0) <- 0.0;
    let cells = ref 0 and abandoned_at = ref 0 and row = ref 1 in
    while !abandoned_at = 0 && !row <= n do
      let i = !row in
      let pc = !prev_c and pl = !prev_l and cc = !cur_c and cl = !cur_l in
      let jlo = Int.max 1 (i - width) and jhi = Int.min m (i + width) in
      cc.(jlo - 1) <- infinity;
      cl.(jlo - 1) <- 0;
      let row_min = ref infinity in
      for j = jlo to jhi do
        let c = step ws ~alpha ~beta sa (i - 1) sb (j - 1) in
        (* predecessors: (i-1,j) delete, (i,j-1) insert, (i-1,j-1) match *)
        let c1 = pc.(j) and c2 = cc.(j - 1) and c3 = pc.(j - 1) in
        if c3 <= c1 && c3 <= c2 then begin
          cc.(j) <- c +. c3;
          cl.(j) <- pl.(j - 1) + 1
        end
        else if c1 <= c2 then begin
          cc.(j) <- c +. c1;
          cl.(j) <- pl.(j) + 1
        end
        else begin
          cc.(j) <- c +. c2;
          cl.(j) <- cl.(j - 1) + 1
        end;
        if cc.(j) < !row_min then row_min := cc.(j)
      done;
      cells := !cells + (jhi - jlo + 1);
      (* seal the band edge so the next row reads infinity outside it *)
      if jhi < m then begin
        cc.(jhi + 1) <- infinity;
        cl.(jhi + 1) <- 0
      end;
      (* the next row reads only columns this row wrote, so the rows swap *)
      prev_c := cc;
      prev_l := cl;
      cur_c := pc;
      cur_l := pl;
      (* every warping path crosses every row, so the row minimum is a lower
         bound on the final accumulated cost: once it exceeds the cutoff the
         pair can never come back.  Cell costs are non-negative, so this
         check is float-exact (accumulation is monotone). *)
      if !row_min > cut then abandoned_at := i;
      incr row
    done;
    ws.cells <- ws.cells + !cells;
    if !abandoned_at > 0 then begin
      ws.abandoned <- ws.abandoned + 1;
      ws.cells_saved <-
        ws.cells_saved + rows_cells ~width ~first:(!abandoned_at + 1) n m;
      infinity
    end
    else begin
      ws.len <- Int.max 1 !prev_l.(m);
      !prev_c.(m)
    end
  end

(* An empty model carries no behavior to compare: any score against it —
   including another empty model — is 0, never a perfect match. *)
let score_models ~score ?ws ?band ?(alpha = Distance.default_alpha) m1 m2 =
  let ws = or_fresh ws in
  if Model.is_empty m1 || Model.is_empty m2 then begin
    ws.pairs <- ws.pairs + 1;
    0.0
  end
  else score ws (dp ws ~band ~cut:infinity ~alpha (summarize m1) (summarize m2))

let compare_models =
  score_models ~score:(fun ws d ->
      1.0 -. (if d = infinity then 1.0 else d /. float_of_int ws.len))

let compare_models_raw = score_models ~score:(fun _ d -> similarity_of_distance d)

(* ------------------------------------------------------------------ *)
(* The exact lower-bound cascade.                                      *)

(* All bounds below bound the *normalized* distance D/L.  Since every step
   cost is in [0,1] (for alpha in [0,1]) the normalized distance is in
   [0,1], and any warping path over an n x m matrix has length
   L <= n + m - 1; dividing an accumulated-cost bound by Lmax = n + m - 1
   therefore under-approximates D/L. *)
let bound ws ~alpha sa sb =
  ws.lb_evals <- ws.lb_evals + 1;
  let n = summary_size sa and m = summary_size sb in
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
    let c_first = step ws ~alpha ~beta sa 0 sb 0 in
    let kim =
      if n = 1 && m = 1 then c_first (* D = c_first, L = 1 *)
      else (c_first +. step ws ~alpha ~beta sa (n - 1) sb (m - 1)) /. lmax
    in
    if kim > !lb then lb := kim;
    (* Stage C, O(n*m) in cheap scalar ops (no Levenshtein DPs): a warping
       path visits every row and every column at least once, each visit a
       distinct step, so D >= max(sum_i min_j lb(i,j), sum_j min_i lb(i,j)),
       with lb(i,j) computed once for both sums.  lb bounds the step cost
       from the entries' token counts and magnitudes alone: D_IS =
       lev / max_len >= |len_a - len_b| / max_len (the Levenshtein length
       bound), and D_CSP is exactly |mag_a - mag_b|, so for alpha in [0,1]
       the blend of the two bounds is <= the blend of the true terms. *)
    if Array.length ws.col_min < m then
      ws.col_min <- Array.make (Int.max m (2 * Array.length ws.col_min)) 0.0;
    let col_min = ws.col_min in
    Array.fill col_min 0 m infinity;
    let rows = ref 0.0 in
    for i = 0 to n - 1 do
      let best = ref infinity in
      let len_a = sa.s_lens.(i) and ma = sa.s_mags.(i) in
      for j = 0 to m - 1 do
        let len_b = sb.s_lens.(j) in
        let lev_lb =
          if len_a = 0 && len_b = 0 then 0.0
          else
            float_of_int (abs (len_a - len_b))
            /. float_of_int (if len_a > len_b then len_a else len_b)
        in
        let c = (alpha *. lev_lb) +. (beta *. abs_float (ma -. sb.s_mags.(j))) in
        if c < !best then best := c;
        if c < col_min.(j) then col_min.(j) <- c
      done;
      rows := !rows +. !best
    done;
    let cols = ref 0.0 in
    for j = 0 to m - 1 do
      cols := !cols +. col_min.(j)
    done;
    let stage_c = Float.max !rows !cols /. lmax in
    if stage_c > !lb then lb := stage_c;
    !lb
  end

let lower_bound ?ws ?(alpha = Distance.default_alpha) sa sb =
  bound (or_fresh ws) ~alpha sa sb

(* Margin, in score space, absorbing float rounding between a bound and the
   score the exact DP would compute: a pair is only pruned when its bound
   proves the score misses the cutoff by more than this. *)
let prune_margin = 1e-9

let compare_summaries ?ws ?band ?(alpha = Distance.default_alpha) ?cutoff ?lb sa sb =
  let ws = or_fresh ws in
  let n = summary_size sa and m = summary_size sb in
  if
    Model.is_empty sa.s_model || Model.is_empty sb.s_model
    || match band with Some w -> abs (n - m) > w | None -> false
  then begin
    (* an empty model scores 0, and outside the band the DP would bail out
       to similarity 0: keep the compare_models convention without a DP *)
    ws.pairs <- ws.pairs + 1;
    Some 0.0
  end
  else begin
    (* score >= cutoff  <=>  normalized distance <= 1 - cutoff =: dmax *)
    let dmax =
      match cutoff with Some c -> 1.0 -. c +. prune_margin | None -> infinity
    in
    let pruned_by_lb =
      dmax < infinity
      && (match lb with Some l -> l | None -> bound ws ~alpha sa sb) > dmax
    in
    if pruned_by_lb then begin
      ws.pairs <- ws.pairs + 1;
      ws.lb_pruned <- ws.lb_pruned + 1;
      ws.cells_saved <-
        ws.cells_saved + rows_cells ~width:(width ~band n m) ~first:1 n m;
      None
    end
    else begin
      (* D/L > dmax is implied by D > dmax * Lmax since L <= Lmax *)
      let cut =
        if dmax < infinity then dmax *. float_of_int (n + m - 1) else infinity
      in
      let d = dp ws ~band ~cut ~alpha sa sb in
      if d = infinity then None else Some (1.0 -. (d /. float_of_int ws.len))
    end
  end
