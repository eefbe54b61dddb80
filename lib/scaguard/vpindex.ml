(* The repository index: a vantage-point tree over Dtw.summarize summaries.

   DTW's normalized distance is not a metric (no triangle inequality), so the
   tree is only a *clustering heuristic*: construction groups models by
   Dtw.lower_bound distance to seeded pivots, but query-time pruning never
   relies on pivot distances.  Instead every node carries aggregate scoring
   ingredients pooled over its whole subtree — entry-count ranges,
   cache-change magnitude ranges, first/last-entry pools, and small interval
   sketches of the pooled magnitudes and token counts — from which
   [pool_bound] computes a provable lower bound on the normalized DTW
   distance between the target and EVERY member of the subtree, by the same
   three arguments as {!Dtw.lower_bound} (range gap, LB_Kim, row bound)
   relaxed over the pools.  A subtree is skipped only when that bound
   exceeds the caller's best-so-far radius, so verdicts stay bit-identical
   to the linear cascade.

   Per-member screens reuse the same formulas with the member's exact
   first/last entries and its own sketches: O(target entries) cheap scalar
   work per member, an order of magnitude cheaper than the full
   Dtw.lower_bound (which runs two Levenshtein DPs and an O(n*m) scan), and
   sound for the same reasons.  The screens are what shrink the number of
   full lower-bound evaluations per query — the metric `bench: index`
   tracks.

   Construction is sequential and seeded (Sutil.Rng on [spec.seed]), so
   building the same repository twice — in any process, under any domain
   count — yields byte-identical indexes ([to_bytes]).

   The serialized form is only the tree's shape (node nesting and leaf
   member positions).  Decoding re-derives every pool from the loaded
   summaries with the same [member_of]/[leaf_node]/[branch_node] that
   construction uses, so no byte of a stored index can make a bound
   unsound. *)

type mode = Auto | Force

type spec = { mode : mode; leaf : int; pivots : int; seed : int }

let default_spec = { mode = Auto; leaf = 16; pivots = 5; seed = 0 }

(* Auto: repositories below this size classify in microseconds anyway; the
   index only pays for itself past a few hundred models. *)
let auto_min = 256

(* Interval-sketch width: each member (and each node) compresses its pooled
   magnitudes / token counts into at most this many covering intervals. *)
let sketch_k = 4

(* FNV-1a over the salt, folded into OCaml's 63-bit int range: the
   deterministic bridge from Config.salt to the construction seed. *)
let seed_of_salt salt =
  let h = ref 0xcbf29ce484222325L in
  String.iter
    (fun c ->
      h := Int64.logxor !h (Int64.of_int (Char.code c));
      h := Int64.mul !h 0x100000001b3L)
    salt;
  Int64.to_int (Int64.logand !h Int64.max_int)

(* The scoring ingredients pooled over a set of models: every member's entry
   count lies in [n_min, n_max], every entry magnitude in [mag_lo, mag_hi],
   every first (resp. last) entry inside the f_ (resp. l_) ranges, and the
   sketches cover every magnitude and token count.  A member's pool is its
   own exact values; a node's pool merges its children's. *)
type pool = {
  n_min : int;
  n_max : int;
  mag_lo : float;
  mag_hi : float;
  f_len_lo : int;
  f_len_hi : int;
  f_mag_lo : float;
  f_mag_hi : float;
  l_len_lo : int;
  l_len_hi : int;
  l_mag_lo : float;
  l_mag_hi : float;
  mag_sk : (float * float) array;  (* ascending disjoint covering intervals *)
  len_sk : (int * int) array;
}

(* [idx] is the position in the prepared repository; members are always
   non-empty models *)
type member = { idx : int; screen : pool }

type node = { count : int; (* members in the subtree *) pool : pool; kind : kind }
and kind = Leaf of member array | Branch of node array

type t = {
  size : int;          (* repository size, empties included *)
  empties : int array; (* indices of empty models: always scored, never pruned *)
  root : node option;
}

type counters = {
  mutable nodes_visited : int;
  mutable pairs_pruned_index : int;
}

let counters () = { nodes_visited = 0; pairs_pruned_index = 0 }
let size t = t.size

(* ---- interval sketches ------------------------------------------------------- *)

(* Compress an unsorted value multiset into at most [k] disjoint ascending
   intervals that COVER every value: sort, deduplicate, then keep the k-1
   largest gaps as cuts.  Covering is what makes the sketch sound: the
   distance from a point to the sketch never exceeds its distance to any
   actual value. *)
let sketch_of_floats k values =
  let v = Array.copy values in
  Array.sort Float.compare v;
  let n = Array.length v in
  if n = 0 then [||]
  else begin
    (* distinct values *)
    let dis = ref [ v.(0) ] and last = ref v.(0) in
    for i = 1 to n - 1 do
      if v.(i) <> !last then begin
        dis := v.(i) :: !dis;
        last := v.(i)
      end
    done;
    let d = Array.of_list (List.rev !dis) in
    let p = Array.length d in
    if p <= k then Array.map (fun x -> (x, x)) d
    else begin
      (* cut at the k-1 largest gaps (ties broken towards earlier gaps so
         the construction is deterministic) *)
      let gaps = Array.init (p - 1) (fun i -> (d.(i + 1) -. d.(i), i)) in
      Array.sort
        (fun (ga, ia) (gb, ib) ->
          match Float.compare gb ga with 0 -> Int.compare ia ib | c -> c)
        gaps;
      let cuts = Array.sub gaps 0 (k - 1) in
      let cut_idx = Array.map snd cuts in
      Array.sort Int.compare cut_idx;
      let out = Array.make k (0.0, 0.0) in
      let lo = ref 0 in
      Array.iteri
        (fun j c ->
          out.(j) <- (d.(!lo), d.(c));
          lo := c + 1)
        cut_idx;
      out.(k - 1) <- (d.(!lo), d.(p - 1));
      out
    end
  end

let sketch_of_ints k values =
  sketch_of_floats k (Array.map float_of_int values)
  |> Array.map (fun (lo, hi) -> (int_of_float lo, int_of_float hi))

(* Merge child sketches into one covering sketch of at most [k] intervals:
   union the (already disjoint-per-child) intervals, then re-cut at the
   largest inter-interval gaps. *)
let merge_float_sketches k sketches =
  let all = Array.concat (Array.to_list sketches) in
  if Array.length all = 0 then [||]
  else begin
    Array.sort
      (fun (la, ha) (lb, hb) ->
        match Float.compare la lb with 0 -> Float.compare ha hb | c -> c)
      all;
    (* coalesce overlapping/touching intervals *)
    let merged = ref [] in
    let clo = ref (fst all.(0)) and chi = ref (snd all.(0)) in
    for i = 1 to Array.length all - 1 do
      let lo, hi = all.(i) in
      if lo <= !chi then chi := Float.max !chi hi
      else begin
        merged := (!clo, !chi) :: !merged;
        clo := lo;
        chi := hi
      end
    done;
    merged := (!clo, !chi) :: !merged;
    let iv = Array.of_list (List.rev !merged) in
    let p = Array.length iv in
    if p <= k then iv
    else begin
      let gaps = Array.init (p - 1) (fun i -> (fst iv.(i + 1) -. snd iv.(i), i)) in
      Array.sort
        (fun (ga, ia) (gb, ib) ->
          match Float.compare gb ga with 0 -> Int.compare ia ib | c -> c)
        gaps;
      let cut_idx = Array.map snd (Array.sub gaps 0 (k - 1)) in
      Array.sort Int.compare cut_idx;
      let out = Array.make k (0.0, 0.0) in
      let lo = ref 0 in
      Array.iteri
        (fun j c ->
          out.(j) <- (fst iv.(!lo), snd iv.(c));
          lo := c + 1)
        cut_idx;
      out.(k - 1) <- (fst iv.(!lo), snd iv.(p - 1));
      out
    end
  end

let merge_int_sketches k sketches =
  merge_float_sketches k
    (Array.map
       (Array.map (fun (lo, hi) -> (float_of_int lo, float_of_int hi)))
       sketches)
  |> Array.map (fun (lo, hi) -> (int_of_float lo, int_of_float hi))

(* Distance from a point to the nearest sketch interval — a lower bound on
   its distance to any value the sketch covers. *)
let dist_float_sketch x sk =
  let best = ref infinity in
  Array.iter
    (fun (lo, hi) ->
      let d = if x < lo then lo -. x else if x > hi then x -. hi else 0.0 in
      if d < !best then best := d)
    sk;
  if !best = infinity then 0.0 else !best

(* min over l in [lo, hi] of |l1 - l| / max(l1, l) — the Levenshtein length
   term of Dtw.lower_bound's per-entry bound relaxed over a length range.
   The term is monotone on either side of the range, so the minimum sits at
   the nearest endpoint. *)
let len_term_range l1 lo hi =
  if l1 >= lo && l1 <= hi then 0.0
  else if l1 < lo then
    (* lo > l1 >= 0, so lo >= 1 *)
    float_of_int (lo - l1) /. float_of_int lo
  else float_of_int (l1 - hi) /. float_of_int l1

let dist_int_sketch l1 sk =
  let best = ref infinity in
  Array.iter
    (fun (lo, hi) ->
      let d = len_term_range l1 lo hi in
      if d < !best then best := d)
    sk;
  if !best = infinity then 0.0 else !best

(* ---- members ----------------------------------------------------------------- *)

let member_of idx summary =
  let lens = Dtw.summary_lens summary and mags = Dtw.summary_mags summary in
  let n = Array.length lens in
  let first_len = lens.(0) and last_len = lens.(n - 1) in
  let first_mag = mags.(0) and last_mag = mags.(n - 1) in
  {
    idx;
    screen =
      {
        n_min = n;
        n_max = n;
        mag_lo = Array.fold_left Float.min mags.(0) mags;
        mag_hi = Array.fold_left Float.max mags.(0) mags;
        f_len_lo = first_len;
        f_len_hi = first_len;
        f_mag_lo = first_mag;
        f_mag_hi = first_mag;
        l_len_lo = last_len;
        l_len_hi = last_len;
        l_mag_lo = last_mag;
        l_mag_hi = last_mag;
        mag_sk = sketch_of_floats sketch_k mags;
        len_sk = sketch_of_ints sketch_k lens;
      };
  }

(* Min, max and the count sum are exact, so merging child pools gives the
   same bits as pooling the subtree's members directly. *)
let merge_pools pools =
  let p0 = pools.(0) in
  let fold f proj = Array.fold_left (fun acc p -> f acc (proj p)) (proj p0) pools in
  {
    n_min = fold min (fun p -> p.n_min);
    n_max = fold max (fun p -> p.n_max);
    mag_lo = fold Float.min (fun p -> p.mag_lo);
    mag_hi = fold Float.max (fun p -> p.mag_hi);
    f_len_lo = fold min (fun p -> p.f_len_lo);
    f_len_hi = fold max (fun p -> p.f_len_hi);
    f_mag_lo = fold Float.min (fun p -> p.f_mag_lo);
    f_mag_hi = fold Float.max (fun p -> p.f_mag_hi);
    l_len_lo = fold min (fun p -> p.l_len_lo);
    l_len_hi = fold max (fun p -> p.l_len_hi);
    l_mag_lo = fold Float.min (fun p -> p.l_mag_lo);
    l_mag_hi = fold Float.max (fun p -> p.l_mag_hi);
    mag_sk = merge_float_sketches sketch_k (Array.map (fun p -> p.mag_sk) pools);
    len_sk = merge_int_sketches sketch_k (Array.map (fun p -> p.len_sk) pools);
  }

let leaf_node members =
  {
    count = Array.length members;
    pool = merge_pools (Array.map (fun m -> m.screen) members);
    kind = Leaf members;
  }

let branch_node children =
  {
    count = Array.fold_left (fun acc c -> acc + c.count) 0 children;
    pool = merge_pools (Array.map (fun c -> c.pool) children);
    kind = Branch children;
  }

(* ---- construction ------------------------------------------------------------ *)

(* Pivot quality: spread of the lower-bound distances from the candidate to
   a sample of members — a high-spread pivot splits the set into genuinely
   near and far halves. *)
let spread dists =
  let n = Array.length dists in
  if n = 0 then 0.0
  else begin
    let mean = Array.fold_left ( +. ) 0.0 dists /. float_of_int n in
    Array.fold_left (fun acc d -> acc +. ((d -. mean) *. (d -. mean))) 0.0 dists
    /. float_of_int n
  end

let build_vp ~rng ~leaf ~pivots pairs =
  (* pairs : (member * Dtw.summary) array, construction-only *)
  let rec go pairs =
    let n = Array.length pairs in
    if n <= leaf then leaf_node (Array.map fst pairs)
    else begin
      (* sample pivot candidates; score each on a bounded member sample *)
      let cand_count = min pivots n in
      let cands = Array.init cand_count (fun _ -> Sutil.Rng.int rng n) in
      let sample_count = min 32 n in
      let sample = Array.init sample_count (fun _ -> Sutil.Rng.int rng n) in
      let best_c = ref cands.(0) and best_s = ref neg_infinity in
      Array.iter
        (fun c ->
          let sc = snd pairs.(c) in
          let ds =
            Array.map (fun s -> Dtw.lower_bound sc (snd pairs.(s))) sample
          in
          let sp = spread ds in
          if sp > !best_s then begin
            best_s := sp;
            best_c := c
          end)
        cands;
      let pivot = snd pairs.(!best_c) in
      let dist =
        Array.map (fun (m, s) -> (Dtw.lower_bound pivot s, m, s)) pairs
      in
      (* position split at the median: deterministic (distance, then
         repository index) and always balanced, even when every distance
         ties *)
      Array.sort
        (fun (da, ma, _) (db, mb, _) ->
          match Float.compare da db with
          | 0 -> Int.compare ma.idx mb.idx
          | c -> c)
        dist;
      let half = (n + 1) / 2 in
      let near = Array.sub dist 0 half
      and far = Array.sub dist half (n - half) in
      let strip = Array.map (fun (_, m, s) -> (m, s)) in
      branch_node [| go (strip near); go (strip far) |]
    end
  in
  go pairs

let check_spec spec =
  if spec.leaf < 2 then
    invalid_arg (Printf.sprintf "Vpindex.build: leaf %d < 2" spec.leaf);
  if spec.pivots < 1 then
    invalid_arg (Printf.sprintf "Vpindex.build: pivots %d < 1" spec.pivots)

(* Empty models stay out of the tree: their positions are a function of the
   summaries alone, in build and decode alike. *)
let empty_positions summaries =
  List.init (Array.length summaries) Fun.id
  |> List.filter (fun i -> Dtw.summary_size summaries.(i) = 0)
  |> Array.of_list

let build spec summaries =
  check_spec spec;
  let size = Array.length summaries in
  if spec.mode = Auto && size < auto_min then None
  else begin
    let pairs =
      List.init size Fun.id
      |> List.filter_map (fun i ->
             let s = summaries.(i) in
             if Dtw.summary_size s = 0 then None else Some (member_of i s, s))
      |> Array.of_list
    in
    let root =
      if Array.length pairs = 0 then None
      else
        let rng = Sutil.Rng.create spec.seed in
        Some (build_vp ~rng ~leaf:spec.leaf ~pivots:spec.pivots pairs)
    in
    Some { size; empties = empty_positions summaries; root }
  end

(* ---- query-time bounds ------------------------------------------------------- *)

(* Target-side ingredients, computed once per query. *)
type probe = {
  t_n : int;
  t_lens : int array;
  t_mags : float array;
  t_mag_lo : float;
  t_mag_hi : float;
  alpha : float;
  beta : float;
}

let probe ~alpha st =
  let lens = Dtw.summary_lens st and mags = Dtw.summary_mags st in
  let n = Array.length lens in
  {
    t_n = n;
    t_lens = lens;
    t_mags = mags;
    t_mag_lo = (if n = 0 then 0.0 else Array.fold_left Float.min mags.(0) mags);
    t_mag_hi = (if n = 0 then 0.0 else Array.fold_left Float.max mags.(0) mags);
    alpha;
    beta = 1.0 -. alpha;
  }

(* Lower bound on |mag1 - mag2| over mag2 in [lo, hi]. *)
let mag_gap_range x lo hi =
  if x < lo then lo -. x else if x > hi then x -. hi else 0.0

(* Dtw.lower_bound's per-entry bound relaxed over an entry pool given by a
   length range and a magnitude range. *)
let entry_bound_pool p l1 m1 ~len_lo ~len_hi ~mag_lo ~mag_hi =
  (p.alpha *. len_term_range l1 len_lo len_hi)
  +. (p.beta *. mag_gap_range m1 mag_lo mag_hi)

(* Shared shape of the node bound and the member screen.  All three stages
   bound the normalized DTW distance between the target and every member of
   the pool, by the Dtw.lower_bound arguments relaxed over the pooled
   ranges/sketches; the result is capped at 1.0 so a member whose effective
   distance is the out-of-band/empty conventional 1.0 can never be pruned
   while the best score is still 0. *)
let pool_bound p q =
  let lmax = float_of_int (p.t_n + q.n_max - 1) in
  (* stage A: disjoint magnitude ranges force a per-step cost *)
  let gap =
    Float.max 0.0
      (Float.max (p.t_mag_lo -. q.mag_hi) (q.mag_lo -. p.t_mag_hi))
  in
  let lb = ref (p.beta *. gap) in
  (* LB_Kim over the first/last pools *)
  let flb =
    entry_bound_pool p p.t_lens.(0) p.t_mags.(0) ~len_lo:q.f_len_lo
      ~len_hi:q.f_len_hi ~mag_lo:q.f_mag_lo ~mag_hi:q.f_mag_hi
  in
  let llb =
    entry_bound_pool p
      p.t_lens.(p.t_n - 1)
      p.t_mags.(p.t_n - 1)
      ~len_lo:q.l_len_lo ~len_hi:q.l_len_hi ~mag_lo:q.l_mag_lo
      ~mag_hi:q.l_mag_hi
  in
  let kim =
    let summed = (flb +. llb) /. lmax in
    if p.t_n = 1 && q.n_min = 1 then
      (* a single-entry member's first and last entries coincide, so only
         one of the two costs is unavoidable (but it is not divided) *)
      Float.min (Float.max flb llb) summed
    else summed
  in
  if kim > !lb then lb := kim;
  (* row bound: every warping path visits every target row; each visit costs
     at least the sketch-relaxed per-entry bound *)
  let rows = ref 0.0 in
  for i = 0 to p.t_n - 1 do
    rows :=
      !rows
      +. (p.alpha *. dist_int_sketch p.t_lens.(i) q.len_sk)
      +. (p.beta *. dist_float_sketch p.t_mags.(i) q.mag_sk)
  done;
  let row_bound = !rows /. lmax in
  if row_bound > !lb then lb := row_bound;
  Float.min 1.0 !lb

(* ---- best-first search ------------------------------------------------------- *)

(* Minimal binary min-heap over (bound, sequence number, node); the sequence
   number makes pop order deterministic under bound ties. *)
module Heap = struct
  type 'a t = {
    mutable a : (float * int * 'a) array;
    mutable n : int;
  }

  let create () = { a = [||]; n = 0 }

  let lt (ba, sa, _) (bb, sb, _) =
    match Float.compare ba bb with 0 -> sa < sb | c -> c < 0

  let push h x =
    if h.n = Array.length h.a then begin
      let cap = max 16 (2 * h.n) in
      let a = Array.make cap x in
      Array.blit h.a 0 a 0 h.n;
      h.a <- a
    end;
    h.a.(h.n) <- x;
    h.n <- h.n + 1;
    let i = ref (h.n - 1) in
    while
      !i > 0
      &&
      let parent = (!i - 1) / 2 in
      if lt h.a.(!i) h.a.(parent) then begin
        let tmp = h.a.(parent) in
        h.a.(parent) <- h.a.(!i);
        h.a.(!i) <- tmp;
        i := parent;
        true
      end
      else false
    do
      ()
    done

  let pop h =
    if h.n = 0 then None
    else begin
      let top = h.a.(0) in
      h.n <- h.n - 1;
      if h.n > 0 then begin
        h.a.(0) <- h.a.(h.n);
        let i = ref 0 in
        let continue = ref true in
        while !continue do
          let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
          let smallest = ref !i in
          if l < h.n && lt h.a.(l) h.a.(!smallest) then smallest := l;
          if r < h.n && lt h.a.(r) h.a.(!smallest) then smallest := r;
          if !smallest <> !i then begin
            let tmp = h.a.(!smallest) in
            h.a.(!smallest) <- h.a.(!i);
            h.a.(!i) <- tmp;
            i := !smallest
          end
          else continue := false
        done
      end;
      Some top
    end

  let fold f acc h =
    let acc = ref acc in
    for i = 0 to h.n - 1 do
      acc := f !acc h.a.(i)
    done;
    !acc
end

let search ?(alpha = Distance.default_alpha) ?ixc ?trace t st ~dmax ~visit =
  let pruned k =
    match ixc with
    | Some c -> c.pairs_pruned_index <- c.pairs_pruned_index + k
    | None -> ()
  in
  let visited () =
    match ixc with
    | Some c -> c.nodes_visited <- c.nodes_visited + 1
    | None -> ()
  in
  (* provenance taps: pure observation, never read back — [trace] receives
     each traversal decision with the bound that justified it.  The
     untracked empties / empty-target fast paths make no bound decisions,
     so they emit nothing. *)
  let emit ev = match trace with Some f -> f ev | None -> () in
  (* Empty models score 0.0 against everything by convention and their
     conventional distance is 1.0, which no sound bound can exceed — they
     are kept out of the tree and always scored (cheaply). *)
  Array.iter visit t.empties;
  match t.root with
  | None -> ()
  | Some root ->
    if Dtw.summary_size st = 0 then
      (* an empty target scores 0.0 against every member; bounds would all
         be vacuous, so skip straight to scoring *)
      let rec all n =
        match n.kind with
        | Leaf ms -> Array.iter (fun m -> visit m.idx) ms
        | Branch cs -> Array.iter all cs
      in
      all root
    else begin
      let p = probe ~alpha st in
      let heap = Heap.create () in
      let seq = ref 0 in
      let push n =
        Heap.push heap (pool_bound p n.pool, !seq, n);
        incr seq
      in
      push root;
      let stopped = ref false in
      while not !stopped do
        match Heap.pop heap with
        | None -> stopped := true
        | Some (b, _, n) ->
          if b > dmax () then begin
            (* the heap is ordered by bound, so everything still queued is
               provably out too: prune it all and stop *)
            let rest =
              Heap.fold (fun acc (_, _, n') -> acc + n'.count) n.count heap
            in
            pruned rest;
            emit (Provenance.Subtree_pruned { bound = b; members = rest });
            stopped := true
          end
          else begin
            visited ();
            emit (Provenance.Node_visited { bound = b; members = n.count });
            match n.kind with
            | Branch cs -> Array.iter push cs
            | Leaf ms ->
              Array.iter
                (fun m ->
                  let ms_bound = pool_bound p m.screen in
                  if ms_bound > dmax () then begin
                    pruned 1;
                    emit (Provenance.Member_pruned { bound = ms_bound })
                  end
                  else visit m.idx)
                ms
          end
      done
    end

(* ---- serialization ----------------------------------------------------------- *)

(* Only the tree's shape is stored, in preorder: a node is a kind byte (0 leaf,
   1 branch) and a count, followed by that many member positions (leaf) or
   child nodes (branch).  An index with no tree (every model empty) encodes
   as the empty string.  Every pool is re-derived on decode. *)
let to_bytes t =
  let buf = Buffer.create 256 in
  let rec add n =
    match n.kind with
    | Leaf ms ->
      Binfmt.add_u8 buf 0;
      Binfmt.add_uint buf (Array.length ms);
      Array.iter (fun m -> Binfmt.add_uint buf m.idx) ms
    | Branch cs ->
      Binfmt.add_u8 buf 1;
      Binfmt.add_uint buf (Array.length cs);
      Array.iter add cs
  in
  Option.iter add t.root;
  Buffer.contents buf

(* The shape must partition the non-empty models exactly: every position
   once, no empty leaf, no branch with fewer than two children.  Such a tree
   is at most as deep as it has members, which also bounds the recursion. *)
let of_bytes_result ?file summaries s =
  let size = Array.length summaries in
  let empties = empty_positions summaries in
  let members = size - Array.length empties in
  let filled i = Dtw.summary_size summaries.(i) > 0 in
  let seen = Array.make size false in
  let parse r =
    let rec node depth =
      if depth > members then
        Binfmt.fail r "index shape nests deeper than its %d members" members;
      match Binfmt.u8 r with
      | 0 ->
        let n = Binfmt.count r ~what:"index leaf member" in
        if n = 0 then Binfmt.fail r "empty index leaf";
        leaf_node
          (Array.init n (fun _ ->
               let i = Binfmt.uint r in
               if i < 0 || i >= size || not (filled i) then
                 Binfmt.fail r "index member %d is not a non-empty model" i;
               if seen.(i) then Binfmt.fail r "index lists model %d twice" i;
               seen.(i) <- true;
               member_of i summaries.(i)))
      | 1 ->
        let n = Binfmt.count r ~what:"index child" in
        if n < 2 then Binfmt.fail r "index branch with %d children" n;
        branch_node (Array.init n (fun _ -> node (depth + 1)))
      | k -> Binfmt.fail r "bad index node kind %d" k
    in
    let root = if Binfmt.remaining r = 0 then None else Some (node 1) in
    if Binfmt.remaining r <> 0 then
      Binfmt.fail r "trailing garbage after index (%d bytes)" (Binfmt.remaining r);
    Array.iteri
      (fun i seen ->
        if filled i && not seen then Binfmt.fail r "index omits model %d" i)
      seen;
    { size; empties; root }
  in
  Binfmt.run ?file parse s
