(* Open addressing over parallel arrays, with the load factor at or below
   1/2.  A slot is live when its stamp equals the table's generation, so
   [clear] only bumps the generation; nothing is removed singly, so
   probing needs no tombstones. *)

type t = {
  mutable keys : int array;
  mutable vals : int array;
  mutable stamps : int array;
  mutable gen : int;
  mutable size : int;
  mutable bits : int; (* log2 of the capacity *)
}

let with_bits bits =
  let cap = 1 lsl bits in
  let a () = Array.make cap 0 in
  { keys = a (); vals = a (); stamps = a (); gen = 1; size = 0; bits }

let create n =
  let rec fit b = if 1 lsl b >= 2 * n then b else fit (b + 1) in
  with_bits (fit 3)

let length t = t.size

(* Fibonacci hashing: the top bits of the key times 2^63 / phi. *)
let home t k = (k * 0x4F1BBCDCBFA53E0B) lsr (Sys.int_size - t.bits)

(* The slot holding [k], or the free slot where it would go. *)
let rec slot t k i =
  if t.stamps.(i) <> t.gen || t.keys.(i) = k then i
  else slot t k ((i + 1) land (Array.length t.keys - 1))

let mem t k = t.stamps.(slot t k (home t k)) = t.gen

let find t k ~default =
  let i = slot t k (home t k) in
  if t.stamps.(i) = t.gen then t.vals.(i) else default

let fold f t init =
  let acc = ref init in
  for i = 0 to Array.length t.keys - 1 do
    if t.stamps.(i) = t.gen then acc := f t.keys.(i) t.vals.(i) !acc
  done;
  !acc

let rec replace t k v =
  let i = slot t k (home t k) in
  if t.stamps.(i) = t.gen then t.vals.(i) <- v
  else if 2 * (t.size + 1) > Array.length t.keys then begin
    let bigger = with_bits (t.bits + 1) in
    fold (fun k v () -> replace bigger k v) t ();
    t.keys <- bigger.keys;
    t.vals <- bigger.vals;
    t.stamps <- bigger.stamps;
    t.gen <- bigger.gen;
    t.bits <- bigger.bits;
    replace t k v
  end
  else begin
    t.stamps.(i) <- t.gen;
    t.keys.(i) <- k;
    t.vals.(i) <- v;
    t.size <- t.size + 1
  end

let clear t =
  t.gen <- t.gen + 1;
  t.size <- 0
