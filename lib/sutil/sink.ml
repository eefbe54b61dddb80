type 'a t = {
  items : 'a list Atomic.t;
  length : int Atomic.t;
  dropped : int Atomic.t;
  mutable capacity : int;  (* max_int = unbounded: no length accounting *)
}

let check_capacity n =
  if n < 1 then invalid_arg "Sink: capacity must be >= 1"

let create ?(capacity = max_int) () =
  check_capacity capacity;
  {
    items = Atomic.make [];
    length = Atomic.make 0;
    dropped = Atomic.make 0;
    capacity;
  }

let set_capacity t n =
  check_capacity n;
  t.capacity <- n

let capacity t = t.capacity

let rec cons t x =
  let cur = Atomic.get t.items in
  if not (Atomic.compare_and_set t.items cur (x :: cur)) then cons t x

(* bound first, push second: the length counter may transiently overshoot
   under contention, which errs on the side of dropping — never of
   unbounded growth or blocking *)
let push t x =
  if t.capacity = max_int then cons t x
  else if Atomic.fetch_and_add t.length 1 < t.capacity then cons t x
  else begin
    ignore (Atomic.fetch_and_add t.length (-1));
    ignore (Atomic.fetch_and_add t.dropped 1)
  end

let items t = Atomic.get t.items
let dropped t = Atomic.get t.dropped

let clear t =
  Atomic.set t.items [];
  Atomic.set t.length 0;
  Atomic.set t.dropped 0
