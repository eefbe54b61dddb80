type 'a t = {
  slots : 'a option array;
  cap : int;
  mutable head : int;  (* index of the next element to pop *)
  mutable len : int;
}

let create ~capacity =
  if capacity < 1 then
    invalid_arg (Printf.sprintf "Bqueue.create: capacity %d < 1" capacity);
  { slots = Array.make capacity None; cap = capacity; head = 0; len = 0 }

let capacity q = q.cap
let length q = q.len
let is_empty q = q.len = 0

let push q v =
  if q.len = q.cap then false
  else begin
    q.slots.((q.head + q.len) mod q.cap) <- Some v;
    q.len <- q.len + 1;
    true
  end

let pop q =
  if q.len = 0 then None
  else begin
    let v = q.slots.(q.head) in
    q.slots.(q.head) <- None;
    q.head <- (q.head + 1) mod q.cap;
    q.len <- q.len - 1;
    v
  end

let peek q = if q.len = 0 then None else q.slots.(q.head)

let rec drain q f = match pop q with None -> () | Some v -> f v; drain q f

let clear q =
  Array.fill q.slots 0 q.cap None;
  q.head <- 0;
  q.len <- 0

let to_list q =
  List.init q.len (fun i -> Option.get q.slots.((q.head + i) mod q.cap))
