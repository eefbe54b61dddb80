type t = int array

let create () = Array.make Event.count 0
let incr t e = t.(Event.index e) <- t.(Event.index e) + 1
let add t e n = t.(Event.index e) <- t.(Event.index e) + n
let get t e = t.(Event.index e)
let total t = Array.fold_left ( + ) 0 t

let hpc_value t =
  let sum = ref 0 in
  List.iter
    (fun e -> if Event.counted_in_hpc_value e then sum := !sum + get t e)
    Event.all;
  !sum

let merge_into ~dst src = Array.iteri (fun i v -> dst.(i) <- dst.(i) + v) src

let to_assoc t =
  List.filter_map
    (fun e -> if get t e > 0 then Some (e, get t e) else None)
    Event.all

let to_vector t = Array.map float_of_int t

let reset t = Array.fill t 0 (Array.length t) 0
let copy t = Array.copy t
