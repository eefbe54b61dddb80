type t =
  | L1d_load_miss
  | L1d_load_hit
  | L1d_store_hit
  | L1i_load_miss
  | Llc_load_miss
  | Llc_load_hit
  | Llc_store_miss
  | Llc_store_hit
  | Branch_miss
  | Branch_load_miss
  | Cache_miss
  | Timestamp

let all =
  [ L1d_load_miss; L1d_load_hit; L1d_store_hit; L1i_load_miss;
    Llc_load_miss; Llc_load_hit; Llc_store_miss; Llc_store_hit;
    Branch_miss; Branch_load_miss; Cache_miss; Timestamp ]

let count = List.length all

let index = function
  | L1d_load_miss -> 0
  | L1d_load_hit -> 1
  | L1d_store_hit -> 2
  | L1i_load_miss -> 3
  | Llc_load_miss -> 4
  | Llc_load_hit -> 5
  | Llc_store_miss -> 6
  | Llc_store_hit -> 7
  | Branch_miss -> 8
  | Branch_load_miss -> 9
  | Cache_miss -> 10
  | Timestamp -> 11

let of_index i =
  match List.nth_opt all i with
  | Some e -> e
  | None -> invalid_arg "Hpc.Event.of_index"

let counted_in_hpc_value = function Timestamp -> false | _ -> true

let to_string = function
  | L1d_load_miss -> "L1D Load Miss"
  | L1d_load_hit -> "L1D Load Hit"
  | L1d_store_hit -> "L1D Store Hit"
  | L1i_load_miss -> "L1I Load Miss"
  | Llc_load_miss -> "LLC Load Miss"
  | Llc_load_hit -> "LLC Load Hit"
  | Llc_store_miss -> "LLC Store Miss"
  | Llc_store_hit -> "LLC Store Hit"
  | Branch_miss -> "Branch Miss"
  | Branch_load_miss -> "Branch Load Miss"
  | Cache_miss -> "Cache Miss"
  | Timestamp -> "Timestamp"

let equal a b = index a = index b
