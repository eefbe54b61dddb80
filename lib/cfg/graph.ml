module I = Isa.Instr
module P = Isa.Program

type t = {
  program : P.t;
  blocks : Basic_block.t array;
  succs : int list array;
  preds : int list array;
  owner_of_index : int array; (* instruction index -> block id *)
}

let leaders prog =
  let n = P.length prog in
  let is_leader = Array.make n false in
  is_leader.(0) <- true;
  Array.iteri
    (fun i ins ->
      (match I.branch_target ins with
      | Some l -> is_leader.(P.label_index prog l) <- true
      | None -> ());
      if I.is_branch ins && i + 1 < n then is_leader.(i + 1) <- true)
    (P.code prog);
  is_leader

let of_program prog =
  let n = P.length prog in
  let is_leader = leaders prog in
  (* Carve blocks: a block runs from a leader to the next leader - 1 or to a
     branch instruction, whichever comes first. *)
  let rev_blocks = ref [] in
  let owner_of_index = Array.make n (-1) in
  let id = ref 0 in
  let i = ref 0 in
  while !i < n do
    let first = !i in
    let j = ref !i in
    let continue = ref true in
    while !continue do
      owner_of_index.(!j) <- !id;
      if
        I.is_branch (P.instr prog !j)
        || !j + 1 >= n
        || is_leader.(!j + 1)
      then continue := false
      else incr j
    done;
    rev_blocks := { Basic_block.id = !id; first; last = !j } :: !rev_blocks;
    incr id;
    i := !j + 1
  done;
  let blocks = Array.of_list (List.rev !rev_blocks) in
  let nb = Array.length blocks in
  let succ_sets = Array.make nb [] in
  let add_edge a b =
    if not (List.mem b succ_sets.(a)) then succ_sets.(a) <- b :: succ_sets.(a)
  in
  Array.iter
    (fun (b : Basic_block.t) ->
      let last = P.instr prog b.Basic_block.last in
      let fallthrough () =
        if b.Basic_block.last + 1 < n then
          add_edge b.Basic_block.id owner_of_index.(b.Basic_block.last + 1)
      in
      match last with
      | I.Jmp l -> add_edge b.Basic_block.id owner_of_index.(P.label_index prog l)
      | I.Jcc (_, l) ->
        add_edge b.Basic_block.id owner_of_index.(P.label_index prog l);
        fallthrough ()
      | I.Call l ->
        add_edge b.Basic_block.id owner_of_index.(P.label_index prog l);
        (* The static return edge: control comes back to the fall-through. *)
        fallthrough ()
      | I.Ret | I.Halt -> ()
      | _ -> fallthrough ())
    blocks;
  let succs = Array.map (fun l -> List.sort_uniq Int.compare l) succ_sets in
  let preds = Array.make nb [] in
  Array.iteri
    (fun a ss -> List.iter (fun b -> preds.(b) <- a :: preds.(b)) ss)
    succs;
  let preds = Array.map (fun l -> List.sort_uniq Int.compare l) preds in
  { program = prog; blocks; succs; preds; owner_of_index }

let program t = t.program
let n_blocks t = Array.length t.blocks

let block t i =
  if i < 0 || i >= Array.length t.blocks then invalid_arg "Cfg.Graph.block";
  t.blocks.(i)

let blocks t = Array.to_list t.blocks
let succs t i = t.succs.(i)
let preds t i = t.preds.(i)

let block_of_index t i =
  if i < 0 || i >= Array.length t.owner_of_index then
    invalid_arg "Cfg.Graph.block_of_index";
  t.blocks.(t.owner_of_index.(i))

let block_of_addr t addr =
  match P.index_of_addr t.program addr with
  | Some i -> Some (block_of_index t i)
  | None -> None

let entry _ = 0

let edges t =
  let acc = ref [] in
  for a = Array.length t.succs - 1 downto 0 do
    List.iter (fun b -> acc := (a, b) :: !acc) (List.rev t.succs.(a))
  done;
  List.sort compare !acc

let n_edges t = Array.fold_left (fun n l -> n + List.length l) 0 t.succs

let pp fmt t =
  Format.fprintf fmt "@[<v>CFG of %s: %d blocks, %d edges@," (P.name t.program)
    (n_blocks t) (n_edges t);
  Array.iter
    (fun (b : Basic_block.t) ->
      Format.fprintf fmt "  %a -> %s@," Basic_block.pp b
        (String.concat "," (List.map string_of_int t.succs.(b.Basic_block.id))))
    t.blocks;
  Format.fprintf fmt "@]"
