(* Layout:
     magic "SCAB1"
     base        : u32
     name        : str16        (length-prefixed, u16)
     label count : u16
     labels      : (u32 index, str16 name)*
     instr count : u32
     instrs      : (opcode u8, operands)*

   Operands are tagged u8s; memory operands carry flag bits for the optional
   base/index registers.  Branch targets reference the label table by u16. *)

let magic = "SCAB1"

(* ---- writer ----------------------------------------------------------------- *)

let w_u8 buf v = Buffer.add_char buf (Char.chr (v land 0xFF))

let w_u16 buf v =
  w_u8 buf v;
  w_u8 buf (v lsr 8)

let w_u32 buf v =
  w_u16 buf v;
  w_u16 buf (v lsr 16)

(* sign + magnitude: OCaml's 63-bit ints make raw two's-complement
   reassembly through shifts hazardous *)
let w_i64 buf v =
  w_u8 buf (if v < 0 then 1 else 0);
  let m = abs v in
  for k = 0 to 7 do
    w_u8 buf ((m lsr (8 * k)) land 0xFF)
  done

let w_str16 buf s =
  if String.length s > 0xFFFF then failwith "Binary: string too long";
  w_u16 buf (String.length s);
  Buffer.add_string buf s

let w_reg buf r = w_u8 buf (Reg.index r)

let w_operand buf = function
  | Operand.Imm v ->
    w_u8 buf 0;
    w_i64 buf v
  | Operand.Reg r ->
    w_u8 buf 1;
    w_reg buf r
  | Operand.Mem m ->
    w_u8 buf 2;
    let flags =
      (if Option.is_some m.Operand.base then 1 else 0)
      lor if Option.is_some m.Operand.index then 2 else 0
    in
    w_u8 buf flags;
    (match m.Operand.base with Some r -> w_reg buf r | None -> ());
    (match m.Operand.index with Some r -> w_reg buf r | None -> ());
    w_i64 buf m.Operand.scale;
    w_i64 buf m.Operand.disp

let cond_code = function
  | Instr.Eq -> 0 | Instr.Ne -> 1 | Instr.Lt -> 2 | Instr.Le -> 3
  | Instr.Gt -> 4 | Instr.Ge -> 5 | Instr.Ult -> 6 | Instr.Uge -> 7

let cond_of_code = function
  | 0 -> Instr.Eq | 1 -> Instr.Ne | 2 -> Instr.Lt | 3 -> Instr.Le
  | 4 -> Instr.Gt | 5 -> Instr.Ge | 6 -> Instr.Ult | 7 -> Instr.Uge
  | c -> failwith (Printf.sprintf "Binary: bad condition code %d" c)

let encode prog =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf magic;
  w_u32 buf (Program.base prog);
  w_str16 buf (Program.name prog);
  let labels = Program.labels prog in
  let label_id =
    let tbl = Hashtbl.create 16 in
    List.iteri (fun i (l, _) -> Hashtbl.replace tbl l i) labels;
    fun l ->
      match Hashtbl.find_opt tbl l with
      | Some i -> i
      | None -> failwith ("Binary: unbound label " ^ l)
  in
  w_u16 buf (List.length labels);
  List.iter
    (fun (l, idx) ->
      w_u32 buf idx;
      w_str16 buf l)
    labels;
  w_u32 buf (Program.length prog);
  let w_target l = w_u16 buf (label_id l) in
  Array.iter
    (fun ins ->
      match ins with
      | Instr.Mov (a, b) -> w_u8 buf 0; w_operand buf a; w_operand buf b
      | Instr.Lea (r, m) -> w_u8 buf 1; w_reg buf r; w_operand buf m
      | Instr.Add (a, b) -> w_u8 buf 2; w_operand buf a; w_operand buf b
      | Instr.Sub (a, b) -> w_u8 buf 3; w_operand buf a; w_operand buf b
      | Instr.Imul (a, b) -> w_u8 buf 4; w_operand buf a; w_operand buf b
      | Instr.Xor (a, b) -> w_u8 buf 5; w_operand buf a; w_operand buf b
      | Instr.And (a, b) -> w_u8 buf 6; w_operand buf a; w_operand buf b
      | Instr.Or (a, b) -> w_u8 buf 7; w_operand buf a; w_operand buf b
      | Instr.Shl (a, k) -> w_u8 buf 8; w_operand buf a; w_u8 buf k
      | Instr.Shr (a, k) -> w_u8 buf 9; w_operand buf a; w_u8 buf k
      | Instr.Inc a -> w_u8 buf 10; w_operand buf a
      | Instr.Dec a -> w_u8 buf 11; w_operand buf a
      | Instr.Cmp (a, b) -> w_u8 buf 12; w_operand buf a; w_operand buf b
      | Instr.Test (a, b) -> w_u8 buf 13; w_operand buf a; w_operand buf b
      | Instr.Jmp l -> w_u8 buf 14; w_target l
      | Instr.Jcc (c, l) -> w_u8 buf 15; w_u8 buf (cond_code c); w_target l
      | Instr.Call l -> w_u8 buf 16; w_target l
      | Instr.Ret -> w_u8 buf 17
      | Instr.Push a -> w_u8 buf 18; w_operand buf a
      | Instr.Pop r -> w_u8 buf 19; w_reg buf r
      | Instr.Clflush a -> w_u8 buf 20; w_operand buf a
      | Instr.Prefetch a -> w_u8 buf 21; w_operand buf a
      | Instr.Mfence -> w_u8 buf 22
      | Instr.Lfence -> w_u8 buf 23
      | Instr.Cpuid -> w_u8 buf 24
      | Instr.Rdtsc -> w_u8 buf 25
      | Instr.Rdtscp -> w_u8 buf 26
      | Instr.Nop -> w_u8 buf 27
      | Instr.Halt -> w_u8 buf 28)
    (Program.code prog);
  Buffer.contents buf

(* ---- reader ------------------------------------------------------------------ *)

type cursor = { data : string; mutable pos : int }

let r_u8 c =
  if c.pos >= String.length c.data then failwith "Binary: truncated";
  let v = Char.code c.data.[c.pos] in
  c.pos <- c.pos + 1;
  v

let r_u16 c =
  let lo = r_u8 c in
  lo lor (r_u8 c lsl 8)

let r_u32 c =
  let lo = r_u16 c in
  lo lor (r_u16 c lsl 16)

let r_i64 c =
  let sign = r_u8 c in
  let v = ref 0 in
  for k = 0 to 7 do
    v := !v lor (r_u8 c lsl (8 * k))
  done;
  if sign = 1 then - !v else !v

let r_str16 c =
  let n = r_u16 c in
  if c.pos + n > String.length c.data then failwith "Binary: truncated string";
  let s = String.sub c.data c.pos n in
  c.pos <- c.pos + n;
  s

let r_reg c =
  let i = r_u8 c in
  if i >= Reg.count then failwith "Binary: bad register";
  Reg.of_index i

let r_operand c =
  match r_u8 c with
  | 0 -> Operand.Imm (r_i64 c)
  | 1 -> Operand.Reg (r_reg c)
  | 2 ->
    let flags = r_u8 c in
    let base = if flags land 1 <> 0 then Some (r_reg c) else None in
    let index = if flags land 2 <> 0 then Some (r_reg c) else None in
    let scale = r_i64 c in
    let disp = r_i64 c in
    Operand.Mem { Operand.base; index; scale; disp }
  | k -> failwith (Printf.sprintf "Binary: bad operand tag %d" k)

let decode data =
  let c = { data; pos = 0 } in
  let m = String.sub data 0 (min (String.length magic) (String.length data)) in
  if m <> magic then failwith "Binary: bad magic";
  c.pos <- String.length magic;
  let base = r_u32 c in
  let name = r_str16 c in
  let n_labels = r_u16 c in
  let labels = Array.init n_labels (fun _ ->
      let idx = r_u32 c in
      let l = r_str16 c in
      (l, idx))
  in
  let label_name i =
    if i >= n_labels then failwith "Binary: bad label reference";
    fst labels.(i)
  in
  let n_instrs = r_u32 c in
  (* every instruction takes at least its opcode byte, so a count beyond
     the bytes that remain is corruption, refused before any allocation *)
  let remaining = String.length data - c.pos in
  if n_instrs > remaining then
    failwith
      (Printf.sprintf "Binary: %d instructions declared, %d bytes remain"
         n_instrs remaining);
  let r_target () = label_name (r_u16 c) in
  let instrs =
    Array.init n_instrs (fun _ ->
        match r_u8 c with
        | 0 -> let a = r_operand c in Instr.Mov (a, r_operand c)
        | 1 -> let r = r_reg c in Instr.Lea (r, r_operand c)
        | 2 -> let a = r_operand c in Instr.Add (a, r_operand c)
        | 3 -> let a = r_operand c in Instr.Sub (a, r_operand c)
        | 4 -> let a = r_operand c in Instr.Imul (a, r_operand c)
        | 5 -> let a = r_operand c in Instr.Xor (a, r_operand c)
        | 6 -> let a = r_operand c in Instr.And (a, r_operand c)
        | 7 -> let a = r_operand c in Instr.Or (a, r_operand c)
        | 8 -> let a = r_operand c in Instr.Shl (a, r_u8 c)
        | 9 -> let a = r_operand c in Instr.Shr (a, r_u8 c)
        | 10 -> Instr.Inc (r_operand c)
        | 11 -> Instr.Dec (r_operand c)
        | 12 -> let a = r_operand c in Instr.Cmp (a, r_operand c)
        | 13 -> let a = r_operand c in Instr.Test (a, r_operand c)
        | 14 -> Instr.Jmp (r_target ())
        | 15 -> let cc = cond_of_code (r_u8 c) in Instr.Jcc (cc, r_target ())
        | 16 -> Instr.Call (r_target ())
        | 17 -> Instr.Ret
        | 18 -> Instr.Push (r_operand c)
        | 19 -> Instr.Pop (r_reg c)
        | 20 -> Instr.Clflush (r_operand c)
        | 21 -> Instr.Prefetch (r_operand c)
        | 22 -> Instr.Mfence
        | 23 -> Instr.Lfence
        | 24 -> Instr.Cpuid
        | 25 -> Instr.Rdtsc
        | 26 -> Instr.Rdtscp
        | 27 -> Instr.Nop
        | 28 -> Instr.Halt
        | op -> failwith (Printf.sprintf "Binary: unknown opcode %d" op))
  in
  (* reassemble: interleave label statements at their indices *)
  let labels_at = Hashtbl.create 16 in
  Array.iter
    (fun (l, idx) ->
      Hashtbl.replace labels_at idx
        (l :: Option.value ~default:[] (Hashtbl.find_opt labels_at idx)))
    labels;
  let stmts = ref [] in
  for i = n_instrs - 1 downto 0 do
    stmts := Program.Ins instrs.(i) :: !stmts;
    match Hashtbl.find_opt labels_at i with
    | Some ls -> stmts := List.map (fun l -> Program.Lbl l) ls @ !stmts
    | None -> ()
  done;
  (* an unbound or dangling label is malformed input like any other *)
  try Program.assemble ~base ~name !stmts
  with Invalid_argument msg -> failwith ("Binary: " ^ msg)

let write_file ~path prog =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (encode prog))

let read_file ~path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> decode (really_input_string ic (in_channel_length ic)))
