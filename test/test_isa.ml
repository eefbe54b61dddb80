(* Tests for the ISA library: registers, operands, instruction metadata,
   normalization, program assembly and transformation. *)

module I = Isa.Instr
module O = Isa.Operand
module R = Isa.Reg
module P = Isa.Program
module B = Isa.Builder

let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)
let check_bool = Alcotest.(check bool)

(* ---- Reg ------------------------------------------------------------------ *)

let test_reg_index_roundtrip () =
  List.iter
    (fun r -> check_bool "roundtrip" true (R.equal r (R.of_index (R.index r))))
    R.all;
  check_int "count" 16 R.count

let test_reg_scratch () =
  check_bool "no rsp" false (List.mem R.RSP R.scratch);
  check_bool "no rbp" false (List.mem R.RBP R.scratch)

(* ---- Operand --------------------------------------------------------------- *)

let test_operand_regs_read () =
  check_int "imm reads none" 0 (List.length (O.regs_read (O.imm 5)));
  check_int "reg reads one" 1 (List.length (O.regs_read (O.reg R.RAX)));
  check_int "mem base+index" 2
    (List.length (O.regs_read (O.mem ~base:R.RBX ~index:R.RCX ())))

let test_operand_strings () =
  check_str "imm" "$7" (O.to_string (O.imm 7));
  check_str "reg" "%rax" (O.to_string (O.reg R.RAX));
  check_str "abs" "[0x10]" (O.to_string (O.abs 16))

(* ---- Instr metadata --------------------------------------------------------- *)

let test_instr_memory_classes () =
  let load = I.Mov (O.reg R.RAX, O.abs 0x100) in
  let store = I.Mov (O.abs 0x100, O.reg R.RAX) in
  check_bool "load reads" true (I.reads_memory load);
  check_bool "load no write" false (I.writes_memory load);
  check_bool "store writes" true (I.writes_memory store);
  check_bool "store no read" false (I.reads_memory store);
  check_bool "clflush neither reads data" false (I.reads_memory (I.Clflush (O.abs 0)));
  check_bool "lea no read" false (I.reads_memory (I.Lea (R.RAX, O.abs 0)));
  check_bool "prefetch reads" true (I.reads_memory (I.Prefetch (O.abs 0)));
  check_bool "rmw add reads" true (I.reads_memory (I.Add (O.abs 0, O.imm 1)));
  check_bool "rmw add writes" true (I.writes_memory (I.Add (O.abs 0, O.imm 1)))

let test_instr_branch_classes () =
  check_bool "jmp" true (I.is_branch (I.Jmp "l"));
  check_bool "jcc" true (I.is_branch (I.Jcc (I.Eq, "l")));
  check_bool "call" true (I.is_branch (I.Call "l"));
  check_bool "ret" true (I.is_branch I.Ret);
  check_bool "halt" true (I.is_branch I.Halt);
  check_bool "mov not" false (I.is_branch (I.Mov (O.reg R.RAX, O.imm 0)));
  check_bool "jcc cond" true (I.is_cond_branch (I.Jcc (I.Ne, "l")));
  check_bool "jmp not cond" false (I.is_cond_branch (I.Jmp "l"));
  Alcotest.(check (option string)) "target" (Some "l") (I.branch_target (I.Jmp "l"))

let test_instr_flags () =
  check_bool "cmp writes" true (I.writes_flags (I.Cmp (O.reg R.RAX, O.imm 0)));
  check_bool "mov no" false (I.writes_flags (I.Mov (O.reg R.RAX, O.imm 0)));
  check_bool "jcc reads" true (I.reads_flags (I.Jcc (I.Lt, "l")));
  check_bool "add no read" false (I.reads_flags (I.Add (O.reg R.RAX, O.imm 1)))

let test_instr_reg_sets () =
  let ins = I.Add (O.reg R.RAX, O.mem ~base:R.RBX ~index:R.RCX ()) in
  let read = I.regs_read ins in
  check_bool "reads rax" true (List.mem R.RAX read);
  check_bool "reads rbx" true (List.mem R.RBX read);
  check_bool "reads rcx" true (List.mem R.RCX read);
  Alcotest.(check (list string)) "writes rax" [ "rax" ]
    (List.map R.to_string (I.regs_written ins));
  check_bool "push writes rsp" true (List.mem R.RSP (I.regs_written (I.Push (O.reg R.RAX))));
  check_bool "rdtsc writes rax" true (List.mem R.RAX (I.regs_written I.Rdtsc))

let test_instr_map_target () =
  let f l = "x_" ^ l in
  Alcotest.(check (option string)) "jmp mapped" (Some "x_l")
    (I.branch_target (I.map_target f (I.Jmp "l")));
  check_bool "mov unchanged" true
    (I.equal (I.Mov (O.reg R.RAX, O.imm 1)) (I.map_target f (I.Mov (O.reg R.RAX, O.imm 1))))

(* ---- Normalize -------------------------------------------------------------- *)

let test_normalize () =
  check_str "mov mem,reg" "mov mem,reg"
    (Isa.Normalize.instr (I.Mov (O.mem ~base:R.RBP ~disp:(-24) (), O.reg R.RAX)));
  check_str "imm" "add reg,imm"
    (Isa.Normalize.instr (I.Add (O.reg R.RBX, O.imm 99)));
  check_str "branch drops target" "jne" (Isa.Normalize.instr (I.Jcc (I.Ne, "foo")));
  check_str "clflush" "clflush mem" (Isa.Normalize.instr (I.Clflush (O.abs 0)));
  check_str "nop" "nop" (Isa.Normalize.instr I.Nop)

let test_normalize_erases_registers () =
  (* Register renaming must not change the normalized form. *)
  let a = I.Mov (O.reg R.R8, O.mem ~base:R.R10 ~index:R.R11 ~scale:8 ()) in
  let b = I.Mov (O.reg R.RCX, O.mem ~base:R.RDX ~index:R.RSI ~scale:4 ()) in
  check_str "same" (Isa.Normalize.instr a) (Isa.Normalize.instr b)

(* ---- Program ---------------------------------------------------------------- *)

let simple_prog () =
  P.assemble ~name:"t"
    [
      P.Ins (I.Mov (O.reg R.RAX, O.imm 0));
      P.Lbl "loop";
      P.Ins (I.Inc (O.reg R.RAX));
      P.Ins (I.Cmp (O.reg R.RAX, O.imm 3));
      P.Ins (I.Jcc (I.Ne, "loop"));
      P.Ins I.Halt;
    ]

let test_program_assemble () =
  let p = simple_prog () in
  check_int "length" 5 (P.length p);
  check_int "label" 1 (P.label_index p "loop");
  check_int "addr" (0x400000 + 8) (P.addr_of_index p 2);
  Alcotest.(check (option int)) "index of addr" (Some 2)
    (P.index_of_addr p (0x400000 + 8));
  Alcotest.(check (option int)) "misaligned" None (P.index_of_addr p (0x400000 + 6));
  Alcotest.(check (option int)) "out of range" None (P.index_of_addr p 0x500000)

let test_program_assemble_errors () =
  check_bool "unbound label" true
    (try ignore (P.assemble ~name:"t" [ P.Ins (I.Jmp "nowhere") ]); false
     with Invalid_argument _ -> true);
  check_bool "duplicate label" true
    (try
       ignore
         (P.assemble ~name:"t"
            [ P.Lbl "a"; P.Ins I.Nop; P.Lbl "a"; P.Ins I.Halt ]);
       false
     with Invalid_argument _ -> true);
  check_bool "empty" true
    (try ignore (P.assemble ~name:"t" []); false
     with Invalid_argument _ -> true)

let test_program_tags () =
  let p =
    P.assemble ~name:"t" ~tags:[ (1, [ "attack" ]); (2, [ "x"; "y" ]) ]
      [ P.Ins I.Nop; P.Ins I.Nop; P.Ins I.Nop ]
  in
  check_bool "tag present" true (P.has_tag p 1 "attack");
  check_bool "tag absent" false (P.has_tag p 0 "attack");
  Alcotest.(check (list int)) "tagged indices" [ 1 ] (P.tagged_indices p "attack")

let test_deconstruct_roundtrip () =
  let p = simple_prog () in
  let items = P.deconstruct p in
  let p' = P.reconstruct ~name:"t2" items in
  check_int "same length" (P.length p) (P.length p');
  for i = 0 to P.length p - 1 do
    check_bool "same instr" true (I.equal (P.instr p i) (P.instr p' i))
  done;
  check_int "same label" (P.label_index p "loop") (P.label_index p' "loop")

let test_rename_labels () =
  let items = P.deconstruct (simple_prog ()) in
  let renamed = P.rename_labels (fun l -> "pfx_" ^ l) items in
  let p = P.reconstruct ~name:"renamed" renamed in
  check_int "new label" 1 (P.label_index p "pfx_loop");
  check_bool "old gone" true
    (try ignore (P.label_index p "loop"); false with Not_found -> true)

let test_splice_chains_halts () =
  let part1 =
    P.assemble ~name:"a" [ P.Ins (I.Mov (O.reg R.RAX, O.imm 1)); P.Ins I.Halt ]
  in
  let part2 =
    P.assemble ~name:"b" [ P.Ins (I.Mov (O.reg R.RBX, O.imm 2)); P.Ins I.Halt ]
  in
  let s = P.splice ~name:"s" [ part1; part2 ] in
  check_int "total" 4 (P.length s);
  (* part1's halt became a jump to part2's entry *)
  check_bool "halt replaced" true
    (match P.instr s 1 with I.Jmp _ -> true | _ -> false);
  check_bool "final halt kept" true (P.instr s 3 = I.Halt)

(* ---- Builder ----------------------------------------------------------------- *)

let test_builder_tags_and_labels () =
  let b = B.create () in
  B.emit b I.Nop;
  B.mark_attack b (fun () ->
      B.emit b (I.Clflush (O.abs 0));
      B.with_tag b "inner" (fun () -> B.emit b I.Nop));
  B.emit b I.Halt;
  let p = B.to_program ~name:"t" b in
  check_bool "instr 1 attack" true (P.has_tag p 1 P.attack_tag);
  check_bool "instr 2 attack+inner" true
    (P.has_tag p 2 P.attack_tag && P.has_tag p 2 "inner");
  check_bool "instr 0 untagged" false (P.has_tag p 0 P.attack_tag)

let test_builder_fresh_labels () =
  let b = B.create () in
  let l1 = B.fresh_label b "x" in
  let l2 = B.fresh_label b "x" in
  check_bool "unique" true (l1 <> l2)

let prop_roundtrip_random_linear_programs =
  (* Linear instruction lists (no branches) always survive a
     deconstruct/reconstruct roundtrip. *)
  let gen_instr =
    QCheck.Gen.oneofl
      [
        I.Nop;
        I.Mov (O.reg R.RAX, O.imm 1);
        I.Add (O.reg R.RBX, O.imm 2);
        I.Clflush (O.abs 64);
        I.Rdtsc;
      ]
  in
  QCheck.Test.make ~name:"deconstruct/reconstruct roundtrip" ~count:100
    (QCheck.make QCheck.Gen.(list_size (int_range 1 20) gen_instr))
    (fun instrs ->
      let p = P.assemble ~name:"r" (List.map (fun i -> P.Ins i) instrs) in
      let p' = P.reconstruct ~name:"r" (P.deconstruct p) in
      List.length instrs = P.length p'
      && List.for_all2 I.equal instrs (Array.to_list (P.code p')))

(* ---- Binary codec ---------------------------------------------------------- *)

let programs_equal a b =
  P.length a = P.length b
  && P.base a = P.base b
  && P.labels a = P.labels b
  && Array.for_all2 I.equal (P.code a) (P.code b)

let test_binary_roundtrip_pocs () =
  List.iter
    (fun (spec : Workloads.Attacks.spec) ->
      let prog = spec.Workloads.Attacks.program in
      check_bool
        (spec.Workloads.Attacks.name ^ " roundtrips")
        true
        (programs_equal prog (Isa.Binary.decode (Isa.Binary.encode prog))))
    (Workloads.Attacks.base_pocs ())

let test_binary_negative_values () =
  let p =
    P.assemble ~name:"neg"
      [
        P.Ins (I.Mov (O.reg R.RAX, O.imm (-123456789)));
        P.Ins (I.Mov (O.reg R.RBX, O.mem ~base:R.RBP ~disp:(-8) ()));
        P.Ins I.Halt;
      ]
  in
  check_bool "negative imm and disp survive" true
    (programs_equal p (Isa.Binary.decode (Isa.Binary.encode p)))

(* Header, no name, no labels, 0xFFFFFFFF instructions and one nop: 18
   bytes that must not ask for a 4-billion-slot array. *)
let huge_count_binary =
  let b = Buffer.create 18 in
  Buffer.add_string b Isa.Binary.magic;
  Buffer.add_int32_le b 0x400000l;
  Buffer.add_uint16_le b 0;
  Buffer.add_uint16_le b 0;
  Buffer.add_int32_le b (-1l);
  Buffer.add_uint8 b 27;
  Buffer.contents b

(* FR-IAIK with its first label moved past the end of the code, so a branch
   names a label the program never binds. *)
let past_end_label_binary () =
  let prog = (Workloads.Attacks.flush_reload ~style:Workloads.Attacks.Iaik ()).Workloads.Attacks.program in
  let b = Bytes.of_string (Isa.Binary.encode prog) in
  Bytes.set_int32_le b (String.length Isa.Binary.magic + 4 + 2 + String.length (P.name prog) + 2) 0xFFFFFFl;
  Bytes.to_string b

let test_binary_rejects_garbage () =
  let bad s = try ignore (Isa.Binary.decode s); false with Failure _ -> true in
  check_bool "bad magic" true (bad "NOTSCAB");
  check_bool "empty" true (bad "");
  let good = Isa.Binary.encode (simple_prog ()) in
  check_bool "truncated" true
    (bad (String.sub good 0 (String.length good - 3)));
  check_int "huge count file" 18 (String.length huge_count_binary);
  check_bool "count beyond the bytes" true (bad huge_count_binary);
  check_bool "label past the code" true (bad (past_end_label_binary ()))

(* Any 1-3 byte mutation of an encoded PoC either decodes or raises
   [Failure]: no other exception, no allocation the input cannot pay for. *)
let prop_binary_mutants_fail_cleanly =
  let encoded =
    Array.of_list
      (List.map
         (fun (spec : Workloads.Attacks.spec) -> Isa.Binary.encode spec.Workloads.Attacks.program)
         (Workloads.Attacks.base_pocs ()))
  in
  let gen =
    QCheck.Gen.(
      int_bound (Array.length encoded - 1) >>= fun which ->
      list_size (int_range 1 3)
        (pair (int_bound (String.length encoded.(which) - 1)) (int_bound 255))
      >|= fun edits -> (which, edits))
  in
  let mutant (which, edits) =
    let b = Bytes.of_string encoded.(which) in
    List.iter (fun (i, v) -> Bytes.set b i (Char.chr v)) edits;
    Bytes.to_string b
  in
  QCheck.Test.make ~name:"mutants decode or raise Failure" ~count:5000
    (QCheck.make ~print:(fun m -> String.escaped (mutant m)) gen)
    (fun m ->
      match Isa.Binary.decode (mutant m) with
      | _ -> true
      | exception Failure _ -> true)

let prop_binary_roundtrip =
  let gen_instr =
    QCheck.Gen.oneofl
      [
        I.Nop;
        I.Mov (O.reg R.RAX, O.imm (-7));
        I.Add (O.reg R.RBX, O.mem ~base:R.RBP ~index:R.RCX ~scale:8 ~disp:(-64) ());
        I.Clflush (O.abs 4096);
        I.Push (O.imm 3);
        I.Pop R.R9;
        I.Shl (O.reg R.RDX, 5);
        I.Rdtscp;
        I.Cmp (O.reg R.RSI, O.imm 100);
      ]
  in
  QCheck.Test.make ~name:"binary roundtrip of random programs" ~count:100
    (QCheck.make QCheck.Gen.(list_size (int_range 1 30) gen_instr))
    (fun instrs ->
      let p = P.assemble ~name:"r" (List.map (fun i -> P.Ins i) instrs) in
      programs_equal p (Isa.Binary.decode (Isa.Binary.encode p)))

let () =
  Alcotest.run "isa"
    [
      ( "reg",
        [
          Alcotest.test_case "index roundtrip" `Quick test_reg_index_roundtrip;
          Alcotest.test_case "scratch excludes stack regs" `Quick test_reg_scratch;
        ] );
      ( "operand",
        [
          Alcotest.test_case "regs_read" `Quick test_operand_regs_read;
          Alcotest.test_case "to_string" `Quick test_operand_strings;
        ] );
      ( "instr",
        [
          Alcotest.test_case "memory classes" `Quick test_instr_memory_classes;
          Alcotest.test_case "branch classes" `Quick test_instr_branch_classes;
          Alcotest.test_case "flags" `Quick test_instr_flags;
          Alcotest.test_case "reg sets" `Quick test_instr_reg_sets;
          Alcotest.test_case "map_target" `Quick test_instr_map_target;
        ] );
      ( "normalize",
        [
          Alcotest.test_case "rules" `Quick test_normalize;
          Alcotest.test_case "erases registers" `Quick test_normalize_erases_registers;
        ] );
      ( "program",
        [
          Alcotest.test_case "assemble" `Quick test_program_assemble;
          Alcotest.test_case "assemble errors" `Quick test_program_assemble_errors;
          Alcotest.test_case "tags" `Quick test_program_tags;
          Alcotest.test_case "deconstruct roundtrip" `Quick test_deconstruct_roundtrip;
          Alcotest.test_case "rename labels" `Quick test_rename_labels;
          Alcotest.test_case "splice chains halts" `Quick test_splice_chains_halts;
          QCheck_alcotest.to_alcotest prop_roundtrip_random_linear_programs;
        ] );
      ( "binary",
        [
          Alcotest.test_case "PoCs roundtrip" `Quick test_binary_roundtrip_pocs;
          Alcotest.test_case "negative values" `Quick test_binary_negative_values;
          Alcotest.test_case "rejects garbage" `Quick test_binary_rejects_garbage;
          QCheck_alcotest.to_alcotest prop_binary_roundtrip;
          QCheck_alcotest.to_alcotest prop_binary_mutants_fail_cleanly;
        ] );
      ( "builder",
        [
          Alcotest.test_case "tags and labels" `Quick test_builder_tags_and_labels;
          Alcotest.test_case "fresh labels" `Quick test_builder_fresh_labels;
        ] );
    ]
