(* Tests for the CPU simulator: architectural state, branch prediction,
   instruction semantics, timing, speculation and victim interleaving. *)

module I = Isa.Instr
module O = Isa.Operand
module R = Isa.Reg
module P = Isa.Program
module M = Cpu.Machine
module E = Cpu.Exec

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let prog instrs = P.assemble ~name:"t" (List.map (fun i -> P.Ins i) instrs)
let prog_l stmts = P.assemble ~name:"t" stmts
let run ?init ?settings ?victim ?hierarchy p = E.run ?init ?settings ?victim ?hierarchy p
let rax r = M.get_reg r.E.machine R.RAX
let reg r x = M.get_reg r.E.machine x

(* ---- Machine ------------------------------------------------------------- *)

let test_machine_regs_mem () =
  let m = M.create () in
  check_int "zero reg" 0 (M.get_reg m R.RAX);
  M.set_reg m R.RAX 42;
  check_int "set/get" 42 (M.get_reg m R.RAX);
  check_int "uninit mem" 0 (M.load m 0x1234);
  M.store m 0x1234 7;
  check_int "store/load" 7 (M.load m 0x1234);
  M.init_region m ~base:0x100 [| 1; 2; 3 |];
  check_int "region stride 8" 2 (M.load m 0x108)

let test_machine_snapshot_isolated () =
  let m = M.create () in
  M.store m 1 10;
  M.store m 2 20;
  M.set_reg m R.RBX 5;
  let s = M.shadow m in
  check_int "shadow starts from the parent's registers" 5 (M.get_reg s R.RBX);
  M.store s 1 99;
  M.set_reg s R.RBX 77;
  check_int "orig mem intact" 10 (M.load m 1);
  check_int "orig reg intact" 5 (M.get_reg m R.RBX);
  check_int "shadow reads its own store" 99 (M.load s 1);
  check_int "shadow reads through to the parent" 20 (M.load s 2);
  M.set_reg m R.RBX 6;
  M.fork s;
  check_int "fork drops the shadow's stores" 10 (M.load s 1);
  check_int "fork resyncs registers" 6 (M.get_reg s R.RBX);
  check_bool "no nested shadow" true
    (try ignore (M.shadow s); false with Invalid_argument _ -> true)

let test_machine_conditions () =
  let m = M.create () in
  M.set_flags m ~zf:true ~sf:false ~cf:false;
  check_bool "eq" true (M.cond_holds m I.Eq);
  check_bool "ne" false (M.cond_holds m I.Ne);
  check_bool "le" true (M.cond_holds m I.Le);
  M.set_flags m ~zf:false ~sf:true ~cf:true;
  check_bool "lt" true (M.cond_holds m I.Lt);
  check_bool "ge" false (M.cond_holds m I.Ge);
  check_bool "ult" true (M.cond_holds m I.Ult);
  check_bool "uge" false (M.cond_holds m I.Uge)

(* ---- Predictor ------------------------------------------------------------- *)

let test_predictor_training () =
  let p = Cpu.Predictor.create () in
  check_bool "initially not taken" false (Cpu.Predictor.predict_taken p ~pc:0x40);
  Cpu.Predictor.update p ~pc:0x40 ~taken:true;
  Cpu.Predictor.update p ~pc:0x40 ~taken:true;
  check_bool "trained taken" true (Cpu.Predictor.predict_taken p ~pc:0x40);
  Cpu.Predictor.update p ~pc:0x40 ~taken:false;
  check_bool "2-bit hysteresis" true (Cpu.Predictor.predict_taken p ~pc:0x40);
  Cpu.Predictor.update p ~pc:0x40 ~taken:false;
  check_bool "flipped" false (Cpu.Predictor.predict_taken p ~pc:0x40)

(* ---- Basic semantics --------------------------------------------------------- *)

let test_exec_mov_alu () =
  let r =
    run
      (prog
         [
           I.Mov (O.reg R.RAX, O.imm 10);
           I.Add (O.reg R.RAX, O.imm 5);
           I.Mov (O.reg R.RBX, O.reg R.RAX);
           I.Sub (O.reg R.RBX, O.imm 3);
           I.Imul (O.reg R.RBX, O.imm 2);
           I.Xor (O.reg R.RCX, O.reg R.RCX);
           I.Or (O.reg R.RCX, O.imm 9);
           I.And (O.reg R.RCX, O.imm 8);
           I.Halt;
         ])
  in
  check_int "rax" 15 (rax r);
  check_int "rbx" 24 (reg r R.RBX);
  check_int "rcx" 8 (reg r R.RCX);
  check_bool "halted" true r.E.halted_normally

let test_exec_shifts_incdec () =
  let r =
    run
      (prog
         [
           I.Mov (O.reg R.RAX, O.imm 3);
           I.Shl (O.reg R.RAX, 4);
           I.Shr (O.reg R.RAX, 1);
           I.Inc (O.reg R.RAX);
           I.Dec (O.reg R.RAX);
           I.Dec (O.reg R.RAX);
           I.Halt;
         ])
  in
  check_int "shifts" 23 (rax r)

let test_exec_memory_ops () =
  let r =
    run
      (prog
         [
           I.Mov (O.reg R.RBX, O.imm 0x1000);
           I.Mov (O.mem ~base:R.RBX (), O.imm 11);
           I.Mov (O.mem ~base:R.RBX ~disp:8 (), O.imm 22);
           I.Mov (O.reg R.RAX, O.mem ~base:R.RBX ());
           I.Add (O.reg R.RAX, O.mem ~base:R.RBX ~disp:8 ());
           I.Add (O.mem ~base:R.RBX (), O.imm 100);
           I.Halt;
         ])
  in
  check_int "loads" 33 (rax r);
  check_int "rmw" 111 (M.load r.E.machine 0x1000)

let test_exec_lea () =
  let r =
    run
      (prog
         [
           I.Mov (O.reg R.RBX, O.imm 0x100);
           I.Mov (O.reg R.RCX, O.imm 4);
           I.Lea (R.RAX, O.mem ~base:R.RBX ~index:R.RCX ~scale:16 ~disp:2 ());
           I.Halt;
         ])
  in
  check_int "effective addr" (0x100 + 64 + 2) (rax r);
  check_int "no data accesses" 0 (Hpc.Collector.access_count r.E.collector)

let test_exec_loop () =
  let r =
    run
      (prog_l
         [
           P.Ins (I.Mov (O.reg R.RAX, O.imm 0));
           P.Ins (I.Mov (O.reg R.RCX, O.imm 10));
           P.Lbl "loop";
           P.Ins (I.Add (O.reg R.RAX, O.reg R.RCX));
           P.Ins (I.Dec (O.reg R.RCX));
           P.Ins (I.Cmp (O.reg R.RCX, O.imm 0));
           P.Ins (I.Jcc (I.Ne, "loop"));
           P.Ins I.Halt;
         ])
  in
  check_int "sum 10..1" 55 (rax r)

let test_exec_call_ret () =
  let r =
    run
      (prog_l
         [
           P.Ins (I.Mov (O.reg R.RAX, O.imm 1));
           P.Ins (I.Call "f");
           P.Ins (I.Add (O.reg R.RAX, O.imm 100));
           P.Ins I.Halt;
           P.Lbl "f";
           P.Ins (I.Add (O.reg R.RAX, O.imm 10));
           P.Ins I.Ret;
         ])
  in
  check_int "call/ret flow" 111 (rax r)

let test_exec_push_pop () =
  let r =
    run
      (prog
         [
           I.Mov (O.reg R.RBX, O.imm 5);
           I.Push (O.reg R.RBX);
           I.Push (O.imm 7);
           I.Pop R.RAX;
           I.Pop R.RCX;
           I.Halt;
         ])
  in
  check_int "lifo 1" 7 (rax r);
  check_int "lifo 2" 5 (reg r R.RCX)

let test_exec_fall_off_end_halts () =
  let r = run (prog [ I.Nop; I.Nop ]) in
  check_bool "halts" true r.E.halted_normally;
  check_int "2 instrs" 2 r.E.instructions

let test_exec_fuel_bound () =
  let r =
    run
      ~settings:{ E.default_settings with E.fuel = 100 }
      (prog_l [ P.Lbl "spin"; P.Ins (I.Jmp "spin") ])
  in
  check_bool "not halted" false r.E.halted_normally;
  check_int "fuel consumed" 100 r.E.instructions

let test_exec_prefetch_and_rmw () =
  let hierarchy = Cache.Hierarchy.create () in
  let r =
    run ~hierarchy
      (prog
         [
           I.Prefetch (O.abs 0x15000);          (* cache fill, no reg write *)
           I.Mov (O.abs 0x16000, O.imm 7);
           I.Sub (O.abs 0x16000, O.imm 2);      (* rmw sub *)
           I.Imul (O.abs 0x16000, O.imm 3);     (* rmw mul *)
           I.Inc (O.abs 0x16000);
           I.Cpuid;
           I.Halt;
         ])
  in
  check_int "rmw chain" 16 (M.load r.E.machine 0x16000);
  (* prefetch filled the line: a demand load hits *)
  let probe = Cache.Hierarchy.load hierarchy ~owner:Cache.Owner.Attacker 0x15000 in
  check_bool "prefetched line cached" true (probe = Cache.Hierarchy.L1)

let test_exec_push_mem_operand () =
  let r =
    run
      (prog
         [
           I.Mov (O.abs 0x17000, O.imm 99);
           I.Push (O.abs 0x17000);
           I.Pop R.RAX;
           I.Halt;
         ])
  in
  check_int "pushed memory value" 99 (rax r)

let test_exec_ret_to_garbage_halts () =
  (* ret with a clobbered return slot terminates instead of wandering *)
  let r =
    run
      (prog_l
         [
           P.Ins (I.Call "f");
           P.Ins I.Halt;
           P.Lbl "f";
           P.Ins (I.Mov (O.mem ~base:R.RSP (), O.imm 99999));
           P.Ins I.Ret;
         ])
  in
  check_bool "halted" true r.E.halted_normally

(* ---- Timing ------------------------------------------------------------------ *)

let test_rdtsc_measures_memory_latency () =
  let timed_load addr =
    [
      I.Mov (O.reg R.R10, O.mem ~disp:addr ()); (* warm the line *)
      I.Lfence;
      I.Rdtsc;
      I.Mov (O.reg R.R8, O.reg R.RAX);
      I.Mov (O.reg R.R10, O.mem ~disp:addr ());
      I.Rdtscp;
      I.Sub (O.reg R.RAX, O.reg R.R8);
      I.Halt;
    ]
  in
  let hit = rax (run (prog (timed_load 0x9000))) in
  let miss_prog =
    [
      I.Lfence;
      I.Rdtsc;
      I.Mov (O.reg R.R8, O.reg R.RAX);
      I.Mov (O.reg R.R10, O.mem ~disp:0xA000 ());
      I.Rdtscp;
      I.Sub (O.reg R.RAX, O.reg R.R8);
      I.Halt;
    ]
  in
  let miss = rax (run (prog miss_prog)) in
  check_bool "hit below threshold" true (hit < Workloads.Attacks.reload_threshold);
  check_bool "miss above threshold" true (miss > Workloads.Attacks.reload_threshold);
  check_bool "gap" true (miss - hit > 100)

let test_clflush_timing_difference () =
  let timed_flush ~warm =
    let pre = if warm then [ I.Mov (O.reg R.R10, O.abs 0xB000) ] else [ I.Nop ] in
    pre
    @ [
        I.Lfence;
        I.Rdtsc;
        I.Mov (O.reg R.R8, O.reg R.RAX);
        I.Clflush (O.abs 0xB000);
        I.Rdtscp;
        I.Sub (O.reg R.RAX, O.reg R.R8);
        I.Halt;
      ]
  in
  let cached = rax (run (prog (timed_flush ~warm:true))) in
  let uncached = rax (run (prog (timed_flush ~warm:false))) in
  check_bool "cached flush slower" true (cached > uncached);
  check_bool "threshold splits" true
    (cached >= Workloads.Attacks.flush_timing_threshold
    && uncached < Workloads.Attacks.flush_timing_threshold)

(* ---- Speculation ---------------------------------------------------------------- *)

let spectre_gadget_prog () =
  prog_l
    [
      P.Ins (I.Mov (O.reg R.RCX, O.imm 6));
      P.Lbl "train";
      P.Ins (I.Mov (O.reg R.RDI, O.imm 1));
      P.Ins (I.Call "gadget");
      P.Ins (I.Dec (O.reg R.RCX));
      P.Ins (I.Cmp (O.reg R.RCX, O.imm 0));
      P.Ins (I.Jcc (I.Ne, "train"));
      P.Ins (I.Mov (O.reg R.RDI, O.imm 1000));
      P.Ins (I.Call "gadget");
      P.Ins I.Halt;
      P.Lbl "gadget";
      P.Ins (I.Cmp (O.reg R.RDI, O.imm 4));
      P.Ins (I.Jcc (I.Uge, "skip"));
      P.Ins (I.Mov (O.reg R.R9, O.imm 123));
      (* the transient load targets an address touched nowhere else *)
      P.Ins (I.Mov (O.reg R.R10, O.mem ~index:R.RDI ~scale:4096 ~disp:0xC0000 ()));
      P.Lbl "skip";
      P.Ins I.Ret;
    ]

let test_transient_cache_effect_persists () =
  let hierarchy = Cache.Hierarchy.create () in
  ignore (run ~hierarchy (spectre_gadget_prog ()));
  (* The out-of-bounds transient load fetched 0xC0000 + 1000*4096, an address
     never architecturally accessed. *)
  let addr = 0xC0000 + (1000 * 4096) in
  let probe = Cache.Hierarchy.load hierarchy ~owner:Cache.Owner.Attacker addr in
  check_bool "line cached by transient path" true
    (probe <> Cache.Hierarchy.Memory)

let test_no_transient_without_speculation () =
  let hierarchy = Cache.Hierarchy.create () in
  ignore
    (run ~hierarchy ~settings:{ E.default_settings with E.spec_window = 0 }
       (spectre_gadget_prog ()));
  let addr = 0xC0000 + (1000 * 4096) in
  let probe = Cache.Hierarchy.load hierarchy ~owner:Cache.Owner.Attacker addr in
  check_bool "no transient fetch with window 0" false
    (probe <> Cache.Hierarchy.Memory)

let test_transient_register_squashed () =
  let r = run (spectre_gadget_prog ()) in
  let r_nospec =
    run ~settings:{ E.default_settings with E.spec_window = 0 }
      (spectre_gadget_prog ())
  in
  (* Architectural register state must be identical with and without
     transient execution. *)
  check_int "r9" (reg r_nospec R.R9) (reg r R.R9);
  check_int "r10" (reg r_nospec R.R10) (reg r R.R10);
  check_int "rax" (rax r_nospec) (rax r)

let test_fence_stops_transient () =
  (* Same gadget, but an lfence guards the transient body: the secret-probe
     address must stay uncached. *)
  let p =
    prog_l
      [
        P.Ins (I.Mov (O.reg R.RCX, O.imm 6));
        P.Lbl "train";
        P.Ins (I.Mov (O.reg R.RDI, O.imm 1));
        P.Ins (I.Call "gadget");
        P.Ins (I.Dec (O.reg R.RCX));
        P.Ins (I.Cmp (O.reg R.RCX, O.imm 0));
        P.Ins (I.Jcc (I.Ne, "train"));
        P.Ins (I.Mov (O.reg R.RDI, O.imm 1000));
        P.Ins (I.Call "gadget");
        P.Ins I.Halt;
        P.Lbl "gadget";
        P.Ins (I.Cmp (O.reg R.RDI, O.imm 4));
        P.Ins (I.Jcc (I.Uge, "skip"));
        P.Ins I.Lfence;
        P.Ins (I.Mov (O.reg R.R10, O.mem ~index:R.RDI ~scale:4096 ~disp:0xC0000 ()));
        P.Lbl "skip";
        P.Ins I.Ret;
      ]
  in
  let hierarchy = Cache.Hierarchy.create () in
  ignore (run ~hierarchy p);
  let addr = 0xC0000 + (1000 * 4096) in
  let probe = Cache.Hierarchy.load hierarchy ~owner:Cache.Owner.Attacker addr in
  check_bool "fence blocked the transient load" false
    (probe <> Cache.Hierarchy.Memory)

(* ---- Protected memory / Meltdown window --------------------------------------------- *)

let protected_settings =
  { E.default_settings with E.protected_range = Some (0x70000, 0x71000) }

let test_fault_kills_without_handler () =
  let p =
    prog [ I.Mov (O.reg R.RAX, O.imm 5); I.Mov (O.reg R.RBX, O.abs 0x70080); I.Nop; I.Halt ]
  in
  let r = run ~settings:protected_settings p in
  check_bool "killed" true r.E.halted_normally;
  (* the instruction after the faulting load never ran: rbx keeps 0 and the
     nop's address was never noted *)
  check_int "rbx unwritten" 0 (reg r R.RBX);
  check_int "nop never retired" 0
    (Hpc.Collector.exec_count r.E.collector ~pc:(P.addr_of_index p 2))

let test_fault_handler_receives_control () =
  let p =
    prog_l
      [
        P.Ins (I.Mov (O.reg R.RBX, O.abs 0x70080));
        P.Ins I.Halt;
        P.Lbl E.fault_handler_label;
        P.Ins (I.Mov (O.reg R.RCX, O.imm 99));
        P.Ins I.Halt;
      ]
  in
  let r = run ~settings:protected_settings p in
  check_int "handler ran" 99 (reg r R.RCX);
  check_int "load squashed" 0 (reg r R.RBX)

let test_fault_transient_footprint () =
  (* Meltdown: the dependent of the faulting load runs transiently and
     caches a secret-indexed line. *)
  let init m = M.store m 0x70080 7 in
  let p =
    prog_l
      [
        P.Ins (I.Mov (O.reg R.R11, O.abs 0x70080));
        P.Ins (I.Mov (O.reg R.R12, O.mem ~index:R.R11 ~scale:4096 ~disp:0x200000 ()));
        P.Ins I.Halt;
        P.Lbl E.fault_handler_label;
        P.Ins I.Halt;
      ]
  in
  let hierarchy = Cache.Hierarchy.create () in
  let r = run ~hierarchy ~settings:protected_settings ~init p in
  let probe =
    Cache.Hierarchy.load hierarchy ~owner:Cache.Owner.Attacker
      (0x200000 + (7 * 4096))
  in
  check_bool "secret-indexed line cached" true
    (probe <> Cache.Hierarchy.Memory);
  check_int "architectural r12 stays 0" 0 (reg r R.R12)

let test_fault_no_window_without_speculation () =
  let init m = M.store m 0x70080 7 in
  let p =
    prog_l
      [
        P.Ins (I.Mov (O.reg R.R11, O.abs 0x70080));
        P.Ins (I.Mov (O.reg R.R12, O.mem ~index:R.R11 ~scale:4096 ~disp:0x200000 ()));
        P.Ins I.Halt;
        P.Lbl E.fault_handler_label;
        P.Ins I.Halt;
      ]
  in
  let hierarchy = Cache.Hierarchy.create () in
  ignore (run ~hierarchy ~settings:{ protected_settings with E.spec_window = 0 } ~init p);
  let probe =
    Cache.Hierarchy.load hierarchy ~owner:Cache.Owner.Attacker
      (0x200000 + (7 * 4096))
  in
  check_bool "no footprint with window 0" false
    (probe <> Cache.Hierarchy.Memory)

let test_no_protection_by_default () =
  let init m = M.store m 0x70080 123 in
  let r = run ~init (prog [ I.Mov (O.reg R.RBX, O.abs 0x70080); I.Halt ]) in
  check_int "reads fine" 123 (reg r R.RBX)

(* ---- Victim interleaving ----------------------------------------------------------- *)

let test_victim_shares_cache () =
  let victim =
    ( prog_l
        [
          P.Lbl "v";
          P.Ins (I.Mov (O.reg R.RBX, O.abs 0xE0000));
          P.Ins I.Halt;
        ],
      fun _ -> () )
  in
  let attacker =
    prog_l
      [
        P.Ins (I.Mov (O.reg R.RCX, O.imm 200));
        P.Lbl "spin";
        P.Ins (I.Dec (O.reg R.RCX));
        P.Ins (I.Cmp (O.reg R.RCX, O.imm 0));
        P.Ins (I.Jcc (I.Ne, "spin"));
        P.Ins (I.Mov (O.reg R.RAX, O.abs 0xE0000));
        P.Ins I.Halt;
      ]
  in
  let r = run ~victim attacker in
  (* The architectural load of the victim-cached line hits (the run-ahead at
     the first loop iteration may have recorded one speculative miss before
     the victim ran — realistic HPC behavior). *)
  let c = Hpc.Collector.total_counters r.E.collector in
  check_bool "architectural load hits the victim's line" true
    (Hpc.Counters.get c Hpc.Event.L1d_load_hit >= 1)

let test_victim_restarts () =
  let victim =
    ( prog_l [ P.Ins (I.Mov (O.reg R.RBX, O.abs 0xF0000)); P.Ins I.Halt ],
      fun _ -> () )
  in
  let attacker =
    prog_l
      [
        P.Ins (I.Mov (O.reg R.RCX, O.imm 500));
        P.Lbl "spin";
        P.Ins (I.Dec (O.reg R.RCX));
        P.Ins (I.Cmp (O.reg R.RCX, O.imm 0));
        P.Ins (I.Jcc (I.Ne, "spin"));
        P.Ins I.Halt;
      ]
  in
  let r = run ~victim attacker in
  check_bool "completes with restarting victim" true r.E.halted_normally

(* ---- HPC events during execution ----------------------------------------------------- *)

let test_events_recorded_per_pc () =
  let p = prog [ I.Mov (O.reg R.RAX, O.abs 0x11000); I.Rdtsc; I.Halt ] in
  let r = run p in
  let pc_of i = P.addr_of_index p i in
  check_int "load miss at instr 0" 1
    (Hpc.Counters.get
       (Option.get (Hpc.Collector.counters_at r.E.collector ~pc:(pc_of 0)))
       Hpc.Event.L1d_load_miss);
  check_int "timestamp at instr 1" 1
    (Hpc.Counters.get
       (Option.get (Hpc.Collector.counters_at r.E.collector ~pc:(pc_of 1)))
       Hpc.Event.Timestamp)

(* The BTB is cold once per branch: each retired branch's first
   occurrence is its only Branch Load Miss. *)
let test_btb_misses_once_per_branch () =
  let p =
    prog_l
      [
        P.Ins (I.Mov (O.reg R.RCX, O.imm 3));
        P.Lbl "loop";
        P.Ins (I.Dec (O.reg R.RCX));
        P.Ins (I.Jcc (I.Ne, "loop"));
        P.Ins (I.Call "f");
        P.Ins (I.Jmp "done");
        P.Lbl "f";
        P.Ins I.Ret;
        P.Lbl "done";
        P.Ins I.Halt;
      ]
  in
  let r = run p in
  let misses i =
    match Hpc.Collector.counters_at r.E.collector ~pc:(P.addr_of_index p i) with
    | Some c -> Hpc.Counters.get c Hpc.Event.Branch_load_miss
    | None -> 0
  in
  check_int "jne retired three times" 3
    (Hpc.Collector.exec_count r.E.collector ~pc:(P.addr_of_index p 2));
  check_int "jne misses once" 1 (misses 2);
  check_int "call misses once" 1 (misses 3);
  check_int "jmp misses once" 1 (misses 4);
  check_int "no miss elsewhere" 0 (misses 0 + misses 1 + misses 5 + misses 6)

let test_access_trace_recorded () =
  let p =
    prog
      [
        I.Mov (O.reg R.RAX, O.abs 0x12000);
        I.Mov (O.abs 0x13000, O.reg R.RAX);
        I.Clflush (O.abs 0x12000);
        I.Halt;
      ]
  in
  let r = run p in
  let accs = Hpc.Collector.accesses r.E.collector in
  check_int "three accesses" 3 (List.length accs);
  let kinds = List.map (fun a -> a.Hpc.Collector.kind) accs in
  check_bool "load, store, flush order" true
    (kinds = [ Hpc.Collector.Load; Hpc.Collector.Store; Hpc.Collector.Flush ]);
  let times = List.map (fun a -> a.Hpc.Collector.time) accs in
  check_bool "times increase" true (List.sort compare times = times)

(* ---- work counters ------------------------------------------------------------------ *)

(* [instructions] counts retired attacker instructions only; the wrong-path
   and victim steps the simulator also pays for are counted beside it. *)
let test_step_counters () =
  let module A = Workloads.Attacks in
  let spectre = A.spectre_fr ~rounds:2 ~style:A.Classic () in
  let window = E.default_settings.E.spec_window in
  let r = A.run_spec spectre in
  let misses =
    Hpc.Counters.get (Hpc.Collector.total_counters r.E.collector) Hpc.Event.Branch_miss
  in
  check_bool "spectre runs a wrong path" true (r.E.wrong_path_steps > 0);
  check_bool "at most one window per mispredict" true
    (r.E.wrong_path_steps <= window * misses);
  check_int "no victim, no victim steps" 0 r.E.victim_steps;
  let no_spec = A.run_spec ~settings:{ E.default_settings with E.spec_window = 0 } spectre in
  check_int "window 0, no wrong path" 0 no_spec.E.wrong_path_steps;
  let fr = A.flush_reload ~rounds:2 ~style:A.Iaik () in
  check_bool "victim steps counted" true ((A.run_spec fr).E.victim_steps > 0);
  let alone = E.run ~init:fr.A.init fr.A.program in
  check_int "victim steps need a victim" 0 alone.E.victim_steps

(* ---- determinism ---------------------------------------------------------------------- *)

let prop_execution_deterministic =
  QCheck.Test.make ~name:"execution is deterministic" ~count:20
    QCheck.small_int
    (fun seed ->
      let g = Workloads.Benign.generate (Sutil.Rng.create seed) in
      let run () =
        let r = E.run ~init:g.Workloads.Benign.init g.Workloads.Benign.program in
        ( r.E.instructions,
          r.E.cycles,
          M.fold_mem r.E.machine ~init:0 ~f:(fun a v acc -> acc lxor (a * 31) lxor v) )
      in
      run () = run ())

let prop_attack_runs_deterministic =
  QCheck.Test.make ~name:"attack runs are deterministic" ~count:4
    QCheck.unit
    (fun () ->
      let go () =
        let r = Workloads.Attacks.run_spec
            (Workloads.Attacks.flush_reload ~style:Workloads.Attacks.Iaik ()) in
        (r.E.instructions, r.E.cycles,
         Array.to_list (Workloads.Attacks.result_histogram r))
      in
      go () = go ())

(* ---- Int_table ------------------------------------------------------------------- *)

(* The int table against Hashtbl as a model.  Keys mix negative values,
   min_int and max_int with 64- and 4096-byte strides off shared bases, so
   home slots collide; a run of up to 400 operations from a 1-binding
   start grows the table several times, and clears interleave. *)
type itable_op = Replace of int * int | Find of int | Mem of int | Clear

let itable_key_gen =
  QCheck.Gen.(
    oneof
      [
        oneofl [ min_int; max_int; min_int + 1; max_int - 1; 0; -1; 1 ];
        map (fun i -> 0x7FFF_0000 + (64 * i)) (int_range (-32) 32);
        map (fun i -> 0x4000_0000 + (4096 * i)) (int_range (-32) 32);
        map (fun i -> -(64 * i)) (int_range 0 64);
        int_range (-50) 50;
      ])

let itable_op_gen =
  QCheck.Gen.(
    frequency
      [
        (8, map2 (fun k v -> Replace (k, v)) itable_key_gen (int_range (-5) 5));
        (5, map (fun k -> Find k) itable_key_gen);
        (3, map (fun k -> Mem k) itable_key_gen);
        (1, return Clear);
      ])

let show_itable_op = function
  | Replace (k, v) -> Printf.sprintf "replace %d %d" k v
  | Find k -> Printf.sprintf "find %d" k
  | Mem k -> Printf.sprintf "mem %d" k
  | Clear -> "clear"

let prop_int_table_model =
  QCheck.Test.make ~name:"int table behaves like Hashtbl" ~count:300
    (QCheck.make
       ~print:(fun ops -> String.concat "; " (List.map show_itable_op ops))
       QCheck.Gen.(list_size (int_range 0 400) itable_op_gen))
    (fun ops ->
      let t = Cpu.Int_table.create 1 and h = Hashtbl.create 16 in
      let sorted_bindings () =
        ( List.sort compare (Cpu.Int_table.fold (fun k v acc -> (k, v) :: acc) t []),
          List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) h []) )
      in
      List.for_all
        (fun op ->
          (match op with
          | Replace (k, v) ->
            Cpu.Int_table.replace t k v;
            Hashtbl.replace h k v;
            true
          | Find k ->
            Cpu.Int_table.find t k ~default:99
            = Option.value (Hashtbl.find_opt h k) ~default:99
          | Mem k -> Cpu.Int_table.mem t k = Hashtbl.mem h k
          | Clear ->
            Cpu.Int_table.clear t;
            Hashtbl.reset h;
            true)
          && Cpu.Int_table.length t = Hashtbl.length h)
        ops
      &&
      let mine, model = sorted_bindings () in
      mine = model)

(* ---- reference simulator ---------------------------------------------------------- *)

(* test/refsim holds the simulator as it stood before the allocation-free
   rewrite.  Both simulators run the same program under the same knobs, and
   every observable must agree: cycles, retired instructions, halt flags,
   the collector's per-pc data and access log, the final architectural
   state, and every cache level's contents. *)

module W = Workloads

type source = {
  src : string;
  program : P.t;
  init : (M.t -> unit) option;
  victim : W.Victim.t option;
  settings : E.settings option;
}

let of_spec (s : W.Attacks.spec) =
  { src = s.W.Attacks.name; program = s.W.Attacks.program; init = Some s.W.Attacks.init;
    victim = s.W.Attacks.victim; settings = s.W.Attacks.settings }

let of_sample (s : W.Dataset.sample) =
  { src = s.W.Dataset.name; program = s.W.Dataset.program; init = Some s.W.Dataset.init;
    victim = s.W.Dataset.victim; settings = s.W.Dataset.settings }

let plain ?init ?victim src program = { src; program; init; victim; settings = None }

(* Every attack style, every benign family, every mutation intensity, the
   MinC corpus under both code generators, and harnessed dataset samples. *)
let sources rng =
  let attacks =
    W.Attacks.
      [
        flush_reload ~rounds:2 ~style:Iaik (); flush_reload ~rounds:2 ~style:Mastik ();
        flush_reload ~rounds:2 ~style:Nepoche (); flush_flush ~rounds:2 ();
        evict_reload ~rounds:2 (); prime_probe ~rounds:2 ~style:Iaik ();
        prime_probe ~rounds:2 ~style:Jzhang (); spectre_fr ~rounds:2 ~style:Idea ();
        spectre_fr ~rounds:2 ~style:Good (); spectre_fr ~rounds:2 ~style:Classic ();
        spectre_pp ~rounds:2 (); meltdown_fr ~rounds:2 ();
      ]
  in
  let benign =
    List.map
      (fun (family, _) ->
        let g = W.Benign.build family rng in
        plain ~init:g.W.Benign.init g.W.Benign.name g.W.Benign.program)
      W.Benign.families
  in
  let mutated =
    List.map
      (fun (tag, intensity) ->
        let s = Sutil.Rng.choose rng attacks in
        let name = s.W.Attacks.name ^ "-" ^ tag in
        { (of_spec s) with
          src = name;
          program = W.Mutate.mutate ~intensity ~rng ~name s.W.Attacks.program })
      [ ("light", W.Mutate.light); ("default", W.Mutate.default_intensity);
        ("heavy", W.Mutate.heavy) ]
  in
  let minc =
    List.concat_map
      (fun optimize ->
        let compile name src = Minc.Codegen.compile_source ~optimize ~name src in
        plain ~victim:(W.Victim.shared_lib ()) "minc-fr"
          (compile "minc-fr" Minc.Programs.flush_reload_source)
        :: List.map (fun (name, src) -> plain name (compile name src))
             Minc.Programs.benign_sources)
      [ false; true ]
  in
  let label = Sutil.Rng.choose rng W.Label.attack_labels in
  let dataset =
    List.map of_sample
      (W.Dataset.mutated_attacks ~rng ~count:1 label
      @ W.Dataset.benign_samples ~rng ~count:1)
  in
  List.map of_spec attacks @ benign @ mutated @ minc @ dataset

type knobs = {
  policy : Cache.Policy.t;
  prefetch : bool;
  cross_core : bool;
  victim : [ `Source | `None | `Idle ];
  protect : (int * int) option; (* when the source sets no range *)
  spec_window : int option; (* [None]: the source's window *)
}

let protect_ranges =
  W.Layout.
    [
      None;
      Some (kernel_base, kernel_base + kernel_size);
      Some (shared_lib_base, shared_lib_base + (monitored_lines * monitored_stride));
      Some (benign_data_base, benign_data_base + 4096);
    ]

(* Axis values cycle with different periods, so a sweep over the sources
   meets each value of each axis several times. *)
let knobs_of_int k =
  let pick l i = List.nth l (i mod List.length l) in
  {
    policy = pick Cache.Policy.all k;
    prefetch = k / 3 mod 2 = 1;
    cross_core = k / 2 mod 2 = 1;
    victim = pick [ `Source; `None; `Idle ] (k / 5);
    protect = pick protect_ranges (k / 7);
    spec_window = pick [ None; Some 0; None; Some 9 ] (k / 11);
  }

(* Job initializers are typed against Cpu.Machine: run them on a fresh
   machine and copy its registers, flags and memory into the reference's. *)
let copy_into ?stack_top f (rm : Refsim.Machine.t) =
  let m = M.create ?stack_top () in
  f m;
  List.iter (fun r -> Refsim.Machine.set_reg rm r (M.get_reg m r)) R.all;
  Refsim.Machine.set_flags rm ~zf:(M.zf m) ~sf:(M.sf m) ~cf:(M.cf m);
  M.fold_mem m ~init:() ~f:(fun a v () -> Refsim.Machine.store rm a v)

let victim_stack_top = 0x7FFE_0000 + (43 * 64)

let sorted_mem fold m = List.sort compare (fold m ~init:[] ~f:(fun a v acc -> (a, v) :: acc))

(* A source's settings and victim under the knobs. *)
let run_settings (s : source) (k : knobs) =
  let base = Option.value s.settings ~default:E.default_settings in
  let settings =
    {
      base with
      E.spec_window = Option.value k.spec_window ~default:base.E.spec_window;
      fuel = min base.E.fuel 60_000;
      protected_range =
        (match base.E.protected_range with Some r -> Some r | None -> k.protect);
    }
  in
  let victim =
    match k.victim with
    | `Source -> s.victim
    | `None -> None
    | `Idle -> Some (W.Victim.idle ())
  in
  (settings, victim)

(* Fresh hierarchies of the knobs' shape: the attacker's view, and the
   victim's own view under the cross-core topology. *)
let hierarchies (k : knobs) =
  let policy = k.policy and prefetch = k.prefetch in
  if k.cross_core then
    let a, b = Cache.Hierarchy.create_cross_core ~policy ~prefetch () in
    (a, Some b)
  else (Cache.Hierarchy.create ~policy ~prefetch (), None)

let run_both (s : source) (k : knobs) =
  let settings, victim = run_settings s k in
  let policy = k.policy and prefetch = k.prefetch in
  let hier, vhier = hierarchies k in
  let rhier, rvhier =
    if k.cross_core then
      let a, b = Refsim.Hierarchy.create_cross_core ~policy ~prefetch () in
      (a, Some b)
    else (Refsim.Hierarchy.create ~policy ~prefetch (), None)
  in
  let r =
    E.run ~settings ~hierarchy:hier ?victim_hierarchy:vhier ?init:s.init ?victim s.program
  in
  let rr =
    Refsim.Exec.run ~settings ~hierarchy:rhier ?victim_hierarchy:rvhier
      ?init:(Option.map (fun f -> copy_into f) s.init)
      ?victim:
        (Option.map
           (fun (vp, vinit) -> (vp, copy_into ~stack_top:victim_stack_top vinit))
           victim)
      s.program
  in
  (r, rr, (hier, vhier), (rhier, rvhier))

let same_as_reference (s : source) k =
  let knobs = knobs_of_int k in
  let r, rr, (hier, vhier), (rhier, rvhier) = run_both s knobs in
  let module RE = Refsim.Exec in
  let module RC = Refsim.Collector in
  let module RM = Refsim.Machine in
  let module RS = Refsim.Set_assoc in
  let fail what =
    QCheck.Test.fail_reportf "%s (knobs %d, %s): %s differs" s.src k
      (Cache.Policy.to_string knobs.policy) what
  in
  let expect what ok = if not ok then fail what in
  expect "instructions" (r.E.instructions = rr.RE.instructions);
  expect "cycles" (r.E.cycles = rr.RE.cycles);
  expect "halted_normally" (r.E.halted_normally = rr.RE.halted_normally);
  let col = r.E.collector and rcol = rr.RE.collector in
  for i = 0 to P.length s.program - 1 do
    let pc = P.addr_of_index s.program i in
    let bank c = Option.map Hpc.Counters.to_assoc c in
    expect (Printf.sprintf "counters at 0x%x" pc)
      (bank (Hpc.Collector.counters_at col ~pc) = bank (RC.counters_at rcol ~pc));
    expect (Printf.sprintf "first time at 0x%x" pc)
      (Hpc.Collector.first_time col ~pc = RC.first_time rcol ~pc);
    expect (Printf.sprintf "exec count at 0x%x" pc)
      (Hpc.Collector.exec_count col ~pc = RC.exec_count rcol ~pc)
  done;
  expect "total counters"
    (Hpc.Counters.to_assoc (Hpc.Collector.total_counters col)
    = Hpc.Counters.to_assoc (RC.total_counters rcol));
  expect "executed pcs" (Hpc.Collector.executed_pcs col = RC.executed_pcs rcol);
  expect "access count" (Hpc.Collector.access_count col = RC.access_count rcol);
  let log =
    List.map
      (fun (a : Hpc.Collector.access) ->
        Hpc.Collector.(a.pc, a.target, a.kind, a.time))
      (Hpc.Collector.accesses col)
  in
  let rlog =
    List.map (fun (a : RC.access) -> RC.(a.pc, a.target, a.kind, a.time)) (RC.accesses rcol)
  in
  expect "access log" (log = rlog);
  let m = r.E.machine and rm = rr.RE.machine in
  List.iter
    (fun reg -> expect ("register " ^ R.to_string reg) (M.get_reg m reg = RM.get_reg rm reg))
    R.all;
  expect "flags" ((M.zf m, M.sf m, M.cf m) = (RM.zf rm, RM.sf rm, RM.cf rm));
  expect "pc/halted" ((M.pc m, M.halted m) = (RM.pc rm, RM.halted rm));
  expect "memory" (sorted_mem M.fold_mem m = sorted_mem RM.fold_mem rm);
  let targets = List.sort_uniq compare (List.map (fun (_, t, _, _) -> t) rlog) in
  let level name c rc =
    expect (name ^ " valid lines") (Cache.Set_assoc.valid_lines c = RS.valid_lines rc);
    List.iter
      (fun o ->
        expect
          (name ^ " sets owned by " ^ Cache.Owner.to_string o)
          (Cache.Set_assoc.owned_sets c o = RS.owned_sets rc o))
      Cache.Owner.[ Attacker; Victim; System ];
    let st = Cache.Set_assoc.state c and rst = RS.state rc in
    expect (name ^ " state")
      (Int64.bits_of_float st.Cache.State.ao = Int64.bits_of_float rst.Cache.State.ao
      && Int64.bits_of_float st.Cache.State.io = Int64.bits_of_float rst.Cache.State.io);
    expect (name ^ " presence")
      (List.for_all (fun a -> Cache.Set_assoc.probe c a = RS.probe rc a) targets)
  in
  let levels tag h rh =
    level (tag ^ "l1d") (Cache.Hierarchy.l1d_cache h) (Refsim.Hierarchy.l1d_cache rh);
    level (tag ^ "l1i") (Cache.Hierarchy.l1i_cache h) (Refsim.Hierarchy.l1i_cache rh);
    level (tag ^ "llc") (Cache.Hierarchy.llc_cache h) (Refsim.Hierarchy.llc_cache rh)
  in
  levels "" hier rhier;
  (match (vhier, rvhier) with
  | Some v, Some rv -> levels "victim " v rv
  | _ -> ());
  true

let reference_sources = lazy (sources (Sutil.Rng.create 2026))

(* each source under two knob settings *)
let test_reference_sweep () =
  let all = Lazy.force reference_sources in
  let n = List.length all in
  List.iteri
    (fun k s -> ignore (same_as_reference s k && same_as_reference s (k + n)))
    all

let prop_reference =
  QCheck.Test.make ~name:"simulator matches the reference" ~count:100
    QCheck.(pair small_nat small_nat)
    (fun (i, k) ->
      let all = Lazy.force reference_sources in
      same_as_reference (List.nth all (i mod List.length all)) k)

(* Well-typed random programs reach operand shapes the workloads never use
   (sub [m],r; xor [m],$i; test r,[m]; push [m]; shl [m] ...).  Each has
   every Instr.t constructor in reach; register, immediate and memory
   operands (base, index, scale 1-8, displacements over a few lines that
   conflict in both L1 and the LLC, in a plain region and in each protected
   range); labels bound at every instruction, so branches go forward and
   back; and sometimes a fault handler. *)
let gen_program =
  let open QCheck.Gen in
  int_range 1 40 >>= fun n ->
  let reg = oneofl R.all in
  let imm = map O.imm (oneof [ int_range (-8) 64; oneofl [ 4096; 32768; 1 lsl 40 ] ]) in
  let mem =
    let region =
      oneofl
        W.Layout.[ 0x20000; kernel_base; shared_lib_base; benign_data_base ]
    in
    let disp =
      map3 (fun r k off -> r + (k * 32768) + off) region (int_bound 17) (oneofl [ 0; 8; 64; 4088 ])
    in
    map4
      (fun base index scale disp -> O.mem ?base ?index ~scale ~disp ())
      (opt ~ratio:0.4 reg) (opt ~ratio:0.3 reg) (int_range 1 8) disp
  in
  let dst = frequency [ (3, map O.reg reg); (1, mem) ] in
  let src = frequency [ (2, map O.reg reg); (2, imm); (1, mem) ] in
  let label = map (Printf.sprintf "L%d") (int_bound (n - 1)) in
  let cond = oneofl I.[ Eq; Ne; Lt; Le; Gt; Ge; Ult; Uge ] in
  let binary f = map2 f dst src in
  let instr =
    frequency
      [
        (4, binary (fun a b -> I.Mov (a, b)));
        (1, map2 (fun r m -> I.Lea (r, m)) reg mem);
        (1, binary (fun a b -> I.Add (a, b)));
        (1, binary (fun a b -> I.Sub (a, b)));
        (1, binary (fun a b -> I.Imul (a, b)));
        (1, binary (fun a b -> I.Xor (a, b)));
        (1, binary (fun a b -> I.And (a, b)));
        (1, binary (fun a b -> I.Or (a, b)));
        (1, map2 (fun a k -> I.Shl (a, k)) dst (int_bound 63));
        (1, map2 (fun a k -> I.Shr (a, k)) dst (int_bound 63));
        (1, map (fun a -> I.Inc a) dst);
        (1, map (fun a -> I.Dec a) dst);
        (2, map2 (fun a b -> I.Cmp (a, b)) src src);
        (1, map2 (fun a b -> I.Test (a, b)) src src);
        (1, map (fun l -> I.Jmp l) label);
        (3, map2 (fun c l -> I.Jcc (c, l)) cond label);
        (1, map (fun l -> I.Call l) label);
        (1, return I.Ret);
        (1, map (fun a -> I.Push a) src);
        (1, map (fun r -> I.Pop r) reg);
        (1, map (fun a -> I.Clflush a) mem);
        (1, map (fun a -> I.Prefetch a) mem);
        (1, oneofl I.[ Mfence; Lfence; Cpuid; Rdtsc; Rdtscp; Nop; Halt ]);
      ]
  in
  map2
    (fun instrs handler ->
      let stmts =
        List.concat
          (List.mapi
             (fun i ins ->
               (if handler = Some i then [ P.Lbl E.fault_handler_label ] else [])
               @ [ P.Lbl (Printf.sprintf "L%d" i); P.Ins ins ])
             instrs)
      in
      P.assemble ~name:"random" (stmts @ [ P.Ins I.Halt ]))
    (list_repeat n instr)
    (opt ~ratio:0.5 (int_bound (n - 1)))

let prop_random_reference =
  QCheck.Test.make ~name:"random programs match the reference" ~count:120
    (QCheck.make
       ~print:(fun (p, k) -> Format.asprintf "%a@.knobs %d" P.pp p k)
       QCheck.Gen.(pair gen_program small_nat))
    (fun (program, k) -> same_as_reference (plain "random" program) k)

(* ---- Reused simulator state -------------------------------------------------- *)

(* Everything same_as_reference compares of one run, as one value: the
   counts, the collector at every pc of the program and two past its end,
   the access log, the machine, and the given cache levels. *)
let observables (s : source) (r : E.result) levels =
  let col = r.E.collector and m = r.E.machine in
  let log =
    List.map
      (fun (a : Hpc.Collector.access) -> Hpc.Collector.(a.pc, a.target, a.kind, a.time))
      (Hpc.Collector.accesses col)
  in
  let targets = List.sort_uniq compare (List.map (fun (_, t, _, _) -> t) log) in
  let at pc =
    ( Option.map Hpc.Counters.to_assoc (Hpc.Collector.counters_at col ~pc),
      Hpc.Collector.hpc_value_at col ~pc,
      Hpc.Collector.first_time col ~pc,
      Hpc.Collector.exec_count col ~pc )
  in
  let level c =
    let st = Cache.Set_assoc.state c in
    ( Cache.Set_assoc.valid_lines c,
      List.map (Cache.Set_assoc.owned_sets c) Cache.Owner.[ Attacker; Victim; System ],
      Int64.(bits_of_float st.Cache.State.ao, bits_of_float st.Cache.State.io),
      List.map (Cache.Set_assoc.probe c) targets )
  in
  ( (r.E.instructions, r.E.wrong_path_steps, r.E.victim_steps, r.E.cycles, r.E.halted_normally),
    List.map at (List.init (P.length s.program + 2) (P.addr_of_index s.program)),
    ( Hpc.Counters.to_assoc (Hpc.Collector.total_counters col),
      Hpc.Collector.executed_pcs col,
      Hpc.Collector.access_count col,
      log ),
    ( List.map (M.get_reg m) R.all,
      (M.zf m, M.sf m, M.cf m, M.pc m, M.halted m),
      sorted_mem M.fold_mem m ),
    List.map level levels )

(* A source that logs more accesses than a recycled collector may keep. *)
let long_log =
  plain "long-log"
    (prog_l
       [
         P.Ins (I.Mov (O.reg R.RCX, O.imm (E.retained_log + 100)));
         P.Lbl "loop";
         P.Ins (I.Mov (O.reg R.RAX, O.mem ~index:R.RCX ~scale:8 ~disp:0x30000 ()));
         P.Ins (I.Dec (O.reg R.RCX));
         P.Ins (I.Cmp (O.reg R.RCX, O.imm 0));
         P.Ins (I.Jcc (I.Ne, "loop"));
         P.Ins I.Halt;
       ])

let reuse_sources = lazy (Lazy.force reference_sources @ [ long_log ])

(* Runs [(source, knobs, refill)] steps in order on reused state, each
   against a run on fresh state.  The reused run takes this domain's spare
   collector, recycled after every step.  Under the default cache shape it
   also takes the domain's spare hierarchy, whose final state is out of
   reach, so the cache levels are compared for the other shapes only.
   Those reuse one hierarchy per shape held here, renewed before the step;
   with [refill] under LRU or FIFO it is instead refilled with System lines
   over whatever it held, last the run's first line (so a lookup memo that
   survived the fill would show), against a fresh hierarchy filled alike.
   Random's draw state outlives fill_all by design, so Random is always
   renewed. *)
let same_after_reuse steps =
  let held = Hashtbl.create 8 in
  List.iter
    (fun ((s : source), k, refill) ->
      let knobs = knobs_of_int k in
      let settings, victim = run_settings s knobs in
      let spare = knobs.policy = Cache.Policy.Lru && not (knobs.prefetch || knobs.cross_core) in
      let random = match knobs.policy with Cache.Policy.Random _ -> true | _ -> false in
      let refill = refill && not (spare || random) in
      let fill (h, vh) =
        List.iter (fun h -> Cache.Hierarchy.fill_with h ~owner:Cache.Owner.System) (h :: Option.to_list vh)
      in
      let reused =
        if spare then None
        else begin
          let shape = (knobs.policy, knobs.prefetch, knobs.cross_core) in
          let ((h, vh) as hs) =
            match Hashtbl.find_opt held shape with
            | Some hs -> hs
            | None ->
              let hs = hierarchies knobs in
              Hashtbl.add held shape hs;
              hs
          in
          if refill then begin
            ignore (Cache.Hierarchy.ifetch h ~owner:Cache.Owner.Victim (P.addr_of_index s.program 0));
            fill hs
          end
          else List.iter Cache.Hierarchy.renew (h :: Option.to_list vh);
          Some hs
        end
      in
      let fresh = hierarchies knobs in
      if refill then fill fresh;
      let run hs =
        E.run ~settings ?hierarchy:(Option.map fst hs) ?victim_hierarchy:(Option.bind hs snd)
          ?init:s.init ?victim s.program
      in
      let levels_of (h, vh) =
        if spare then []
        else
          List.concat_map
            (fun h -> Cache.Hierarchy.[ l1d_cache h; l1i_cache h; llc_cache h ])
            (h :: Option.to_list vh)
      in
      let r = run reused in
      (* the spare collector is out with [r]: this run's is fresh *)
      let f = run (Some fresh) in
      if observables s r (levels_of (Option.value reused ~default:fresh))
         <> observables s f (levels_of fresh)
      then
        QCheck.Test.fail_reportf "%s (knobs %d, %s%s): reused state differs from fresh" s.src k
          (Cache.Policy.to_string knobs.policy)
          (if refill then ", refilled" else "");
      E.recycle r)
    steps;
  true

(* Every source in order of length and back, so programs follow longer and
   shorter ones, with the knobs cycling and every other step refilled. *)
let test_reuse_sweep () =
  let all = Lazy.force reuse_sources in
  let by_length =
    List.stable_sort (fun a b -> compare (P.length a.program) (P.length b.program)) all
  in
  ignore
    (same_after_reuse
       (List.mapi (fun k s -> (s, k, k mod 2 = 1)) (by_length @ List.rev by_length)))

let prop_reuse =
  QCheck.Test.make ~name:"reused state equals fresh state" ~count:30
    QCheck.(list_of_size (Gen.int_range 2 5) (triple small_nat small_nat bool))
    (fun steps ->
      let all = Lazy.force reuse_sources in
      same_after_reuse
        (List.map (fun (i, k, refill) -> (List.nth all (i mod List.length all), k, refill)) steps))

let () =
  Alcotest.run "cpu"
    [
      ( "machine",
        [
          Alcotest.test_case "regs/mem" `Quick test_machine_regs_mem;
          Alcotest.test_case "snapshot isolation" `Quick test_machine_snapshot_isolated;
          Alcotest.test_case "conditions" `Quick test_machine_conditions;
        ] );
      ( "predictor",
        [
          Alcotest.test_case "2-bit training" `Quick test_predictor_training;
        ] );
      ( "semantics",
        [
          Alcotest.test_case "mov/alu" `Quick test_exec_mov_alu;
          Alcotest.test_case "shifts/inc/dec" `Quick test_exec_shifts_incdec;
          Alcotest.test_case "memory ops" `Quick test_exec_memory_ops;
          Alcotest.test_case "lea" `Quick test_exec_lea;
          Alcotest.test_case "loop" `Quick test_exec_loop;
          Alcotest.test_case "call/ret" `Quick test_exec_call_ret;
          Alcotest.test_case "push/pop" `Quick test_exec_push_pop;
          Alcotest.test_case "fall off end" `Quick test_exec_fall_off_end_halts;
          Alcotest.test_case "fuel bound" `Quick test_exec_fuel_bound;
          Alcotest.test_case "prefetch and rmw" `Quick test_exec_prefetch_and_rmw;
          Alcotest.test_case "push mem operand" `Quick test_exec_push_mem_operand;
          Alcotest.test_case "ret to garbage halts" `Quick
            test_exec_ret_to_garbage_halts;
        ] );
      ( "timing",
        [
          Alcotest.test_case "rdtsc hit/miss gap" `Quick test_rdtsc_measures_memory_latency;
          Alcotest.test_case "clflush timing" `Quick test_clflush_timing_difference;
        ] );
      ( "speculation",
        [
          Alcotest.test_case "transient cache effect persists" `Quick
            test_transient_cache_effect_persists;
          Alcotest.test_case "no transient with window 0" `Quick
            test_no_transient_without_speculation;
          Alcotest.test_case "transient registers squashed" `Quick
            test_transient_register_squashed;
          Alcotest.test_case "fence stops transient" `Quick test_fence_stops_transient;
        ] );
      ( "faults",
        [
          Alcotest.test_case "kills without handler" `Quick
            test_fault_kills_without_handler;
          Alcotest.test_case "handler receives control" `Quick
            test_fault_handler_receives_control;
          Alcotest.test_case "transient footprint (Meltdown)" `Quick
            test_fault_transient_footprint;
          Alcotest.test_case "no window without speculation" `Quick
            test_fault_no_window_without_speculation;
          Alcotest.test_case "no protection by default" `Quick
            test_no_protection_by_default;
        ] );
      ( "victim",
        [
          Alcotest.test_case "shares cache" `Quick test_victim_shares_cache;
          Alcotest.test_case "restarts" `Quick test_victim_restarts;
        ] );
      ( "work",
        [ Alcotest.test_case "wrong-path and victim steps" `Quick test_step_counters ] );
      ( "determinism",
        [
          QCheck_alcotest.to_alcotest prop_execution_deterministic;
          QCheck_alcotest.to_alcotest prop_attack_runs_deterministic;
        ] );
      ( "collection",
        [
          Alcotest.test_case "events per pc" `Quick test_events_recorded_per_pc;
          Alcotest.test_case "access trace" `Quick test_access_trace_recorded;
          Alcotest.test_case "btb misses once per branch" `Quick
            test_btb_misses_once_per_branch;
        ] );
      ("int table", [ QCheck_alcotest.to_alcotest prop_int_table_model ]);
      ( "reference",
        [
          Alcotest.test_case "every source" `Quick test_reference_sweep;
          QCheck_alcotest.to_alcotest prop_reference;
          QCheck_alcotest.to_alcotest prop_random_reference;
        ] );
      ( "reuse",
        [
          Alcotest.test_case "every source, reused" `Quick test_reuse_sweep;
          QCheck_alcotest.to_alcotest prop_reuse;
        ] );
    ]
