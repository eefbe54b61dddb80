module I = Isa.Instr
module O = Isa.Operand
module P = Isa.Program
module H = Cache.Hierarchy

type settings = {
  spec_window : int;
  quantum : int;
  victim_quantum : int;
  fuel : int;
  protected_range : (int * int) option;
      (* [lo, hi): kernel-style memory; architectural loads fault, but the
         fault retires late enough for dependent transient work to leave
         cache footprints — the Meltdown window *)
}

let default_settings =
  {
    spec_window = 48;
    quantum = 64;
    victim_quantum = 64;
    fuel = 2_000_000;
    protected_range = None;
  }

exception Fault of int
(* raised by an architectural access to the protected range *)

(* Programs may install a "signal handler" by binding this label; a fault
   transfers control there (the PoC's recovery path).  Without one, the
   faulting process is killed. *)
let fault_handler_label = "__fault_handler"

type result = {
  instructions : int;
  wrong_path_steps : int;
  victim_steps : int;
  cycles : int;
  halted_normally : bool;
  collector : Hpc.Collector.t;
  machine : Machine.t;
}

(* An operand with its registers resolved to register-file slots; an
   absent base or index names the always-zero slot. *)
type operand = Imm of int | Reg of int | Mem of { base : int; index : int; scale : int; disp : int }

let operand =
  let slot = function Some r -> Isa.Reg.index r | None -> Isa.Reg.count in
  function
  | O.Imm i -> Imm i
  | O.Reg r -> Reg (Isa.Reg.index r)
  | O.Mem m ->
    Mem { base = slot m.O.base; index = slot m.O.index; scale = m.O.scale; disp = m.O.disp }

type proc = {
  prog : P.t;
  (* the program decoded once per run, so a step neither looks a label up
     by name, nor matches the instruction for its cost or operands *)
  code : I.t array;
  op1 : operand array; (* first operand (Instr.operands), [Imm 0] if none *)
  op2 : operand array; (* second operand, [Imm 0] if none *)
  targets : int array; (* label index of a Jmp/Jcc/Call; 0 elsewhere *)
  costs : int array;
  handler : int option; (* index bound to [fault_handler_label] *)
  mach : Machine.t;
  shadow : Machine.t; (* copy-on-write view of [mach] for wrong paths *)
  owner : Cache.Owner.t;
  pred : Predictor.t;
  collect : Hpc.Collector.t option;
  spec : bool; (* transient execution modelled for this process *)
  hier : Cache.Hierarchy.t; (* this process's cache view: the same as the
                               peer's under SMT, a private-L1 view under the
                               cross-core topology *)
  mutable now : int; (* per-process cycle clock: processes model two cores
                        sharing caches, so one does not stall the other *)
  mutable in_transient : bool; (* protection checks are deferred on the
                                  transient path (Meltdown) *)
}

let spawn ?stack_top ~owner ~collect ~spec hier prog =
  let code = P.code prog in
  let target ins = Option.fold ~none:0 ~some:(P.label_index prog) (I.branch_target ins) in
  let mach = Machine.create ?stack_top () in
  let nth k ins = match List.nth_opt (I.operands ins) k with Some o -> operand o | None -> Imm 0 in
  {
    prog;
    code;
    op1 = Array.map (nth 0) code;
    op2 = Array.map (nth 1) code;
    targets = Array.map target code;
    costs = Array.map Timing.cost code;
    handler = List.assoc_opt fault_handler_label (P.labels prog);
    mach;
    shadow = Machine.shadow mach;
    owner;
    pred = Predictor.create ();
    collect;
    spec;
    hier;
    now = 0;
    in_transient = false;
  }

type global = {
  settings : settings;
  mutable wrong_path_steps : int;
  mutable victim_steps : int;
}

let ev proc idx e =
  match proc.collect with
  | Some c -> Hpc.Collector.record_event c idx e
  | None -> ()

let acc proc idx ~target kind =
  match proc.collect with
  | Some c -> Hpc.Collector.record_access c idx ~target ~kind ~time:proc.now
  | None -> ()

let protected_fault g proc addr =
  (not proc.in_transient)
  &&
  match g.settings.protected_range with
  | Some (lo, hi) -> addr >= lo && addr < hi
  | None -> false

let data_load g proc mach idx addr =
  let level = H.load proc.hier ~owner:proc.owner addr in
  proc.now <- proc.now + H.latency proc.hier level;
  if level = H.L1 then ev proc idx Hpc.Event.L1d_load_hit
  else begin
    ev proc idx Hpc.Event.L1d_load_miss;
    if level = H.Llc then ev proc idx Hpc.Event.Llc_load_hit
    else begin
      ev proc idx Hpc.Event.Llc_load_miss;
      ev proc idx Hpc.Event.Cache_miss
    end
  end;
  acc proc idx ~target:addr Hpc.Collector.Load;
  (* The line is fetched (cache side effects above are real) before the
     permission check retires — faults are precise architecturally but late
     micro-architecturally. *)
  if protected_fault g proc addr then raise (Fault addr);
  Machine.load mach addr

let data_store proc mach idx addr value =
  let level = H.store proc.hier ~owner:proc.owner addr in
  proc.now <- proc.now + H.latency proc.hier level;
  if level = H.L1 then ev proc idx Hpc.Event.L1d_store_hit
  else if level = H.Llc then ev proc idx Hpc.Event.Llc_store_hit
  else begin
    ev proc idx Hpc.Event.Llc_store_miss;
    ev proc idx Hpc.Event.Cache_miss
  end;
  acc proc idx ~target:addr Hpc.Collector.Store;
  Machine.store mach addr value

let address proc mach idx = function
  | Mem m -> m.disp + Machine.slot mach m.base + (Machine.slot mach m.index * m.scale)
  | Imm _ | Reg _ ->
    invalid_arg ("Exec: " ^ I.mnemonic proc.code.(idx) ^ " needs a memory operand")

let eval g proc mach idx = function
  | Imm i -> i
  | Reg r -> Machine.slot mach r
  | Mem _ as m -> data_load g proc mach idx (address proc mach idx m)

let write proc mach idx dst value =
  match dst with
  | Reg r -> Machine.set_slot mach r value
  | Mem _ -> data_store proc mach idx (address proc mach idx dst) value
  | Imm _ -> invalid_arg "Exec: immediate as destination"

let arith_flags mach result ~cf =
  Machine.set_flags mach ~zf:(result = 0) ~sf:(result < 0) ~cf

(* Read-modify-write binary ALU op on the instruction's two operands. *)
let binop g proc mach idx f ~cf_of =
  let a = eval g proc mach idx proc.op1.(idx) in
  let b = eval g proc mach idx proc.op2.(idx) in
  let r = f a b in
  arith_flags mach r ~cf:(cf_of a b);
  write proc mach idx proc.op1.(idx) r

let rsp = Isa.Reg.index Isa.Reg.RSP
let rax = Isa.Reg.index Isa.Reg.RAX

(* Execute the instruction at [mach]'s pc; returns whether an instruction
   actually retired (false when the pc ran off the program, which just
   halts).  [transient] suppresses predictor training, BB-retirement notes
   and nested speculation; cache effects and HPC events still happen — that
   persistence is the Spectre channel. *)
let rec step g proc mach ~transient =
  proc.in_transient <- transient;
  let idx = Machine.pc mach in
  if idx < 0 || idx >= Array.length proc.code then begin
    Machine.set_halted mach true;
    false
  end
  else try begin
    let pc = P.addr_of_index proc.prog idx in
    let level = H.ifetch proc.hier ~owner:proc.owner pc in
    proc.now <- proc.now + H.latency proc.hier level;
    if level <> H.L1 then ev proc idx Hpc.Event.L1i_load_miss;
    if level = H.Memory then ev proc idx Hpc.Event.Cache_miss;
    if not transient then begin
      match proc.collect with
      | Some c -> Hpc.Collector.note_executed c idx ~time:proc.now
      | None -> ()
    end;
    let ins = proc.code.(idx) in
    proc.now <- proc.now + proc.costs.(idx);
    let next = idx + 1 in
    Machine.set_pc mach next;
    (match ins with
    | I.Mov _ -> write proc mach idx proc.op1.(idx) (eval g proc mach idx proc.op2.(idx))
    | I.Lea _ -> write proc mach idx proc.op1.(idx) (address proc mach idx proc.op2.(idx))
    | I.Add _ -> binop g proc mach idx ( + ) ~cf_of:(fun _ _ -> false)
    | I.Sub _ -> binop g proc mach idx ( - ) ~cf_of:(fun a b -> a < b)
    | I.Imul _ -> binop g proc mach idx ( * ) ~cf_of:(fun _ _ -> false)
    | I.Xor _ -> binop g proc mach idx ( lxor ) ~cf_of:(fun _ _ -> false)
    | I.And _ -> binop g proc mach idx ( land ) ~cf_of:(fun _ _ -> false)
    | I.Or _ -> binop g proc mach idx ( lor ) ~cf_of:(fun _ _ -> false)
    | I.Shl _ -> binop g proc mach idx ( lsl ) ~cf_of:(fun _ _ -> false)
    | I.Shr _ -> binop g proc mach idx ( lsr ) ~cf_of:(fun _ _ -> false)
    | I.Inc _ | I.Dec _ ->
      let r = eval g proc mach idx proc.op1.(idx) + match ins with I.Inc _ -> 1 | _ -> -1 in
      (* x86 inc/dec leave CF untouched. *)
      Machine.set_flags mach ~zf:(r = 0) ~sf:(r < 0) ~cf:(Machine.cf mach);
      write proc mach idx proc.op1.(idx) r
    | I.Cmp _ ->
      let x = eval g proc mach idx proc.op1.(idx) in
      let y = eval g proc mach idx proc.op2.(idx) in
      Machine.set_flags mach ~zf:(x = y) ~sf:(x - y < 0) ~cf:(x < y)
    | I.Test _ ->
      let x = eval g proc mach idx proc.op1.(idx) in
      let y = eval g proc mach idx proc.op2.(idx) in
      let r = x land y in
      Machine.set_flags mach ~zf:(r = 0) ~sf:(r < 0) ~cf:false
    | I.Jmp _ ->
      if not transient then note_btb proc ~pc idx;
      Machine.set_pc mach proc.targets.(idx)
    | I.Jcc (c, _) -> exec_jcc g proc mach ~transient ~pc ~idx c
    | I.Call _ ->
      if not transient then note_btb proc ~pc idx;
      let sp = Machine.slot mach rsp - 8 in
      Machine.set_slot mach rsp sp;
      data_store proc mach idx sp next;
      Machine.set_pc mach proc.targets.(idx)
    | I.Ret ->
      let sp = Machine.slot mach rsp in
      let target = data_load g proc mach idx sp in
      Machine.set_slot mach rsp (sp + 8);
      if target < 0 || target >= Array.length proc.code then
        Machine.set_halted mach true
      else Machine.set_pc mach target
    | I.Push _ ->
      let v = eval g proc mach idx proc.op1.(idx) in
      let sp = Machine.slot mach rsp - 8 in
      Machine.set_slot mach rsp sp;
      data_store proc mach idx sp v
    | I.Pop _ ->
      let sp = Machine.slot mach rsp in
      let v = data_load g proc mach idx sp in
      Machine.set_slot mach rsp (sp + 8);
      write proc mach idx proc.op1.(idx) v
    | I.Clflush _ ->
      let addr = address proc mach idx proc.op1.(idx) in
      proc.now <- proc.now + H.flush proc.hier addr;
      acc proc idx ~target:addr Hpc.Collector.Flush
    | I.Prefetch _ -> ignore (data_load g proc mach idx (address proc mach idx proc.op1.(idx)))
    | I.Mfence | I.Lfence | I.Cpuid ->
      (* Serializing: a transient (mispredicted-path) execution cannot
         proceed past a fence — the property real attacks use to keep
         run-ahead loads out of their timing windows. *)
      if transient then Machine.set_halted mach true
    | I.Rdtsc | I.Rdtscp ->
      Machine.set_slot mach rax proc.now;
      ev proc idx Hpc.Event.Timestamp
    | I.Nop -> ()
    | I.Halt -> Machine.set_halted mach true);
    true
  end
  with Fault _ when not transient ->
    (* Deferred-fault transient window: re-run the faulting instruction and
       its dependents on a shadow (loads from the protected range succeed
       there), leaving only cache footprints; then deliver the fault. *)
    if proc.spec && g.settings.spec_window > 0 then
      run_transient g proc ~from:idx;
    (match proc.handler with
    | Some handler -> Machine.set_pc mach handler
    | None -> Machine.set_halted mach true);
    true

and note_btb proc ~pc idx =
  if not (Predictor.btb_seen proc.pred ~pc) then begin
    ev proc idx Hpc.Event.Branch_load_miss;
    Predictor.btb_insert proc.pred ~pc
  end

and exec_jcc g proc mach ~transient ~pc ~idx cond =
  let target = proc.targets.(idx) in
  let taken = Machine.cond_holds mach cond in
  if not transient then begin
    note_btb proc ~pc idx;
    let predicted = Predictor.predict_taken proc.pred ~pc in
    Predictor.update proc.pred ~pc ~taken;
    if predicted <> taken then begin
      ev proc idx Hpc.Event.Branch_miss;
      proc.now <- proc.now + Timing.mispredict_penalty;
      if proc.spec && g.settings.spec_window > 0 then
        run_transient g proc ~from:(if predicted then target else idx + 1)
    end
  end;
  Machine.set_pc mach (if taken then target else idx + 1)

(* Transient execution down the mispredicted path: runs on the process's
   copy-on-write shadow, whose architectural effects are discarded, while
   cache fills/evictions and HPC events go through the real shared
   hierarchy.  The architectural machine is not written until the shadow
   is done, and there is no nested speculation, so one shadow suffices. *)
and run_transient g proc ~from =
  let shadow = proc.shadow in
  Machine.fork shadow;
  Machine.set_pc shadow from;
  (* Wrong-path work overlaps the pipeline flush on a real core; its latency
     is covered by the mispredict penalty, so the architectural clock is
     restored afterwards.  Cache effects persist. *)
  let saved_now = proc.now in
  let steps = ref 0 in
  while (not (Machine.halted shadow)) && !steps < g.settings.spec_window do
    if step g proc shadow ~transient:true then
      g.wrong_path_steps <- g.wrong_path_steps + 1;
    incr steps
  done;
  proc.in_transient <- false;
  proc.now <- saved_now

(* One spare hierarchy and one spare collector per domain: a run takes
   the spare, renewed, or makes a fresh one when there is none (the
   domain's first run, a run nested in [init]). *)
let spare_hierarchy = Domain.DLS.new_key (fun () -> None)
let spare_collector = Domain.DLS.new_key (fun () -> None)

let take key ~renew ~fresh =
  match Domain.DLS.get key with
  | Some spare ->
    Domain.DLS.set key None;
    renew spare;
    spare
  | None -> fresh ()

let retained_log = 8192

let recycle r =
  if Hpc.Collector.access_count r.collector <= retained_log then
    Domain.DLS.set spare_collector (Some r.collector)

let run ?(settings = default_settings) ?hierarchy ?victim_hierarchy ?init
    ?victim prog =
  let hier =
    match hierarchy with
    | Some h -> h
    | None -> take spare_hierarchy ~renew:H.renew ~fresh:(fun () -> H.create ())
  in
  (* the victim shares the attacker's full view (SMT) unless its own
     cross-core view is supplied *)
  let victim_hier = Option.value ~default:hier victim_hierarchy in
  let g = { settings; wrong_path_steps = 0; victim_steps = 0 } in
  let base = P.base prog and length = P.length prog in
  let collector =
    take spare_collector ~renew:(Hpc.Collector.renew ~base ~length) ~fresh:(fun () ->
        Hpc.Collector.create ~base ~length)
  in
  let att =
    spawn ~owner:Cache.Owner.Attacker ~collect:(Some collector) ~spec:true hier prog
  in
  (match init with Some f -> f att.mach | None -> ());
  let vic =
    Option.map
      (fun (vprog, vinit) ->
        let v =
          spawn ~stack_top:(0x7FFE_0000 + (43 * 64)) ~owner:Cache.Owner.Victim
            ~collect:None ~spec:false victim_hier vprog
        in
        vinit v.mach;
        v)
      victim
  in
  let count = ref 0 in
  while (not (Machine.halted att.mach)) && !count < settings.fuel do
    let n = ref 0 in
    while
      (not (Machine.halted att.mach))
      && !n < settings.quantum && !count < settings.fuel
    do
      if step g att att.mach ~transient:false then begin
        incr n;
        incr count
      end
    done;
    match vic with
    | None -> ()
    | Some v ->
      (* A halted victim restarts: it models a continuously running
         process. *)
      if Machine.halted v.mach then begin
        Machine.set_pc v.mach 0;
        Machine.set_halted v.mach false
      end;
      let m = ref 0 in
      while (not (Machine.halted v.mach)) && !m < settings.victim_quantum do
        if step g v v.mach ~transient:false then
          g.victim_steps <- g.victim_steps + 1;
        incr m
      done
  done;
  if Option.is_none hierarchy then Domain.DLS.set spare_hierarchy (Some hier);
  {
    instructions = !count;
    wrong_path_steps = g.wrong_path_steps;
    victim_steps = g.victim_steps;
    cycles = att.now;
    halted_normally = Machine.halted att.mach;
    collector;
    machine = att.mach;
  }
