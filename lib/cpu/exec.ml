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
(* raised by an architectural access to the protected range, with the
   faulting instruction's index *)

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
type mem = { base : int; index : int; scale : int; disp : int }
type operand = Imm of int | Reg of int | Mem of mem

let reg = Isa.Reg.index

let mem (m : O.mem) =
  let slot = function Some r -> reg r | None -> Isa.Reg.count in
  { base = slot m.O.base; index = slot m.O.index; scale = m.O.scale; disp = m.O.disp }

let operand = function
  | O.Imm i -> Imm i
  | O.Reg r -> Reg (reg r)
  | O.Mem m -> Mem (mem m)

type proc = {
  prog : P.t;
  (* the program compiled once per run: instruction [i] is [ops.(i) mach
     transient], a closure specialized by instruction and operand shape,
     so a step matches neither the instruction nor its operands *)
  ops : (Machine.t -> bool -> unit) array;
  costs : int array;
  btb : Bytes.t; (* the branch-target buffer: '\001' once the branch at
                    that index retired *)
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
  mutable retired : int; (* architectural steps retired so far *)
}

type global = {
  settings : settings;
  mutable wrong_path_steps : int;
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
  if protected_fault g proc addr then raise (Fault idx);
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

let address mach m = m.disp + Machine.slot mach m.base + (Machine.slot mach m.index * m.scale)

(* The shared operand helpers, for the shapes no closure below
   specializes. *)
let eval g proc mach idx = function
  | Imm i -> i
  | Reg r -> Machine.slot mach r
  | Mem m -> data_load g proc mach idx (address mach m)

let write proc mach idx dst value =
  match dst with
  | Reg r -> Machine.set_slot mach r value
  | Mem m -> data_store proc mach idx (address mach m) value
  | Imm _ -> invalid_arg "Exec: immediate as destination"

let arith_flags mach result ~cf =
  Machine.set_flags mach ~zf:(result = 0) ~sf:(result < 0) ~cf

(* An ALU result into register slot [d], with its flags. *)
let[@inline] set_result mach d r ~cf =
  arith_flags mach r ~cf;
  Machine.set_slot mach d r

let compare_flags mach x y = Machine.set_flags mach ~zf:(x = y) ~sf:(x - y < 0) ~cf:(x < y)

(* x86 inc/dec leave CF untouched. *)
let incdec_flags mach r = Machine.set_flags mach ~zf:(r = 0) ~sf:(r < 0) ~cf:(Machine.cf mach)

type alu = Add | Sub | Imul | Xor | And | Or | Shl | Shr

(* The closure of a read-modify-write binary ALU op. *)
let binop g proc idx op dst src =
  let module M = Machine in
  match (op, operand dst, operand src) with
  | Add, Reg d, Reg s -> fun mach _ -> set_result mach d (M.slot mach d + M.slot mach s) ~cf:false
  | Add, Reg d, Imm i -> fun mach _ -> set_result mach d (M.slot mach d + i) ~cf:false
  | And, Reg d, Imm i -> fun mach _ -> set_result mach d (M.slot mach d land i) ~cf:false
  | Sub, Reg d, Imm i ->
    fun mach _ ->
      let a = M.slot mach d in
      set_result mach d (a - i) ~cf:(a < i)
  | op, dst, src ->
    fun mach _ ->
      let a = eval g proc mach idx dst in
      let b = eval g proc mach idx src in
      let r =
        match op with
        | Add -> a + b
        | Sub -> a - b
        | Imul -> a * b
        | Xor -> a lxor b
        | And -> a land b
        | Or -> a lor b
        | Shl -> a lsl b
        | Shr -> a lsr b
      in
      arith_flags mach r ~cf:(match op with Sub -> a < b | _ -> false);
      write proc mach idx dst r

let rsp = reg Isa.Reg.RSP
let rax = reg Isa.Reg.RAX

(* Execute the instruction at [mach]'s pc; returns whether an instruction
   actually retired (false when the pc ran off the program, which just
   halts).  [transient] suppresses predictor training, BB-retirement notes
   and nested speculation; cache effects and HPC events still happen — that
   persistence is the Spectre channel.  An architectural load from the
   protected range raises [Fault] after its fetch, its retirement note and
   its cache effects. *)
let step proc mach ~transient =
  proc.in_transient <- transient;
  let idx = Machine.pc mach in
  if idx < 0 || idx >= Array.length proc.ops then begin
    Machine.set_halted mach true;
    false
  end
  else begin
    let level = H.ifetch proc.hier ~owner:proc.owner (P.addr_of_index proc.prog idx) in
    proc.now <- proc.now + H.latency proc.hier level;
    if level <> H.L1 then ev proc idx Hpc.Event.L1i_load_miss;
    if level = H.Memory then ev proc idx Hpc.Event.Cache_miss;
    (if not transient then
       match proc.collect with
       | Some c -> Hpc.Collector.note_executed c idx ~time:proc.now
       | None -> ());
    proc.now <- proc.now + proc.costs.(idx);
    Machine.set_pc mach (idx + 1);
    proc.ops.(idx) mach transient;
    true
  end

(* Transient execution down the mispredicted path: runs on the process's
   copy-on-write shadow, whose architectural effects are discarded, while
   cache fills/evictions and HPC events go through the real shared
   hierarchy.  The architectural machine is not written until the shadow
   is done, and there is no nested speculation, so one shadow suffices. *)
let run_transient g proc ~from =
  let shadow = proc.shadow in
  Machine.fork shadow;
  Machine.set_pc shadow from;
  (* Wrong-path work overlaps the pipeline flush on a real core; its latency
     is covered by the mispredict penalty, so the architectural clock is
     restored afterwards.  Cache effects persist. *)
  let saved_now = proc.now in
  let steps = ref 0 in
  while (not (Machine.halted shadow)) && !steps < g.settings.spec_window do
    if step proc shadow ~transient:true then
      g.wrong_path_steps <- g.wrong_path_steps + 1;
    incr steps
  done;
  proc.in_transient <- false;
  proc.now <- saved_now

let note_btb proc idx =
  if Bytes.get proc.btb idx = '\000' then begin
    ev proc idx Hpc.Event.Branch_load_miss;
    Bytes.set proc.btb idx '\001'
  end

let exec_jcc g proc mach transient idx ~pc cond target =
  let taken = Machine.cond_holds mach cond in
  if not transient then begin
    note_btb proc idx;
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

(* Instruction [idx]'s closure.  The step has already fetched it, charged
   its cost and moved the pc past it. *)
let compile g proc idx ins =
  let module M = Machine in
  match ins with
  | I.Mov (O.Reg d, src) -> (
    let d = reg d in
    match operand src with
    | Mem m -> fun mach _ -> M.set_slot mach d (data_load g proc mach idx (address mach m))
    | Reg s -> fun mach _ -> M.set_slot mach d (M.slot mach s)
    | Imm i -> fun mach _ -> M.set_slot mach d i)
  | I.Mov (O.Mem m, O.Reg s) ->
    let m = mem m and s = reg s in
    fun mach _ -> data_store proc mach idx (address mach m) (M.slot mach s)
  | I.Mov (dst, src) ->
    let dst = operand dst and src = operand src in
    fun mach _ -> write proc mach idx dst (eval g proc mach idx src)
  | I.Lea (d, O.Mem m) ->
    let d = reg d and m = mem m in
    fun mach _ -> M.set_slot mach d (address mach m)
  | I.Add (a, b) -> binop g proc idx Add a b
  | I.Sub (a, b) -> binop g proc idx Sub a b
  | I.Imul (a, b) -> binop g proc idx Imul a b
  | I.Xor (a, b) -> binop g proc idx Xor a b
  | I.And (a, b) -> binop g proc idx And a b
  | I.Or (a, b) -> binop g proc idx Or a b
  | I.Shl (a, n) -> binop g proc idx Shl a (O.Imm n)
  | I.Shr (a, n) -> binop g proc idx Shr a (O.Imm n)
  | I.Inc a | I.Dec a -> (
    let by = match ins with I.Inc _ -> 1 | _ -> -1 in
    match operand a with
    | Reg d ->
      fun mach _ ->
        let r = M.slot mach d + by in
        incdec_flags mach r;
        M.set_slot mach d r
    | a ->
      fun mach _ ->
        let r = eval g proc mach idx a + by in
        incdec_flags mach r;
        write proc mach idx a r)
  | I.Cmp (a, b) -> (
    match (operand a, operand b) with
    | Reg a, Imm i -> fun mach _ -> compare_flags mach (M.slot mach a) i
    | Reg a, Reg b -> fun mach _ -> compare_flags mach (M.slot mach a) (M.slot mach b)
    | a, b ->
      fun mach _ ->
        let x = eval g proc mach idx a in
        compare_flags mach x (eval g proc mach idx b))
  | I.Test (a, b) ->
    let a = operand a and b = operand b in
    fun mach _ ->
      let x = eval g proc mach idx a in
      arith_flags mach (x land eval g proc mach idx b) ~cf:false
  | I.Jmp l ->
    let t = P.label_index proc.prog l in
    fun mach transient ->
      if not transient then note_btb proc idx;
      M.set_pc mach t
  | I.Jcc (c, l) ->
    let t = P.label_index proc.prog l and pc = P.addr_of_index proc.prog idx in
    fun mach transient -> exec_jcc g proc mach transient idx ~pc c t
  | I.Call l ->
    let t = P.label_index proc.prog l in
    fun mach transient ->
      if not transient then note_btb proc idx;
      let sp = M.slot mach rsp - 8 in
      M.set_slot mach rsp sp;
      data_store proc mach idx sp (idx + 1);
      M.set_pc mach t
  | I.Ret ->
    let length = P.length proc.prog in
    fun mach _ ->
      let sp = M.slot mach rsp in
      let target = data_load g proc mach idx sp in
      M.set_slot mach rsp (sp + 8);
      if target < 0 || target >= length then M.set_halted mach true
      else M.set_pc mach target
  | I.Push a ->
    let a = operand a in
    fun mach _ ->
      let v = eval g proc mach idx a in
      let sp = M.slot mach rsp - 8 in
      M.set_slot mach rsp sp;
      data_store proc mach idx sp v
  | I.Pop d ->
    let d = reg d in
    fun mach _ ->
      let sp = M.slot mach rsp in
      let v = data_load g proc mach idx sp in
      M.set_slot mach rsp (sp + 8);
      M.set_slot mach d v
  | I.Clflush (O.Mem m) ->
    let m = mem m in
    fun mach _ ->
      let addr = address mach m in
      proc.now <- proc.now + H.flush proc.hier addr;
      acc proc idx ~target:addr Hpc.Collector.Flush
  | I.Prefetch (O.Mem m) ->
    let m = mem m in
    fun mach _ -> ignore (data_load g proc mach idx (address mach m))
  | I.Lea _ | I.Clflush _ | I.Prefetch _ ->
    invalid_arg ("Exec: " ^ I.mnemonic ins ^ " needs a memory operand")
  | I.Mfence | I.Lfence | I.Cpuid ->
    (* Serializing: a transient (mispredicted-path) execution cannot
       proceed past a fence — the property real attacks use to keep
       run-ahead loads out of their timing windows. *)
    fun mach transient -> if transient then M.set_halted mach true
  | I.Rdtsc | I.Rdtscp ->
    fun mach _ ->
      M.set_slot mach rax proc.now;
      ev proc idx Hpc.Event.Timestamp
  | I.Nop -> fun _ _ -> ()
  | I.Halt -> fun mach _ -> M.set_halted mach true

let spawn ?stack_top g ~owner ~collect ~spec hier prog =
  let code = P.code prog in
  let n = Array.length code in
  let mach = Machine.create ?stack_top () in
  let proc =
    {
      prog;
      ops = Array.make n (fun _ _ -> ());
      costs = Array.map Timing.cost code;
      btb = Bytes.make n '\000';
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
      retired = 0;
    }
  in
  Array.iteri (fun i ins -> proc.ops.(i) <- compile g proc i ins) code;
  proc

(* Runs [proc] architecturally until it halts or has retired [limit] steps
   in all.  A faulting step retires: its deferred-fault transient window
   re-runs it and its dependents on the shadow (loads from the protected
   range succeed there), leaving only cache footprints; then the fault is
   delivered to the handler, or the process is killed. *)
let rec slice g proc limit =
  match
    while (not (Machine.halted proc.mach)) && proc.retired < limit do
      if step proc proc.mach ~transient:false then proc.retired <- proc.retired + 1
    done
  with
  | () -> ()
  | exception Fault idx ->
    if proc.spec && g.settings.spec_window > 0 then run_transient g proc ~from:idx;
    (match proc.handler with
    | Some handler -> Machine.set_pc proc.mach handler
    | None -> Machine.set_halted proc.mach true);
    proc.retired <- proc.retired + 1;
    slice g proc limit

(* [proc.retired + n], saturating: the limit of a slice of [n] steps *)
let upto proc n = if n > max_int - proc.retired then max_int else proc.retired + n

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
  let g = { settings; wrong_path_steps = 0 } in
  let base = P.base prog and length = P.length prog in
  let collector =
    take spare_collector ~renew:(Hpc.Collector.renew ~base ~length) ~fresh:(fun () ->
        Hpc.Collector.create ~base ~length)
  in
  let att =
    spawn g ~owner:Cache.Owner.Attacker ~collect:(Some collector) ~spec:true hier prog
  in
  (match init with Some f -> f att.mach | None -> ());
  let vic =
    Option.map
      (fun (vprog, vinit) ->
        let v =
          spawn ~stack_top:(0x7FFE_0000 + (43 * 64)) g ~owner:Cache.Owner.Victim
            ~collect:None ~spec:false victim_hier vprog
        in
        vinit v.mach;
        v)
      victim
  in
  while (not (Machine.halted att.mach)) && att.retired < settings.fuel do
    slice g att (min settings.fuel (upto att settings.quantum));
    match vic with
    | None -> ()
    | Some v ->
      (* A halted victim restarts: it models a continuously running
         process. *)
      if Machine.halted v.mach then begin
        Machine.set_pc v.mach 0;
        Machine.set_halted v.mach false
      end;
      slice g v (upto v settings.victim_quantum)
  done;
  if Option.is_none hierarchy then Domain.DLS.set spare_hierarchy (Some hier);
  {
    instructions = att.retired;
    wrong_path_steps = g.wrong_path_steps;
    victim_steps = Option.fold ~none:0 ~some:(fun v -> v.retired) vic;
    cycles = att.now;
    halted_normally = Machine.halted att.mach;
    collector;
    machine = att.mach;
  }
