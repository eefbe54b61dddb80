(* Reference copy of Cpu.Machine before the copy-on-write shadow: a
   wrong-path fork deep-copies the whole memory table. *)

type t = {
  regs : int array;
  mem : (int, int) Hashtbl.t;
  mutable zf : bool;
  mutable sf : bool;
  mutable cf : bool;
  mutable pc : int;
  mutable halted : bool;
}

(* The default stack top sits at LLC set 27, away from the set-0-aligned
   regions the cache-attack workloads monitor. *)
let create ?(stack_top = 0x7FFF_0000 + (27 * 64)) () =
  let regs = Array.make Isa.Reg.count 0 in
  regs.(Isa.Reg.index Isa.Reg.RSP) <- stack_top;
  { regs; mem = Hashtbl.create 1024; zf = false; sf = false; cf = false;
    pc = 0; halted = false }

let get_reg t r = t.regs.(Isa.Reg.index r)
let set_reg t r v = t.regs.(Isa.Reg.index r) <- v

let load t addr = Option.value ~default:0 (Hashtbl.find_opt t.mem addr)
let store t addr v = Hashtbl.replace t.mem addr v

let init_region t ~base values =
  Array.iteri (fun i v -> store t (base + (8 * i)) v) values

let zf t = t.zf
let sf t = t.sf
let cf t = t.cf

let set_flags t ~zf ~sf ~cf =
  t.zf <- zf;
  t.sf <- sf;
  t.cf <- cf

let cond_holds t = function
  | Isa.Instr.Eq -> t.zf
  | Isa.Instr.Ne -> not t.zf
  | Isa.Instr.Lt -> t.sf
  | Isa.Instr.Le -> t.zf || t.sf
  | Isa.Instr.Gt -> (not t.zf) && not t.sf
  | Isa.Instr.Ge -> not t.sf
  | Isa.Instr.Ult -> t.cf
  | Isa.Instr.Uge -> not t.cf

let pc t = t.pc
let set_pc t v = t.pc <- v

let halted t = t.halted
let set_halted t v = t.halted <- v

let snapshot t =
  {
    regs = Array.copy t.regs;
    mem = Hashtbl.copy t.mem;
    zf = t.zf;
    sf = t.sf;
    cf = t.cf;
    pc = t.pc;
    halted = t.halted;
  }

let fold_mem t ~init ~f = Hashtbl.fold f t.mem init
