type t = {
  regs : int array;
  mem : Int_table.t; (* a shadow holds only its own stores here *)
  parent : t option; (* a shadow's loads that miss [mem] fall through to it *)
  mutable zf : bool;
  mutable sf : bool;
  mutable cf : bool;
  mutable pc : int;
  mutable halted : bool;
}

(* The default stack top sits at LLC set 27, away from the set-0-aligned
   regions the cache-attack workloads monitor.  [regs] has one slot past
   the registers, which nothing writes. *)
let create ?(stack_top = 0x7FFF_0000 + (27 * 64)) () =
  let regs = Array.make (Isa.Reg.count + 1) 0 in
  regs.(Isa.Reg.index Isa.Reg.RSP) <- stack_top;
  { regs; mem = Int_table.create 128; parent = None; zf = false; sf = false;
    cf = false; pc = 0; halted = false }

let get_reg t r = t.regs.(Isa.Reg.index r)
let set_reg t r v = t.regs.(Isa.Reg.index r) <- v
let slot t i = t.regs.(i)
let set_slot t i v = t.regs.(i) <- v

let rec load t addr =
  match t.parent with
  | Some p when not (Int_table.mem t.mem addr) -> load p addr
  | _ -> Int_table.find t.mem addr ~default:0
let store t addr v = Int_table.replace t.mem addr v

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

let fork s =
  match s.parent with
  | None -> invalid_arg "Machine.fork: not a shadow"
  | Some p ->
    Array.blit p.regs 0 s.regs 0 (Array.length p.regs);
    Int_table.clear s.mem;
    set_flags s ~zf:p.zf ~sf:p.sf ~cf:p.cf;
    s.pc <- p.pc;
    s.halted <- p.halted

let shadow t =
  if Option.is_some t.parent then invalid_arg "Machine.shadow: nested shadow";
  { t with regs = Array.copy t.regs; mem = Int_table.create 16; parent = Some t }

let rec fold_mem t ~init ~f =
  let own = Int_table.fold f t.mem init in
  match t.parent with
  | None -> own
  | Some p ->
    fold_mem p ~init:own ~f:(fun a v acc -> if Int_table.mem t.mem a then acc else f a v acc)
