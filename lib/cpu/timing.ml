let mispredict_penalty = 15

let cost = function
  | Isa.Instr.Imul _ -> 3
  | Isa.Instr.Mfence | Isa.Instr.Lfence | Isa.Instr.Cpuid -> 20
  | Isa.Instr.Rdtsc | Isa.Instr.Rdtscp -> 25
  | Isa.Instr.Jmp _ | Isa.Instr.Jcc _ | Isa.Instr.Call _ | Isa.Instr.Ret
  | Isa.Instr.Nop | Isa.Instr.Halt
  | Isa.Instr.Mov _ | Isa.Instr.Lea _ | Isa.Instr.Add _ | Isa.Instr.Sub _
  | Isa.Instr.Xor _ | Isa.Instr.And _ | Isa.Instr.Or _ | Isa.Instr.Shl _
  | Isa.Instr.Shr _ | Isa.Instr.Inc _ | Isa.Instr.Dec _ | Isa.Instr.Cmp _
  | Isa.Instr.Test _ | Isa.Instr.Push _ | Isa.Instr.Pop _
  | Isa.Instr.Clflush _ | Isa.Instr.Prefetch _ -> 1
