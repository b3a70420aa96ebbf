//===- vm/Machine.cpp - VM state and interpreter ----------------------------===//
//
// Part of the ccomp project (PLDI'97 "Code Compression" reproduction).
//
//===----------------------------------------------------------------------===//

#include "vm/Machine.h"

#include "support/Support.h"

#include <cstring>

using namespace ccomp;
using namespace ccomp::vm;

FunctionResolver::~FunctionResolver() = default;

bool FunctionResolver::enterNative(Machine &, uint32_t &, uint32_t &,
                                   uint64_t &) {
  return false; // Default tier: interpret everything.
}

bool FunctionResolver::resolveSpan(uint32_t Fn, uint32_t Idx, CodeSpan &Out,
                                   std::string &Err) {
  (void)Idx; // Whole-function resolvers serve every index from one span.
  std::shared_ptr<const VMFunction> H = resolve(Fn, Err);
  if (!H)
    return false;
  Out.Code = H->Code.data();
  Out.Begin = 0;
  Out.End = static_cast<uint32_t>(H->Code.size());
  Out.FuncLen = Out.End;
  Out.Labels = &H->LabelPos;
  Out.Name = &H->Name;
  Out.Keep = std::move(H);
  return true;
}

Machine::Machine(const VMProgram &P, RunOptions Options)
    : Prog(P), Opts(Options) {
  resetState();
}

void Machine::resetState() {
  Mem.assign(Opts.MemBytes, 0);
  for (const VMGlobal &G : Prog.Globals) {
    if (G.Addr + G.Size > Mem.size()) {
      trap("global '" + G.Name + "' does not fit in memory");
      return;
    }
    if (!G.Init.empty())
      std::memcpy(Mem.data() + G.Addr, G.Init.data(), G.Init.size());
  }
  HeapPtr = (Prog.GlobalEnd + 15) & ~15u;
  for (uint32_t &V : R)
    V = 0;
  R[SP] = static_cast<uint32_t>(Mem.size()) & ~15u;
  R[RA] = HaltRA;
}

uint32_t Machine::load(uint32_t Addr, unsigned Size, bool SignExtend) {
  if (Addr < 0x100 || Addr + Size > Mem.size()) {
    trap("load of " + std::to_string(Size) + " bytes at " +
         std::to_string(Addr) + " out of range");
    return 0;
  }
  uint32_t V = 0;
  std::memcpy(&V, Mem.data() + Addr, Size);
  if (SignExtend) {
    if (Size == 1)
      V = static_cast<uint32_t>(static_cast<int32_t>(static_cast<int8_t>(V)));
    else if (Size == 2)
      V = static_cast<uint32_t>(
          static_cast<int32_t>(static_cast<int16_t>(V)));
  }
  return V;
}

void Machine::store(uint32_t Addr, unsigned Size, uint32_t V) {
  if (Addr < 0x100 || Addr + Size > Mem.size()) {
    trap("store of " + std::to_string(Size) + " bytes at " +
         std::to_string(Addr) + " out of range");
    return;
  }
  std::memcpy(Mem.data() + Addr, &V, Size);
}

bool Machine::dataStep(const Instr &In) {
  uint32_t *Regs = R;
  auto S32 = [](uint32_t V) { return static_cast<int32_t>(V); };
  switch (In.Op) {
  case VMOp::LD_B:
    setReg(In.Rd, load(Regs[In.Rs1] + In.Imm, 1, true));
    return true;
  case VMOp::LD_BU:
    setReg(In.Rd, load(Regs[In.Rs1] + In.Imm, 1, false));
    return true;
  case VMOp::LD_H:
    setReg(In.Rd, load(Regs[In.Rs1] + In.Imm, 2, true));
    return true;
  case VMOp::LD_HU:
    setReg(In.Rd, load(Regs[In.Rs1] + In.Imm, 2, false));
    return true;
  case VMOp::LD_W:
    setReg(In.Rd, load(Regs[In.Rs1] + In.Imm, 4, false));
    return true;
  case VMOp::ST_B:
    store(Regs[In.Rs1] + In.Imm, 1, Regs[In.Rd]);
    return true;
  case VMOp::ST_H:
    store(Regs[In.Rs1] + In.Imm, 2, Regs[In.Rd]);
    return true;
  case VMOp::ST_W:
    store(Regs[In.Rs1] + In.Imm, 4, Regs[In.Rd]);
    return true;

  case VMOp::ADD: setReg(In.Rd, Regs[In.Rs1] + Regs[In.Rs2]); return true;
  case VMOp::SUB: setReg(In.Rd, Regs[In.Rs1] - Regs[In.Rs2]); return true;
  case VMOp::MUL: setReg(In.Rd, Regs[In.Rs1] * Regs[In.Rs2]); return true;
  case VMOp::DIV: {
    int32_t D = S32(Regs[In.Rs2]);
    if (D == 0 || (S32(Regs[In.Rs1]) == INT32_MIN && D == -1)) {
      trap("integer division overflow");
      return true;
    }
    setReg(In.Rd, static_cast<uint32_t>(S32(Regs[In.Rs1]) / D));
    return true;
  }
  case VMOp::DIVU:
    if (Regs[In.Rs2] == 0) {
      trap("unsigned division by zero");
      return true;
    }
    setReg(In.Rd, Regs[In.Rs1] / Regs[In.Rs2]);
    return true;
  case VMOp::REM: {
    int32_t D = S32(Regs[In.Rs2]);
    if (D == 0 || (S32(Regs[In.Rs1]) == INT32_MIN && D == -1)) {
      trap("integer remainder overflow");
      return true;
    }
    setReg(In.Rd, static_cast<uint32_t>(S32(Regs[In.Rs1]) % D));
    return true;
  }
  case VMOp::REMU:
    if (Regs[In.Rs2] == 0) {
      trap("unsigned remainder by zero");
      return true;
    }
    setReg(In.Rd, Regs[In.Rs1] % Regs[In.Rs2]);
    return true;
  case VMOp::AND: setReg(In.Rd, Regs[In.Rs1] & Regs[In.Rs2]); return true;
  case VMOp::OR:  setReg(In.Rd, Regs[In.Rs1] | Regs[In.Rs2]); return true;
  case VMOp::XOR: setReg(In.Rd, Regs[In.Rs1] ^ Regs[In.Rs2]); return true;
  case VMOp::SLL:
    setReg(In.Rd, Regs[In.Rs1] << (Regs[In.Rs2] & 31));
    return true;
  case VMOp::SRL:
    setReg(In.Rd, Regs[In.Rs1] >> (Regs[In.Rs2] & 31));
    return true;
  case VMOp::SRA:
    setReg(In.Rd,
           static_cast<uint32_t>(S32(Regs[In.Rs1]) >> (Regs[In.Rs2] & 31)));
    return true;

  case VMOp::ADDI:
    setReg(In.Rd, Regs[In.Rs1] + static_cast<uint32_t>(In.Imm));
    return true;
  case VMOp::MULI:
    setReg(In.Rd, Regs[In.Rs1] * static_cast<uint32_t>(In.Imm));
    return true;
  case VMOp::ANDI:
    setReg(In.Rd, Regs[In.Rs1] & static_cast<uint32_t>(In.Imm));
    return true;
  case VMOp::ORI:
    setReg(In.Rd, Regs[In.Rs1] | static_cast<uint32_t>(In.Imm));
    return true;
  case VMOp::XORI:
    setReg(In.Rd, Regs[In.Rs1] ^ static_cast<uint32_t>(In.Imm));
    return true;
  case VMOp::SLLI: setReg(In.Rd, Regs[In.Rs1] << (In.Imm & 31)); return true;
  case VMOp::SRLI: setReg(In.Rd, Regs[In.Rs1] >> (In.Imm & 31)); return true;
  case VMOp::SRAI:
    setReg(In.Rd, static_cast<uint32_t>(S32(Regs[In.Rs1]) >> (In.Imm & 31)));
    return true;

  case VMOp::MOV: setReg(In.Rd, Regs[In.Rs1]); return true;
  case VMOp::NEG: setReg(In.Rd, 0u - Regs[In.Rs1]); return true;
  case VMOp::NOT: setReg(In.Rd, ~Regs[In.Rs1]); return true;
  case VMOp::SXTB:
    setReg(In.Rd, static_cast<uint32_t>(
                      static_cast<int32_t>(static_cast<int8_t>(Regs[In.Rs1]))));
    return true;
  case VMOp::SXTH:
    setReg(In.Rd,
           static_cast<uint32_t>(
               static_cast<int32_t>(static_cast<int16_t>(Regs[In.Rs1]))));
    return true;
  case VMOp::ZXTB: setReg(In.Rd, Regs[In.Rs1] & 0xFF); return true;
  case VMOp::ZXTH: setReg(In.Rd, Regs[In.Rs1] & 0xFFFF); return true;

  case VMOp::LI:
    setReg(In.Rd, static_cast<uint32_t>(In.Imm));
    return true;

  case VMOp::ENTER:
    setReg(SP, R[SP] - static_cast<uint32_t>(In.Imm));
    return true;
  case VMOp::EXIT:
    setReg(SP, R[SP] + static_cast<uint32_t>(In.Imm));
    return true;
  case VMOp::SPILL:
    store(R[SP] + In.Imm, 4, Regs[In.Rd]);
    return true;
  case VMOp::RELOAD:
    setReg(In.Rd, load(R[SP] + In.Imm, 4, false));
    return true;

  case VMOp::MCPY: {
    uint32_t Dst = Regs[In.Rd], Src = Regs[In.Rs1];
    uint32_t Len = static_cast<uint32_t>(In.Imm);
    if (Dst < 0x100 || Src < 0x100 || Dst + Len > Mem.size() ||
        Src + Len > Mem.size()) {
      trap("mcpy out of range");
      return true;
    }
    std::memmove(Mem.data() + Dst, Mem.data() + Src, Len);
    return true;
  }
  case VMOp::MSET: {
    uint32_t Dst = Regs[In.Rd];
    uint32_t Len = static_cast<uint32_t>(In.Imm);
    if (Dst < 0x100 || Dst + Len > Mem.size()) {
      trap("mset out of range");
      return true;
    }
    std::memset(Mem.data() + Dst, static_cast<int>(Regs[In.Rs1] & 0xFF),
                Len);
    return true;
  }

  case VMOp::SYS:
    doSys(In.Imm);
    return true;

  default:
    return false; // Control-flow instruction.
  }
}

bool Machine::branchTaken(const Instr &In) const {
  auto S32 = [](uint32_t V) { return static_cast<int32_t>(V); };
  uint32_t A = R[In.Rs1];
  uint32_t B;
  if (isBranchImm(In.Op))
    B = static_cast<uint32_t>(In.Imm);
  else
    B = R[In.Rs2];
  switch (In.Op) {
  case VMOp::BEQ: case VMOp::BEQI: return A == B;
  case VMOp::BNE: case VMOp::BNEI: return A != B;
  case VMOp::BLT: case VMOp::BLTI: return S32(A) < S32(B);
  case VMOp::BLE: case VMOp::BLEI: return S32(A) <= S32(B);
  case VMOp::BGT: case VMOp::BGTI: return S32(A) > S32(B);
  case VMOp::BGE: case VMOp::BGEI: return S32(A) >= S32(B);
  case VMOp::BLTU: case VMOp::BLTUI: return A < B;
  case VMOp::BLEU: case VMOp::BLEUI: return A <= B;
  case VMOp::BGTU: case VMOp::BGTUI: return A > B;
  case VMOp::BGEU: case VMOp::BGEUI: return A >= B;
  default:
    ccomp_unreachable("not a conditional branch");
  }
}

void Machine::doSys(int32_t Id) {
  switch (static_cast<Sys>(Id)) {
  case Sys::Exit:
    Halted = true;
    Exit = static_cast<int32_t>(R[N0]);
    return;
  case Sys::PutInt:
    Out += std::to_string(static_cast<int32_t>(R[N0]));
    return;
  case Sys::PutChar:
    Out.push_back(static_cast<char>(R[N0] & 0xFF));
    return;
  case Sys::PutStr: {
    uint32_t Addr = R[N0];
    unsigned Guard = 0;
    while (Addr >= 0x100 && Addr < Mem.size() && Mem[Addr] != 0 &&
           Guard++ < (1u << 20))
      Out.push_back(static_cast<char>(Mem[Addr++]));
    return;
  }
  case Sys::Alloc: {
    uint32_t Bytes = (R[N0] + 7) & ~7u;
    // The heap grows toward the stack; leave a 64 KiB safety gap.
    if (HeapPtr + Bytes + 65536 > R[SP]) {
      trap("out of heap memory");
      return;
    }
    uint32_t Addr = HeapPtr;
    HeapPtr += Bytes;
    setReg(N0, Addr);
    return;
  }
  }
  trap("unknown system call " + std::to_string(Id));
}

void Machine::touchCode(uint32_t Fn, uint32_t Idx) {
  if (!Opts.Layout)
    return;
  const CodeLayout &L = *Opts.Layout;
  uint32_t Off = L.FuncBase[Fn] + L.InstrOff[Fn][Idx];
  uint32_t Page = Off / Opts.PageSize;
  if (Page == LastPage)
    return;
  LastPage = Page;
  if (Page >= PageSeen.size())
    PageSeen.resize(Page + 1, 0);
  PageSeen[Page] = 1;
  if (PageTrace.size() < Opts.MaxPageTrace)
    PageTrace.push_back(Page);
}

uint64_t Machine::pagesTouched() const {
  uint64_t N = 0;
  for (uint8_t B : PageSeen)
    N += B;
  return N;
}

uint32_t Machine::execEpi(const FuncMeta &Meta) {
  for (const FuncMeta::Save &S : Meta.Saves)
    setReg(S.Reg, load(R[SP] + S.Off, 4, false));
  setReg(SP, R[SP] + Meta.FrameSize);
  return R[RA];
}

RunResult Machine::run() {
  RunResult Res;
  if (Trapped) {
    Res.Trap = TrapMsg;
    return Res;
  }
  FunctionResolver *Rv = Opts.Resolver;
  const uint32_t FnCount =
      Rv ? Rv->functionCount() : static_cast<uint32_t>(Prog.Functions.size());
  if (FnCount == 0) {
    Res.Trap = "empty program";
    return Res;
  }

  // Per-function EPI metadata, derived on first entry so a resolver-fed
  // run only pays for functions it actually executes.
  std::vector<FuncMeta> Metas(FnCount);
  std::vector<uint8_t> MetaKnown(FnCount, 0);

  uint32_t Fn = Prog.Entry;
  uint32_t Pc = 0;
  uint64_t Steps = 0;

  // The span of code currently executing. Without a resolver (or with a
  // whole-function one) this is the entire body; a page-granular
  // resolver hands out one decoded page at a time, and Span.Keep pins
  // exactly that page while control stays inside it. Any transfer that
  // leaves the span — call, return, a branch to a cold page, or
  // fallthrough off the page's end — re-resolves, so evicted code
  // faults back in at the resolver's granularity.
  CodeSpan Span;
  auto Resolve = [&](uint32_t Id, uint32_t Idx, CodeSpan &Out) -> bool {
    if (!Rv) {
      const VMFunction &Body = Prog.Functions[Id];
      Out = CodeSpan();
      Out.Code = Body.Code.data();
      Out.Begin = 0;
      Out.End = static_cast<uint32_t>(Body.Code.size());
      Out.FuncLen = Out.End;
      Out.Labels = &Body.LabelPos;
      Out.Name = &Body.Name;
      return true;
    }
    std::string Err;
    Out = CodeSpan();
    if (!Rv->resolveSpan(Id, Idx, Out, Err)) {
      trap("resolve function " + std::to_string(Id) + ": " + Err);
      return false;
    }
    return true;
  };
  auto Enter = [&](uint32_t NewFn, uint32_t NewPc) -> bool {
    // A tiering resolver may run hot functions on a faster backend:
    // each time control leaves the fast tier at a cross-function
    // transfer, the hook is consulted again with the new target, until
    // the target is cold (the hook declines) or the run ended inside
    // the tier.
    for (;;) {
      if (NewFn >= FnCount) {
        trap("transfer to unknown function " + std::to_string(NewFn));
        return false;
      }
      if (!Rv || !Rv->enterNative(*this, NewFn, NewPc, Steps))
        break;
      if (Halted || Trapped) {
        // The main loop observes the halt/trap; no span is needed.
        Fn = NewFn;
        Pc = NewPc;
        return true;
      }
    }
    if (!Resolve(NewFn, NewPc, Span))
      return false;
    Fn = NewFn;
    Pc = NewPc;
    return true;
  };
  // EPI metadata scan: walk the prologue (ENTER at instruction 0, then
  // SPILLs) across spans, so a page-granular resolver only decodes the
  // page(s) the prologue occupies. Reuses the executing span when it
  // already covers the scan position. Null on a resolve failure (trap
  // is already set).
  auto MetaOf = [&](uint32_t Id) -> const FuncMeta * {
    if (MetaKnown[Id])
      return &Metas[Id];
    FuncMeta M;
    uint32_t I = 0;
    bool More = true;
    while (More) {
      CodeSpan Local;
      const CodeSpan *S;
      if (Id == Fn && Span.contains(I)) {
        S = &Span;
      } else {
        if (!Resolve(Id, I, Local))
          return nullptr;
        S = &Local;
      }
      More = false;
      while (I < S->End) {
        const Instr &In = S->Code[I - S->Begin];
        if (I == 0 && In.Op == VMOp::ENTER) {
          M.FrameSize = static_cast<uint32_t>(In.Imm);
          ++I;
          continue;
        }
        if (In.Op == VMOp::SPILL) {
          M.Saves.push_back({In.Rd, In.Imm});
          ++I;
          continue;
        }
        break; // First non-prologue instruction ends the scan.
      }
      // The prologue ran to the span's edge with function left to scan.
      if (I == S->End && I < S->FuncLen)
        More = true;
    }
    Metas[Id] = std::move(M);
    MetaKnown[Id] = 1;
    return &Metas[Id];
  };

  if (!Enter(Fn, 0)) {
    Res.Trap = TrapMsg;
    return Res;
  }

  while (!Halted && !Trapped) {
    if (!Span.contains(Pc)) {
      if (Pc >= Span.FuncLen) {
        trap("fell off the end of function " +
             (Span.Name ? *Span.Name : std::string("?")));
        break;
      }
      // Pc is a valid instruction outside the resident span: a page
      // fault. Re-resolve; the resolver decodes just that page.
      if (!Resolve(Fn, Pc, Span))
        break;
      if (!Span.contains(Pc)) {
        trap("resolver span does not cover instruction " +
             std::to_string(Pc));
        break;
      }
    }
    if (++Steps > Opts.MaxSteps) {
      trap("step limit exceeded");
      break;
    }
    touchCode(Fn, Pc);
    const Instr &In = Span.Code[Pc - Span.Begin];
    if (dataStep(In)) {
      ++Pc;
      continue;
    }
    switch (In.Op) {
    case VMOp::JMP:
      Pc = (*Span.Labels)[In.Target];
      break;
    case VMOp::BEQ: case VMOp::BNE: case VMOp::BLT: case VMOp::BLE:
    case VMOp::BGT: case VMOp::BGE: case VMOp::BLTU: case VMOp::BLEU:
    case VMOp::BGTU: case VMOp::BGEU:
    case VMOp::BEQI: case VMOp::BNEI: case VMOp::BLTI: case VMOp::BLEI:
    case VMOp::BGTI: case VMOp::BGEI: case VMOp::BLTUI: case VMOp::BLEUI:
    case VMOp::BGTUI: case VMOp::BGEUI:
      Pc = branchTaken(In) ? (*Span.Labels)[In.Target] : Pc + 1;
      break;
    case VMOp::CALL: {
      // Copy the target out first: Enter() releases the current span,
      // and In points into it.
      uint32_t Callee = In.Target;
      setReg(RA, encodeRet(Fn, Pc + 1));
      Enter(Callee, 0);
      break;
    }
    case VMOp::RJR: {
      uint32_t Addr = R[In.Rd]; // RJR's single register field lives in Rd.
      if (Addr == HaltRA) {
        Halted = true;
        Exit = static_cast<int32_t>(R[N0]);
        break;
      }
      if (!(Addr & 0x80000000u)) {
        trap("rjr through non-code address");
        break;
      }
      Enter(retFunc(Addr), retIdx(Addr));
      break;
    }
    case VMOp::EPI: {
      const FuncMeta *Meta = MetaOf(Fn);
      if (!Meta)
        break; // Trapped while resolving the prologue.
      uint32_t Addr = execEpi(*Meta);
      if (Addr == HaltRA) {
        Halted = true;
        Exit = static_cast<int32_t>(R[N0]);
        break;
      }
      if (!(Addr & 0x80000000u)) {
        trap("epi return through non-code address");
        break;
      }
      Enter(retFunc(Addr), retIdx(Addr));
      break;
    }
    default:
      trap("unhandled opcode in interpreter");
      break;
    }
  }

  Res.Ok = !Trapped;
  Res.ExitCode = Exit;
  Res.Steps = Steps;
  Res.Trap = TrapMsg;
  Res.Output = Out;
  Res.PagesTouched = pagesTouched();
  Res.PageTrace = PageTrace;
  return Res;
}

RunResult vm::runProgram(const VMProgram &P, RunOptions Opts) {
  Machine M(P, Opts);
  return M.run();
}
