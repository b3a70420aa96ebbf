//===- brisc/CostModel.cpp - Decompressor working-set cost (W) ---------------===//
//
// Part of the ccomp project (PLDI'97 "Code Compression" reproduction).
//
//===----------------------------------------------------------------------===//

#include "brisc/CostModel.h"

#include "support/Support.h"

using namespace ccomp;
using namespace ccomp::brisc;
using vm::VMOp;

/// Per-opcode native sequence bytes. CISC numbers approximate Pentium
/// encodings (reg/mem forms, imm32 where needed); RISC numbers
/// approximate PowerPC 601 (4-byte words, low/high immediate pairs,
/// explicit compare + branch). The paper's own calibration point:
/// "enter" costs 17 bytes on Pentium and 28 on the 601.
static unsigned opBytes(VMOp Op, Target T) {
  bool C = T == Target::CISC;
  switch (Op) {
  case VMOp::LD_B: case VMOp::LD_BU: case VMOp::LD_H: case VMOp::LD_HU:
  case VMOp::LD_W:
    return C ? 4 : 8;
  case VMOp::ST_B: case VMOp::ST_H: case VMOp::ST_W:
    return C ? 4 : 8;
  case VMOp::ADD: case VMOp::SUB: case VMOp::AND: case VMOp::OR:
  case VMOp::XOR:
    return C ? 3 : 4;
  case VMOp::MUL:
    return C ? 4 : 4;
  case VMOp::DIV: case VMOp::DIVU: case VMOp::REM: case VMOp::REMU:
    return C ? 8 : 12; // Sign fixups / sequence around the divide.
  case VMOp::SLL: case VMOp::SRL: case VMOp::SRA:
    return C ? 4 : 4;
  case VMOp::ADDI: case VMOp::ANDI: case VMOp::ORI: case VMOp::XORI:
    return C ? 4 : 8;
  case VMOp::MULI:
    return C ? 6 : 8;
  case VMOp::SLLI: case VMOp::SRLI: case VMOp::SRAI:
    return C ? 3 : 4;
  case VMOp::MOV:
    return C ? 2 : 4;
  case VMOp::NEG: case VMOp::NOT:
    return C ? 2 : 4;
  case VMOp::SXTB: case VMOp::SXTH: case VMOp::ZXTB: case VMOp::ZXTH:
    return C ? 3 : 4;
  case VMOp::LI:
    return C ? 5 : 8;
  case VMOp::BEQ: case VMOp::BNE: case VMOp::BLT: case VMOp::BLE:
  case VMOp::BGT: case VMOp::BGE: case VMOp::BLTU: case VMOp::BLEU:
  case VMOp::BGTU: case VMOp::BGEU:
    return C ? 5 : 8; // cmp + jcc / cmp + bc.
  case VMOp::BEQI: case VMOp::BNEI: case VMOp::BLTI: case VMOp::BLEI:
  case VMOp::BGTI: case VMOp::BGEI: case VMOp::BLTUI: case VMOp::BLEUI:
  case VMOp::BGTUI: case VMOp::BGEUI:
    return C ? 7 : 12;
  case VMOp::JMP:
    return C ? 5 : 4;
  case VMOp::CALL:
    return C ? 5 : 4;
  case VMOp::RJR:
    return C ? 2 : 8; // mtlr + blr on the RISC side.
  case VMOp::ENTER:
    return C ? 17 : 28; // The paper's calibration numbers.
  case VMOp::EXIT:
    return C ? 12 : 20;
  case VMOp::SPILL: case VMOp::RELOAD:
    return C ? 4 : 8;
  case VMOp::EPI:
    return C ? 20 : 36;
  case VMOp::MCPY:
    return C ? 15 : 28;
  case VMOp::MSET:
    return C ? 12 : 24;
  case VMOp::SYS:
    return C ? 10 : 16;
  case VMOp::NumOps:
    break;
  }
  ccomp_unreachable("bad opcode in cost model");
}

unsigned brisc::nativeSeqBytes(const Pattern &P, Target T) {
  unsigned Bytes = 0;
  for (const SpecInstr &E : P.Elems)
    Bytes += opBytes(E.Op, T);
  return Bytes;
}
