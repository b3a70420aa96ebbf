//===- brisc/CostModel.h - Decompressor working-set cost (W) ----*- C++ -*-===//
//
// Part of the ccomp project (PLDI'97 "Code Compression" reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The W term of the paper's benefit metric B = P - W: every dictionary
/// entry costs decompressor memory for its native code-generation table
/// entry. The paper averages the Pentium and PowerPC 601 sequence sizes;
/// we model two analogous targets (a variable-length CISC and a
/// fixed-width RISC) with per-opcode byte costs.
///
//===----------------------------------------------------------------------===//

#ifndef CCOMP_BRISC_COSTMODEL_H
#define CCOMP_BRISC_COSTMODEL_H

#include "brisc/Pattern.h"

namespace ccomp {
namespace brisc {

/// Code-generation targets whose table sizes feed W.
enum class Target : uint8_t {
  CISC, ///< Pentium-like: variable-length, compact ALU ops.
  RISC, ///< PowerPC-601-like: fixed 4-byte words, two-op immediates.
};

/// Native instruction bytes the decompressor's table holds for one
/// pattern on \p T (burned-in operands are part of the sequence).
unsigned nativeSeqBytes(const Pattern &P, Target T);

/// The averaged W (plus the fixed per-entry table header) of a pattern
/// whose native sequences total \p BothTargetsBytes:
/// nativeSeqBytes(P, CISC) + nativeSeqBytes(P, RISC). The total adds up
/// over elements, so a combination's W follows from its parts' totals.
inline unsigned workingSetCost(unsigned BothTargetsBytes) {
  // Average of the two targets plus the fixed table-entry header
  // (pointer + length in the decompressor's dispatch table).
  return BothTargetsBytes / 2 + 6;
}

} // namespace brisc
} // namespace ccomp

#endif // CCOMP_BRISC_COSTMODEL_H
