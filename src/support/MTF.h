//===- support/MTF.h - Move-to-front coding ---------------------*- C++ -*-===//
//
// Part of the ccomp project (PLDI'97 "Code Compression" reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Move-to-front coding (Bentley/Sleator/Tarjan/Wei; Elias) as used by
/// step 3 of the paper's wire format: each stream is MTF-coded in
/// isolation, index 0 denotes a symbol not seen previously (followed by
/// the symbol itself), and indices >= 1 address the dynamic table whose
/// front element is the most recently accessed symbol.
///
//===----------------------------------------------------------------------===//

#ifndef CCOMP_SUPPORT_MTF_H
#define CCOMP_SUPPORT_MTF_H

#include "support/Error.h"
#include "support/Support.h"

#include <cstdint>
#include <cstring>
#include <string>
#include <type_traits>
#include <vector>

namespace ccomp {

/// One MTF output token. Index 0 means "new symbol"; the symbol value
/// rides along. Index >= 1 addresses the table (1 = front).
struct MTFToken {
  uint32_t Index = 0;
  uint64_t NewSymbol = 0;
};

/// Stateful MTF encoder over arbitrary 64-bit symbols.
class MTFEncoder {
public:
  MTFToken encode(uint64_t Sym) {
    for (size_t I = 0; I != Table.size(); ++I) {
      if (Table[I] != Sym)
        continue;
      // Move to front.
      Table.erase(Table.begin() + I);
      Table.insert(Table.begin(), Sym);
      return {static_cast<uint32_t>(I + 1), 0};
    }
    Table.insert(Table.begin(), Sym);
    return {0, Sym};
  }

  size_t tableSize() const { return Table.size(); }

private:
  std::vector<uint64_t> Table;
};

/// Stateful MTF decoder mirroring MTFEncoder, over unsigned symbols of
/// type \p SymT (uint64_t for the wire and brisc-ctx streams, uint8_t for
/// bwt-dict's byte column).
///
/// The decoder runs over attacker-controlled streams, and the encoder
/// never emits Index==0 twice for the same symbol (a seen symbol is
/// always addressed through the table). Both facts are enforced here:
/// a duplicate "new symbol" token and a table grown past the cap are
/// typed DecodeErrors, so a hostile stream of repeated Index==0 tokens
/// cannot balloon the table into a memory bomb. The duplicate check is
/// folded into the shift that makes room for a new symbol, so it costs
/// no pass of its own and no allocation.
template <typename SymT = uint64_t> class MTFDecoder {
  static_assert(std::is_unsigned_v<SymT>, "MTF symbols are unsigned");

public:
  /// Any legitimate stream in this codebase stays far below this; it
  /// exists to bound memory on corrupt input, not to limit alphabets.
  static constexpr size_t DefaultMaxTable = size_t(1) << 20;

  explicit MTFDecoder(size_t MaxTable = DefaultMaxTable)
      : MaxTable(MaxTable) {
    Table.reserve(InitialTableBytes / sizeof(SymT));
  }

  /// Decodes one token. \p NewSymbol is consulted only when Index == 0.
  /// Throws DecodeError on an index past the table, a duplicate new
  /// symbol, or a table past its cap (all corrupt-stream shapes); the
  /// table is unspecified after a throw.
  SymT decode(uint32_t Index, SymT NewSymbol) {
    if (Index == 0)
      return addNew(NewSymbol);
    if (Index > Table.size())
      decodeFail("MTFDecoder: index out of range");
    SymT *T = Table.data();
    SymT Sym = T[Index - 1];
    std::memmove(T + 1, T, (Index - 1) * sizeof(SymT));
    T[0] = Sym;
    return Sym;
  }

  size_t tableSize() const { return Table.size(); }

private:
  /// Up-front table storage: a whole byte alphabet, so bwt-dict's table
  /// never regrows.
  static constexpr size_t InitialTableBytes = 256;

  /// Inserts \p NewSymbol at the front. The shift that makes room also
  /// checks each entry it moves against the newcomer.
  SymT addNew(SymT NewSymbol) {
    size_t Size = Table.size();
    if (Size >= MaxTable)
      decodeFail("MTFDecoder: table size cap of " + std::to_string(MaxTable) +
                 " exceeded");
    Table.push_back(SymT());
    SymT *T = Table.data();
    SymT Carry = NewSymbol;
    for (size_t I = 0; I != Size; ++I) {
      SymT Cur = T[I];
      if (Cur == NewSymbol)
        decodeFail("MTFDecoder: duplicate new-symbol token");
      T[I] = Carry;
      Carry = Cur;
    }
    T[Size] = Carry;
    return NewSymbol;
  }

  size_t MaxTable;
  std::vector<SymT> Table; // Most recent first.
};

} // namespace ccomp

#endif // CCOMP_SUPPORT_MTF_H
