//===- support/Huffman.cpp - Canonical Huffman coding --------------------===//
//
// Part of the ccomp project (PLDI'97 "Code Compression" reproduction).
//
//===----------------------------------------------------------------------===//

#include "support/Huffman.h"
#include "support/Error.h"
#include "support/Support.h"

#include <algorithm>
#include <array>
#include <cassert>
#include <iterator>
#include <queue>

using namespace ccomp;

std::vector<uint8_t>
ccomp::buildHuffmanLengths(const std::vector<uint64_t> &Freqs,
                           unsigned MaxLen) {
  const size_t N = Freqs.size();
  std::vector<uint8_t> Lengths(N, 0);

  // Collect live symbols.
  std::vector<unsigned> Live;
  for (unsigned I = 0; I != N; ++I)
    if (Freqs[I] != 0)
      Live.push_back(I);
  if (Live.empty())
    return Lengths;
  if (Live.size() == 1) {
    Lengths[Live[0]] = 1;
    return Lengths;
  }

  // Standard heap-based Huffman over internal nodes. Node indices < N are
  // leaves; >= N are internal.
  struct HeapEntry {
    uint64_t Freq;
    uint32_t Node;
    bool operator>(const HeapEntry &O) const {
      if (Freq != O.Freq)
        return Freq > O.Freq;
      return Node > O.Node; // Deterministic tie-break.
    }
  };
  std::priority_queue<HeapEntry, std::vector<HeapEntry>,
                      std::greater<HeapEntry>>
      Heap;
  std::vector<uint32_t> Parent(N + Live.size(), 0);
  for (unsigned S : Live)
    Heap.push({Freqs[S], S});
  uint32_t Next = N;
  while (Heap.size() > 1) {
    HeapEntry A = Heap.top();
    Heap.pop();
    HeapEntry B = Heap.top();
    Heap.pop();
    Parent[A.Node] = Next;
    Parent[B.Node] = Next;
    Heap.push({A.Freq + B.Freq, Next});
    ++Next;
  }
  uint32_t Root = Heap.top().Node;

  // Depth of each leaf = code length.
  std::vector<uint8_t> Depth(Next, 0);
  for (uint32_t I = Next; I-- > 0;) {
    if (I == Root)
      continue;
    if (I >= N || Freqs[I] != 0) {
      unsigned D = Depth[Parent[I]] + 1;
      Depth[I] = static_cast<uint8_t>(std::min<unsigned>(D, 255));
    }
  }
  for (unsigned S : Live)
    Lengths[S] = Depth[S];

  // Length-limit: clamp overlong codes to MaxLen, then restore the Kraft
  // equality by lengthening the cheapest short codes (zlib-style repair).
  bool Over = false;
  for (unsigned S : Live)
    if (Lengths[S] > MaxLen) {
      Lengths[S] = static_cast<uint8_t>(MaxLen);
      Over = true;
    }
  if (Over) {
    // Kraft sum in units of 2^-MaxLen.
    auto kraft = [&]() {
      uint64_t Sum = 0;
      for (unsigned S : Live)
        Sum += 1ull << (MaxLen - Lengths[S]);
      return Sum;
    };
    uint64_t Limit = 1ull << MaxLen;
    // While oversubscribed, lengthen a code that is currently shorter than
    // MaxLen, preferring the rarest symbol (costs the fewest output bits).
    while (kraft() > Limit) {
      unsigned Best = ~0u;
      for (unsigned S : Live)
        if (Lengths[S] < MaxLen &&
            (Best == ~0u || Freqs[S] < Freqs[Best]))
          Best = S;
      if (Best == ~0u)
        reportFatal("Huffman length limiting failed");
      ++Lengths[Best];
    }
    // If undersubscribed, shorten the most frequent MaxLen code; purely an
    // optimization, decodability does not require Kraft equality.
    for (;;) {
      uint64_t Sum = kraft();
      if (Sum >= Limit)
        break;
      unsigned Best = ~0u;
      for (unsigned S : Live) {
        if (Lengths[S] <= 1)
          continue;
        uint64_t Gain = 1ull << (MaxLen - Lengths[S]);
        if (Sum + Gain <= Limit && (Best == ~0u || Freqs[S] > Freqs[Best]))
          Best = S;
      }
      if (Best == ~0u)
        break;
      --Lengths[Best];
    }
  }
  return Lengths;
}

namespace {

/// Bit-reversal of every byte value.
constexpr std::array<uint8_t, 256> ReversedBytes = [] {
  std::array<uint8_t, 256> T{};
  for (unsigned B = 0; B != 256; ++B)
    for (unsigned I = 0; I != 8; ++I)
      T[B] |= static_cast<uint8_t>(((B >> I) & 1) << (7 - I));
  return T;
}();

/// The low 16 bits of \p V in reverse order.
uint32_t reverse16(uint32_t V) {
  return (uint32_t(ReversedBytes[V & 0xFF]) << 8) |
         ReversedBytes[(V >> 8) & 0xFF];
}

} // namespace

bool HuffmanCode::isValidLengthSet(const std::vector<uint8_t> &Lengths) {
  unsigned Max = 0;
  for (uint8_t L : Lengths)
    Max = std::max<unsigned>(Max, L);
  if (Max == 0 || Max > 31)
    return Max == 0; // Empty alphabet is trivially fine.
  uint64_t Sum = 0;
  for (uint8_t L : Lengths)
    if (L)
      Sum += 1ull << (Max - L);
  return Sum <= (1ull << Max);
}

HuffmanCode::HuffmanCode(std::vector<uint8_t> Lens)
    : Lengths(std::move(Lens)) {
  for (uint8_t L : Lengths)
    MaxLen = std::max<unsigned>(MaxLen, L);
  if (MaxLen > MaxCodeLen)
    reportFatal("HuffmanCode: code length out of range");
  if (Lengths.size() > (size_t(1) << (32 - EntryLenBits)))
    reportFatal("HuffmanCode: alphabet too large");
  PeekLen = std::max(MaxLen, PrimaryBits);
  for (uint8_t L : Lengths)
    if (L)
      ++CountOfLen[L];

  // Canonical first-code per length.
  uint32_t Code = 0, Index = 0;
  for (unsigned L = 1; L <= MaxLen; ++L) {
    Code = (Code + CountOfLen[L - 1]) << 1;
    FirstCode[L] = Code;
    FirstIndex[L] = Index;
    Index += CountOfLen[L];
    if (uint64_t(Code) + CountOfLen[L] > (uint64_t(1) << L))
      reportFatal("HuffmanCode: oversubscribed code lengths");
  }

  // Assign codes in (length, symbol) order; SortedSyms[FirstIndex[L] + k]
  // is the k-th symbol of length L. A code of at most PrimaryBits bits
  // fills every primary slot whose low L bits are its stream-order
  // (reversed) spelling.
  Codes.assign(Lengths.size(), 0);
  SortedSyms.assign(Index, 0);
  uint32_t NextCode[MaxCodeLen + 1];
  std::copy(std::begin(FirstCode), std::end(FirstCode), NextCode);
  for (unsigned S = 0; S != Lengths.size(); ++S) {
    unsigned L = Lengths[S];
    if (!L)
      continue;
    uint32_t C = NextCode[L]++;
    Codes[S] = C;
    SortedSyms[FirstIndex[L] + (C - FirstCode[L])] = S;
    if (L > PrimaryBits)
      continue;
    uint32_t Rev = reverse16(C) >> (16 - L);
    uint32_t Entry = (static_cast<uint32_t>(S) << EntryLenBits) | L;
    for (uint32_t I = Rev; I < PrimarySize; I += 1u << L)
      Primary[I] = Entry;
  }
}

void HuffmanCode::encode(BitWriter &BW, unsigned Sym) const {
  // Encoding a symbol with no code is a caller bug; diagnose it in every
  // build type (an assert alone would silently emit zero bits in NDEBUG
  // builds, producing an undecodable stream).
  if (Sym >= Lengths.size() || !Lengths[Sym])
    reportFatal("HuffmanCode: encoding a symbol with no code");
  BW.writeCodeMSB(Codes[Sym], Lengths[Sym]);
}

uint32_t HuffmanCode::decodeLong(uint32_t Bits) const {
  uint32_t Code = 0;
  for (unsigned L = 1; L <= MaxLen; ++L) {
    Code = (Code << 1) | ((Bits >> (L - 1)) & 1);
    if (Code - FirstCode[L] < CountOfLen[L])
      return (SortedSyms[FirstIndex[L] + (Code - FirstCode[L])]
              << EntryLenBits) |
             L;
  }
  return 0;
}

void HuffmanCode::failInvalidCode() {
  decodeFail("HuffmanCode: invalid code in stream");
}

uint64_t HuffmanCode::costBits(const std::vector<uint64_t> &Freqs) const {
  uint64_t Bits = 0;
  for (unsigned S = 0; S != Freqs.size() && S != Lengths.size(); ++S)
    Bits += Freqs[S] * Lengths[S];
  return Bits;
}
