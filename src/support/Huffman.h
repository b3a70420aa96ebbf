//===- support/Huffman.h - Canonical Huffman coding ------------*- C++ -*-===//
//
// Part of the ccomp project (PLDI'97 "Code Compression" reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Canonical Huffman coding with a configurable maximum code length.
/// The paper's wire format Huffman-codes MTF indices (step 4 of the
/// pipeline in section 3) and the flate compressor uses the same coder
/// for its literal/length and distance alphabets.
///
//===----------------------------------------------------------------------===//

#ifndef CCOMP_SUPPORT_HUFFMAN_H
#define CCOMP_SUPPORT_HUFFMAN_H

#include "support/BitStream.h"

#include <cstdint>
#include <vector>

namespace ccomp {

/// Computes length-limited canonical Huffman code lengths for \p Freqs.
///
/// Symbols with zero frequency get length 0 (no code). If only one symbol
/// has nonzero frequency it is assigned length 1 so the stream remains
/// decodable. Lengths never exceed \p MaxLen (overlong codes are adjusted
/// with the standard zlib-style rebalancing).
std::vector<uint8_t> buildHuffmanLengths(const std::vector<uint64_t> &Freqs,
                                         unsigned MaxLen = 15);

/// A canonical Huffman code built from code lengths, usable for both
/// encoding and decoding. Codes are assigned in the canonical order:
/// shorter codes first, ties broken by symbol index.
///
/// Decoding peeks max(MaxLen, PrimaryBits) bits and looks the low
/// PrimaryBits of them up in a fixed-size table mapping every
/// LSB-first prefix to (symbol, length). Codes longer than the table
/// fall back to a canonical walk over the bits already peeked. All
/// decode tables are member arrays, so building a code allocates
/// nothing beyond Lengths, Codes and SortedSyms.
class HuffmanCode {
public:
  /// Builds the canonical code. Invalid (oversubscribed) length sets are a
  /// fatal error for lengths produced internally; use isValidLengthSet()
  /// first when the lengths come from an untrusted container.
  explicit HuffmanCode(std::vector<uint8_t> Lengths);

  /// Returns true if \p Lengths forms a decodable (not oversubscribed)
  /// canonical code.
  static bool isValidLengthSet(const std::vector<uint8_t> &Lengths);

  /// Writes the code for \p Sym to \p BW. \p Sym must have a code;
  /// encoding a codeless symbol is a fatal error in every build type.
  void encode(BitWriter &BW, unsigned Sym) const;

  /// Reads one symbol from \p BR. Throws DecodeError on a bit pattern
  /// that is not a valid code (corrupt stream) or a code cut short by
  /// the end of the stream.
  unsigned decode(BitReader &BR) const {
    uint32_t Bits = BR.peekBits(PeekLen);
    uint32_t E = Primary[Bits & (PrimarySize - 1)];
    if (!(E & EntryLenMask)) {
      E = decodeLong(Bits);
      if (!E) {
        // No code starts with these bits. Consuming the window first
        // reports a stream that ends inside it as truncated, as a
        // bit-at-a-time walk would.
        BR.consume(MaxLen);
        failInvalidCode();
      }
    }
    BR.consume(E & EntryLenMask);
    return E >> EntryLenBits;
  }

  unsigned numSymbols() const { return Lengths.size(); }
  uint8_t lengthOf(unsigned Sym) const { return Lengths[Sym]; }
  const std::vector<uint8_t> &lengths() const { return Lengths; }

  /// Total encoded bit count if symbol \p Sym occurs Freqs[Sym] times.
  uint64_t costBits(const std::vector<uint64_t> &Freqs) const;

  /// Width of the primary decode table's index.
  static constexpr unsigned PrimaryBits = 8;

private:
  static constexpr unsigned PrimarySize = 1u << PrimaryBits;
  /// Longest code isValidLengthSet() accepts.
  static constexpr unsigned MaxCodeLen = 31;
  /// An entry packs (symbol << EntryLenBits) | length. In the primary
  /// table, length 0 marks a prefix with no code of at most PrimaryBits
  /// bits.
  static constexpr unsigned EntryLenBits = 5;
  static constexpr uint32_t EntryLenMask = (1u << EntryLenBits) - 1;

  /// The canonical walk over the PeekLen peeked \p Bits, for codes longer
  /// than PrimaryBits: returns the entry of the code they start with, or 0
  /// if no code does.
  uint32_t decodeLong(uint32_t Bits) const;
  [[noreturn]] static void failInvalidCode();

  std::vector<uint8_t> Lengths;   // Per-symbol code length, 0 = absent.
  std::vector<uint32_t> Codes;    // Per-symbol canonical code (MSB-first).
  std::vector<uint32_t> SortedSyms; // Symbols sorted by (length, index).
  unsigned MaxLen = 0;
  unsigned PeekLen = 0; // max(MaxLen, PrimaryBits).
  // Canonical decode tables indexed by length 1..MaxLen.
  uint32_t FirstCode[MaxCodeLen + 1] = {};  // First code of each length.
  uint32_t FirstIndex[MaxCodeLen + 1] = {}; // Its index in SortedSyms.
  uint32_t CountOfLen[MaxCodeLen + 1] = {}; // Codes of each length.
  uint32_t Primary[PrimarySize] = {};
};

} // namespace ccomp

#endif // CCOMP_SUPPORT_HUFFMAN_H
