//===- support/BitStream.h - LSB-first bit reader/writer -------*- C++ -*-===//
//
// Part of the ccomp project (PLDI'97 "Code Compression" reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// LSB-first bit-level I/O, shared by the Huffman coder and the flate
/// (DEFLATE-class) compressor. The bit order matches DEFLATE: bits are
/// packed into each byte starting at the least significant position.
///
//===----------------------------------------------------------------------===//

#ifndef CCOMP_SUPPORT_BITSTREAM_H
#define CCOMP_SUPPORT_BITSTREAM_H

#include "support/Error.h"
#include "support/Span.h"
#include "support/Support.h"

#include <cassert>
#include <cstdint>
#include <cstring>
#include <vector>

namespace ccomp {

/// Append-only LSB-first bit sink.
class BitWriter {
public:
  /// Writes the low \p NBits bits of \p V, least significant bit first.
  /// NBits > 32 is a caller bug; it is diagnosed in every build type
  /// (an assert alone would silently truncate in NDEBUG builds).
  void writeBits(uint32_t V, unsigned NBits) {
    if (NBits > 32)
      reportFatal("BitWriter: bit count out of range");
    Acc |= static_cast<uint64_t>(V & bitMask(NBits)) << NAcc;
    NAcc += NBits;
    while (NAcc >= 8) {
      Bytes.push_back(static_cast<uint8_t>(Acc));
      Acc >>= 8;
      NAcc -= 8;
    }
  }

  /// Writes a Huffman code, which by canonical-code convention is stored
  /// MSB-first in \p Code; this reverses it into the LSB-first stream.
  void writeCodeMSB(uint32_t Code, unsigned NBits) {
    uint32_t Rev = 0;
    for (unsigned I = 0; I != NBits; ++I)
      Rev |= ((Code >> I) & 1) << (NBits - 1 - I);
    writeBits(Rev, NBits);
  }

  /// Pads to a byte boundary with zero bits and returns the buffer.
  std::vector<uint8_t> finish() {
    if (NAcc > 0) {
      Bytes.push_back(static_cast<uint8_t>(Acc));
      Acc = 0;
      NAcc = 0;
    }
    return std::move(Bytes);
  }

  /// Number of bits written so far.
  size_t bitCount() const { return Bytes.size() * 8 + NAcc; }

private:
  static uint32_t bitMask(unsigned NBits) {
    return NBits >= 32 ? 0xFFFFFFFFu : ((1u << NBits) - 1u);
  }

  std::vector<uint8_t> Bytes;
  uint64_t Acc = 0;
  unsigned NAcc = 0;
};

/// Sequential LSB-first bit source over a 64-bit accumulator. A refill
/// tops the accumulator up to at least 57 bits: one 8-byte load while 8
/// bytes remain, bytewise at the tail. peekBits() looks ahead without
/// consuming (bits past the end read as zero, so a decoder may peek a
/// whole maximal codeword near the tail); consume() is where truncation
/// is detected. Consuming past the end throws DecodeError (truncated
/// stream); decode entry points catch at the frame boundary and return a
/// typed error.
class BitReader {
public:
  /*implicit*/ BitReader(ByteSpan S) : Data(S.data()), NBytes(S.size()) {}
  BitReader(const uint8_t *Data, size_t N) : Data(Data), NBytes(N) {}
  explicit BitReader(const std::vector<uint8_t> &V)
      : Data(V.data()), NBytes(V.size()) {}

  /// The next \p NBits (<= 32) bits without consuming them; bits past
  /// the end of the stream read as zero.
  uint32_t peekBits(unsigned NBits) {
    assert(NBits <= 32 && "peek wider than a refill guarantees");
    if (NAcc < NBits)
      refill();
    return static_cast<uint32_t>(Acc & lowMask(NBits));
  }

  /// Drops the next \p NBits (<= 32) bits. Throws DecodeError when fewer
  /// than \p NBits real bits remain.
  void consume(unsigned NBits) {
    assert(NBits <= 32 && "consume wider than a refill guarantees");
    if (NAcc < NBits) {
      refill();
      if (NAcc < NBits)
        decodeFail("BitReader: read past end of stream");
    }
    Acc >>= NBits;
    NAcc -= NBits;
  }

  uint32_t readBits(unsigned NBits) {
    if (NBits > 32)
      reportFatal("BitReader: bit count out of range"); // Caller bug.
    uint32_t V = peekBits(NBits);
    consume(NBits);
    return V;
  }

  /// Reads a single bit.
  uint32_t readBit() { return readBits(1); }

  /// True once every byte has been consumed and fewer than 8 buffered bits
  /// remain (the tail padding).
  bool nearEnd() const { return Pos >= NBytes && NAcc < 8; }

  size_t bitPos() const { return Pos * 8 - NAcc; }

private:
  static uint64_t lowMask(unsigned NBits) {
    return (uint64_t(1) << NBits) - 1; // NBits <= 32.
  }

  /// Loads whole bytes into the accumulator until it holds at least 57
  /// bits or the stream is exhausted. NAcc counts only real bits; the
  /// 8-byte load may also leave the next byte's low bits above NAcc,
  /// which are the stream's true next bits, so peeks stay exact.
  void refill() {
    if (NBytes - Pos >= 8) {
      uint64_t Word;
      std::memcpy(&Word, Data + Pos, 8);
#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_BIG_ENDIAN__
      Word = __builtin_bswap64(Word);
#endif
      Acc |= Word << NAcc; // NAcc < 32 here: only short peeks refill.
      unsigned Take = (64 - NAcc) >> 3;
      Pos += Take;
      NAcc += Take * 8;
      return;
    }
    while (NAcc <= 56 && Pos < NBytes) {
      Acc |= static_cast<uint64_t>(Data[Pos++]) << NAcc;
      NAcc += 8;
    }
  }

  const uint8_t *Data;
  size_t NBytes;
  size_t Pos = 0;
  uint64_t Acc = 0;
  unsigned NAcc = 0;
};

} // namespace ccomp

#endif // CCOMP_SUPPORT_BITSTREAM_H
