//===- support/ByteIO.h - Byte buffer reader/writer ------------*- C++ -*-===//
//
// Part of the ccomp project (PLDI'97 "Code Compression" reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Little-endian byte-buffer serialization helpers used by every on-disk
/// and on-wire container format in the project (wire streams, BRISC
/// dictionaries, flate framing).
///
//===----------------------------------------------------------------------===//

#ifndef CCOMP_SUPPORT_BYTEIO_H
#define CCOMP_SUPPORT_BYTEIO_H

#include "support/Error.h"
#include "support/Span.h"
#include "support/Support.h"

#include <cassert>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

namespace ccomp {

/// Append-only little-endian byte sink. Implements the generic Sink
/// interface so producers written against Sink can target a ByteWriter
/// (and its framing helpers) directly.
class ByteWriter : public Sink {
public:
  using Sink::write;
  void write(const uint8_t *Data, size_t N) override { writeBytes(Data, N); }

  void writeU8(uint8_t V) { Bytes.push_back(V); }

  void writeU16(uint16_t V) {
    writeU8(static_cast<uint8_t>(V));
    writeU8(static_cast<uint8_t>(V >> 8));
  }

  void writeU32(uint32_t V) {
    writeU16(static_cast<uint16_t>(V));
    writeU16(static_cast<uint16_t>(V >> 16));
  }

  void writeU64(uint64_t V) {
    writeU32(static_cast<uint32_t>(V));
    writeU32(static_cast<uint32_t>(V >> 32));
  }

  /// Unsigned LEB128.
  void writeVarU(uint64_t V) {
    while (V >= 0x80) {
      writeU8(static_cast<uint8_t>(V) | 0x80);
      V >>= 7;
    }
    writeU8(static_cast<uint8_t>(V));
  }

  /// Signed LEB128 via zig-zag.
  void writeVarS(int64_t V) { writeVarU(zigZag(V)); }

  static uint64_t zigZag(int64_t V) {
    return (static_cast<uint64_t>(V) << 1) ^ static_cast<uint64_t>(V >> 63);
  }

  /// Encodes \p V as writeVarU would into raw memory at \p Out (at most
  /// 10 bytes); returns the end of the encoding.
  static uint8_t *putVarU(uint8_t *Out, uint64_t V) {
    while (V >= 0x80) {
      *Out++ = static_cast<uint8_t>(V) | 0x80;
      V >>= 7;
    }
    *Out++ = static_cast<uint8_t>(V);
    return Out;
  }

  /// Length-prefixed string.
  void writeStr(const std::string &S) {
    writeVarU(S.size());
    Bytes.insert(Bytes.end(), S.begin(), S.end());
  }

  void writeBytes(const uint8_t *Data, size_t N) {
    Bytes.insert(Bytes.end(), Data, Data + N);
  }

  void writeBytes(const std::vector<uint8_t> &Data) {
    writeBytes(Data.data(), Data.size());
  }

  size_t size() const { return Bytes.size(); }
  const std::vector<uint8_t> &bytes() const { return Bytes; }
  std::vector<uint8_t> take() { return std::move(Bytes); }

private:
  std::vector<uint8_t> Bytes;
};

/// Sequential little-endian byte source. Reads past the end throw
/// DecodeError (corrupt container), never UB: decode entry points catch
/// at the frame boundary and return a typed error.
class ByteReader {
public:
  /*implicit*/ ByteReader(ByteSpan S) : Data(S.data()), N(S.size()) {}
  ByteReader(const uint8_t *Data, size_t N) : Data(Data), N(N) {}
  explicit ByteReader(const std::vector<uint8_t> &V)
      : Data(V.data()), N(V.size()) {}

  /// The unread remainder as a view.
  ByteSpan rest() const { return ByteSpan(Data + Pos, N - Pos); }

  uint8_t readU8() {
    if (Pos >= N)
      decodeFail("ByteReader: read past end of buffer");
    return Data[Pos++];
  }

  uint16_t readU16() {
    uint16_t Lo = readU8();
    return static_cast<uint16_t>(Lo | (readU8() << 8));
  }

  uint32_t readU32() {
    uint32_t Lo = readU16();
    return Lo | (static_cast<uint32_t>(readU16()) << 16);
  }

  uint64_t readU64() {
    uint64_t Lo = readU32();
    return Lo | (static_cast<uint64_t>(readU32()) << 32);
  }

  uint64_t readVarU() {
    uint64_t V = 0;
    unsigned Shift = 0;
    for (;;) {
      uint8_t B = readU8();
      V |= static_cast<uint64_t>(B & 0x7F) << Shift;
      if (!(B & 0x80))
        return V;
      Shift += 7;
      if (Shift >= 64)
        decodeFail("ByteReader: malformed varint");
    }
  }

  int64_t readVarS() {
    uint64_t Z = readVarU();
    return static_cast<int64_t>((Z >> 1) ^ (~(Z & 1) + 1));
  }

  std::string readStr() {
    // Compare against remaining() rather than `Pos + Len > N`: a corrupt
    // 64-bit length can make Pos + Len wrap around and pass that check.
    size_t Len = readVarU();
    if (Len > N - Pos)
      decodeFail("ByteReader: string past end of buffer");
    std::string S(reinterpret_cast<const char *>(Data + Pos), Len);
    Pos += Len;
    return S;
  }

  /// The next \p Len bytes as a view into the buffer (no copy).
  ByteSpan readSpan(size_t Len) {
    if (Len > N - Pos)
      decodeFail("ByteReader: bytes past end of buffer");
    ByteSpan Out(Data + Pos, Len);
    Pos += Len;
    return Out;
  }

  std::vector<uint8_t> readBytes(size_t Len) {
    return readSpan(Len).toVector();
  }

  size_t remaining() const { return N - Pos; }
  size_t pos() const { return Pos; }
  bool atEnd() const { return Pos == N; }

private:
  const uint8_t *Data;
  size_t N;
  size_t Pos = 0;
};

} // namespace ccomp

#endif // CCOMP_SUPPORT_BYTEIO_H
