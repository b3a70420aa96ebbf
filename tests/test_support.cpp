//===- tests/test_support.cpp - Bit I/O, Huffman, MTF, varints ---------------===//
//
// Part of the ccomp project (PLDI'97 "Code Compression" reproduction).
//
//===----------------------------------------------------------------------===//

#include "support/BWT.h"
#include "support/BitStream.h"
#include "support/ByteIO.h"
#include "support/Error.h"
#include "support/Huffman.h"
#include "support/MTF.h"
#include "support/PRNG.h"
#include "support/Support.h"

#include "gtest/gtest.h"

#include <algorithm>

using namespace ccomp;

TEST(BitStream, RoundTripFixedPatterns) {
  BitWriter W;
  W.writeBits(0b101, 3);
  W.writeBits(0xFFFF, 16);
  W.writeBits(0, 1);
  W.writeBits(0x12345678, 32);
  std::vector<uint8_t> B = W.finish();
  BitReader R(B);
  EXPECT_EQ(R.readBits(3), 0b101u);
  EXPECT_EQ(R.readBits(16), 0xFFFFu);
  EXPECT_EQ(R.readBits(1), 0u);
  EXPECT_EQ(R.readBits(32), 0x12345678u);
}

TEST(BitStream, RandomRoundTrip) {
  PRNG Rng(7);
  std::vector<std::pair<uint32_t, unsigned>> Items;
  BitWriter W;
  for (int I = 0; I != 10000; ++I) {
    unsigned N = 1 + Rng.below(32);
    uint32_t V = static_cast<uint32_t>(Rng.next()) &
                 (N >= 32 ? 0xFFFFFFFFu : ((1u << N) - 1));
    Items.push_back({V, N});
    W.writeBits(V, N);
  }
  std::vector<uint8_t> B = W.finish();
  BitReader R(B);
  for (auto [V, N] : Items)
    ASSERT_EQ(R.readBits(N), V);
}

TEST(ByteIO, VarIntRoundTrip) {
  ByteWriter W;
  std::vector<int64_t> Signed = {0, 1, -1, 63, -64, 64, -65, 1 << 20,
                                 -(1 << 20), INT64_MAX, INT64_MIN};
  for (int64_t V : Signed)
    W.writeVarS(V);
  std::vector<uint64_t> Unsigned = {0, 127, 128, 1u << 14, UINT64_MAX};
  for (uint64_t V : Unsigned)
    W.writeVarU(V);
  W.writeStr("hello world");
  ByteReader R(W.bytes());
  for (int64_t V : Signed)
    EXPECT_EQ(R.readVarS(), V);
  for (uint64_t V : Unsigned)
    EXPECT_EQ(R.readVarU(), V);
  EXPECT_EQ(R.readStr(), "hello world");
  EXPECT_TRUE(R.atEnd());
}

TEST(Huffman, SingleSymbol) {
  std::vector<uint64_t> Freq = {0, 10, 0};
  std::vector<uint8_t> Lens = buildHuffmanLengths(Freq);
  EXPECT_EQ(Lens[1], 1);
  HuffmanCode Code(Lens);
  BitWriter W;
  for (int I = 0; I != 5; ++I)
    Code.encode(W, 1);
  std::vector<uint8_t> B = W.finish();
  BitReader R(B);
  for (int I = 0; I != 5; ++I)
    EXPECT_EQ(Code.decode(R), 1u);
}

TEST(Huffman, SkewedFrequenciesGiveShortCodes) {
  std::vector<uint64_t> Freq = {1000, 10, 10, 1};
  std::vector<uint8_t> Lens = buildHuffmanLengths(Freq);
  EXPECT_LE(Lens[0], Lens[1]);
  EXPECT_LE(Lens[1], Lens[3]);
}

TEST(Huffman, RandomRoundTrip) {
  PRNG Rng(99);
  for (int Trial = 0; Trial != 20; ++Trial) {
    unsigned Alphabet = 2 + Rng.below(300);
    std::vector<uint64_t> Freq(Alphabet, 0);
    std::vector<unsigned> Data;
    for (int I = 0; I != 2000; ++I) {
      // Zipf-ish skew.
      unsigned S = static_cast<unsigned>(Rng.below(Alphabet));
      S = S * S / Alphabet;
      Data.push_back(S);
      ++Freq[S];
    }
    HuffmanCode Code(buildHuffmanLengths(Freq, 15));
    BitWriter W;
    for (unsigned S : Data)
      Code.encode(W, S);
    std::vector<uint8_t> B = W.finish();
    BitReader R(B);
    for (unsigned S : Data)
      ASSERT_EQ(Code.decode(R), S);
  }
}

TEST(Huffman, LengthLimitRespected) {
  // Fibonacci-like frequencies force deep trees; the limiter must cap
  // them at the requested depth while staying decodable.
  std::vector<uint64_t> Freq;
  uint64_t A = 1, B = 1;
  for (int I = 0; I != 40; ++I) {
    Freq.push_back(A);
    uint64_t T = A + B;
    A = B;
    B = T;
  }
  std::vector<uint8_t> Lens = buildHuffmanLengths(Freq, 12);
  for (uint8_t L : Lens)
    EXPECT_LE(L, 12);
  EXPECT_TRUE(HuffmanCode::isValidLengthSet(Lens));
}

namespace {

/// Lengths 1..15 from Fibonacci frequencies: most codes run past the
/// decoder's primary table, and the single 1-bit code (symbol 15, code
/// '0') is a one-bit filler.
std::vector<uint8_t> fibonacciLengths() {
  std::vector<uint64_t> Freq;
  uint64_t A = 1, B = 1;
  for (int I = 0; I != 16; ++I) {
    Freq.push_back(A);
    uint64_t T = A + B;
    A = B;
    B = T;
  }
  return buildHuffmanLengths(Freq, 15);
}

void expectRoundTrip(const std::vector<uint8_t> &Lens,
                     const std::vector<unsigned> &Syms) {
  HuffmanCode Code(Lens);
  BitWriter W;
  for (unsigned S : Syms)
    Code.encode(W, S);
  size_t Bits = W.bitCount();
  std::vector<uint8_t> B = W.finish();
  BitReader R(B);
  for (unsigned S : Syms)
    ASSERT_EQ(Code.decode(R), S);
  EXPECT_EQ(R.bitPos(), Bits);
}

} // namespace

TEST(Huffman, LongCodesPastThePrimaryTableRoundTrip) {
  std::vector<uint8_t> Lens = fibonacciLengths();
  ASSERT_EQ(*std::max_element(Lens.begin(), Lens.end()), 15);
  ASSERT_GT(*std::max_element(Lens.begin(), Lens.end()),
            HuffmanCode::PrimaryBits);
  std::vector<unsigned> Syms;
  for (unsigned S = 0; S != Lens.size(); ++S)
    Syms.push_back(S); // Every length once, table path and long path.
  PRNG Rng(5);
  for (int I = 0; I != 5000; ++I)
    Syms.push_back(static_cast<unsigned>(Rng.below(Lens.size())));
  expectRoundTrip(Lens, Syms);
}

TEST(Huffman, OneAndTwoSymbolCodesRoundTrip) {
  expectRoundTrip({1}, std::vector<unsigned>(100, 0));
  expectRoundTrip({0, 0, 1, 0}, std::vector<unsigned>(13, 2));
  std::vector<unsigned> Syms;
  PRNG Rng(6);
  for (int I = 0; I != 1000; ++I)
    Syms.push_back(static_cast<unsigned>(Rng.below(2)));
  expectRoundTrip({1, 1}, Syms);
}

TEST(Huffman, InvalidPrefixOfIncompleteCodeIsInvalidCode) {
  // {1}: only '0' is a code, so a leading 1 bit is no code's prefix.
  // {2,2,2}: '00', '01', '10' are codes, '11' is not.
  struct Case {
    std::vector<uint8_t> Lens;
    uint8_t Byte;
  } Cases[] = {{{1}, 0x01}, {{2, 2, 2}, 0x03}, {{1}, 0xFF}};
  for (const Case &C : Cases) {
    HuffmanCode Code(C.Lens);
    std::vector<uint8_t> B = {C.Byte};
    Result<unsigned> R = tryDecode([&] {
      BitReader BR(B);
      return Code.decode(BR);
    });
    ASSERT_FALSE(R.ok());
    EXPECT_NE(R.error().message().find("invalid code"), std::string::npos)
        << R.error().message();
  }
}

TEST(MTF, PaperExample) {
  // The ADDRLP stream example from section 3: [72 72 68 72 68 68 68 68]
  // MTF-codes to [0 1 0 2 2 1 1 1].
  std::vector<uint64_t> Stream = {72, 72, 68, 72, 68, 68, 68, 68};
  std::vector<uint32_t> Expect = {0, 1, 0, 2, 2, 1, 1, 1};
  MTFEncoder Enc;
  for (size_t I = 0; I != Stream.size(); ++I) {
    MTFToken T = Enc.encode(Stream[I]);
    EXPECT_EQ(T.Index, Expect[I]) << "position " << I;
  }
}

TEST(MTF, RoundTrip) {
  PRNG Rng(3);
  MTFEncoder Enc;
  MTFDecoder Dec;
  for (int I = 0; I != 5000; ++I) {
    uint64_t V = Rng.below(50); // Small alphabet forces table reuse.
    MTFToken T = Enc.encode(V);
    EXPECT_EQ(Dec.decode(T.Index, T.NewSymbol), V);
  }
}

TEST(MTF, LocalityYieldsSmallIndices) {
  // A stream with high locality should produce mostly tiny indices.
  MTFEncoder Enc;
  uint64_t Sum = 0;
  unsigned N = 0;
  for (int Rep = 0; Rep != 100; ++Rep)
    for (uint64_t V : {5, 5, 5, 9, 5, 9, 9, 5}) {
      Sum += Enc.encode(V).Index;
      ++N;
    }
  EXPECT_LT(Sum / double(N), 2.0);
}

TEST(ByteIO, ReadPastEndThrowsDecodeError) {
  std::vector<uint8_t> Buf = {1, 2};
  ByteReader R(Buf);
  EXPECT_EQ(R.readU8(), 1u);
  EXPECT_EQ(R.readU8(), 2u);
  EXPECT_THROW(R.readU8(), DecodeError);
}

TEST(ByteIO, ReadStrHugeLengthRejectedWithoutOverflow) {
  // Regression: a length prefix near UINT64_MAX made the old bounds
  // check `Pos + Len > N` wrap around and pass, then read out of
  // bounds. The reader must reject it with a typed error instead.
  ByteWriter W;
  W.writeVarU(UINT64_MAX - 2);
  W.writeU8('x');
  ByteReader R(W.bytes());
  EXPECT_THROW(R.readStr(), DecodeError);

  std::vector<uint8_t> One = {'x'};
  ByteReader R2(One);
  EXPECT_THROW(R2.readBytes(UINT64_MAX - 2), DecodeError);
}

TEST(ByteIO, MalformedVarIntRejected) {
  // Ten continuation bytes exceed the 64-bit varint limit.
  std::vector<uint8_t> Buf(10, 0xFF);
  ByteReader R(Buf);
  EXPECT_THROW(R.readVarU(), DecodeError);
  // Truncated mid-varint (continuation bit set on the last byte).
  std::vector<uint8_t> Cut = {0x80};
  ByteReader R2(Cut);
  EXPECT_THROW(R2.readVarU(), DecodeError);
}

TEST(BitStream, ReadPastEndThrowsDecodeError) {
  BitWriter W;
  W.writeBits(0x5, 3);
  std::vector<uint8_t> B = W.finish();
  BitReader R(B);
  (void)R.readBits(8); // Padding bits of the final byte are readable.
  EXPECT_THROW(R.readBits(8), DecodeError);
}

TEST(BitStream, PeekAndConsumeAtAndPastTheEnd) {
  std::vector<uint8_t> B = {0xA5, 0x3C};
  BitReader R(B);
  EXPECT_EQ(R.peekBits(8), 0xA5u);
  EXPECT_EQ(R.peekBits(32), 0x3CA5u); // Bits past the end read as zero.
  R.consume(12);
  EXPECT_EQ(R.peekBits(4), 0x3u);
  EXPECT_EQ(R.peekBits(20), 0x3u);
  R.consume(4); // Exactly at the end: still fine.
  EXPECT_TRUE(R.nearEnd());
  EXPECT_EQ(R.bitPos(), 16u);
  EXPECT_EQ(R.peekBits(32), 0u);
  R.consume(0);
  try {
    R.consume(1);
    FAIL() << "consumed past the end";
  } catch (const DecodeError &E) {
    EXPECT_NE(std::string(E.what()).find("read past end of stream"),
              std::string::npos);
  }
  // A consume wider than what remains fails even when some bits remain.
  BitReader R2(B);
  R2.consume(10);
  EXPECT_THROW(R2.consume(7), DecodeError);
  BitReader Empty(ByteSpan{});
  EXPECT_EQ(Empty.peekBits(9), 0u);
  EXPECT_THROW(Empty.readBits(1), DecodeError);
}

TEST(BitStream, ReadBits32AcrossRefillBoundaries) {
  // Every start offset within a 64-bit accumulator, then 32-bit reads
  // straddling the word loads and the bytewise tail.
  PRNG Rng(11);
  std::vector<uint8_t> B(61);
  for (uint8_t &Byte : B)
    Byte = static_cast<uint8_t>(Rng.next());
  auto bitsAt = [&](size_t Pos, unsigned N) {
    uint32_t V = 0;
    for (unsigned I = 0; I != N; ++I)
      V |= uint32_t((B[(Pos + I) / 8] >> ((Pos + I) % 8)) & 1) << I;
    return V;
  };
  for (unsigned Start = 0; Start != 64; ++Start) {
    BitReader R(B);
    size_t Pos = 0;
    for (unsigned Skip = Start; Skip;) {
      unsigned N = std::min(Skip, 32u);
      ASSERT_EQ(R.readBits(N), bitsAt(Pos, N));
      Pos += N;
      Skip -= N;
    }
    while (Pos + 32 <= B.size() * 8) {
      ASSERT_EQ(R.readBits(32), bitsAt(Pos, 32)) << Start << " @" << Pos;
      Pos += 32;
    }
    unsigned Tail = static_cast<unsigned>(B.size() * 8 - Pos);
    ASSERT_EQ(R.readBits(Tail), bitsAt(Pos, Tail));
    EXPECT_THROW(R.readBits(1), DecodeError);
  }
}

TEST(BitStreamDeath, WriteBitsCountOutOfRangeAbortsInEveryBuild) {
  // Regression: in release builds an assert-only check let NBits > 32
  // silently corrupt the stream (mis-decode, no diagnostic). This must
  // abort regardless of NDEBUG.
  BitWriter W;
  EXPECT_DEATH(W.writeBits(0, 33), "bit count out of range");
}

TEST(HuffmanDeath, EncodingCodelessSymbolAbortsInEveryBuild) {
  // Regression: encoding a symbol with no assigned code emitted zero
  // bits in release builds, producing a stream that decodes to the
  // wrong symbol sequence. This must abort regardless of NDEBUG.
  std::vector<uint64_t> Freq = {10, 10, 0};
  HuffmanCode Code(buildHuffmanLengths(Freq));
  BitWriter W;
  EXPECT_DEATH(Code.encode(W, 2), "no code");
  EXPECT_DEATH(Code.encode(W, 99), "no code");
}

TEST(Huffman, DecodeInvalidCodeThrowsDecodeError) {
  // A code table over symbols {0,1} never assigns the all-ones deep
  // codeword that a corrupt stream can contain.
  std::vector<uint64_t> Freq = {1000, 1};
  HuffmanCode Code(buildHuffmanLengths(Freq));
  std::vector<uint8_t> Ones(8, 0xFF);
  BitReader R(Ones);
  // Either decodes (both codes are 1 bit) or throws at end of stream;
  // drain it and require the typed error, never a crash.
  EXPECT_THROW(
      {
        for (int I = 0; I != 100; ++I)
          (void)Code.decode(R);
      },
      DecodeError);
}

TEST(MTF, DecodeOutOfRangeIndexThrowsDecodeError) {
  MTFDecoder Dec;
  (void)Dec.decode(0, 7); // Table now holds one symbol.
  EXPECT_THROW(Dec.decode(5, 0), DecodeError);
}

TEST(MTF, DecoderCapsTableGrowth) {
  // Regression: a hostile stream of Index==0 tokens grew the decoder
  // table without bound. The cap must reject the first token past it
  // with a typed error, not allocate.
  MTFDecoder Dec(4);
  for (uint64_t V = 0; V != 4; ++V)
    EXPECT_EQ(Dec.decode(0, V), V);
  EXPECT_EQ(Dec.tableSize(), 4u);
  try {
    Dec.decode(0, 99);
    FAIL() << "cap not enforced";
  } catch (const DecodeError &E) {
    EXPECT_NE(std::string(E.what()).find("table size cap"),
              std::string::npos);
  }
  // Table-addressing tokens still work at the cap.
  EXPECT_EQ(Dec.decode(4, 0), 0u);
}

TEST(MTF, DecoderRejectsDuplicateNewSymbol) {
  // The encoder never re-announces a seen symbol (it addresses the
  // table instead), so a duplicate "new symbol" token only occurs in a
  // corrupt or hostile stream and must be a typed reject.
  MTFDecoder Dec;
  EXPECT_EQ(Dec.decode(0, 7), 7u);
  EXPECT_EQ(Dec.decode(0, 9), 9u);
  try {
    Dec.decode(0, 7);
    FAIL() << "duplicate accepted";
  } catch (const DecodeError &E) {
    EXPECT_NE(std::string(E.what()).find("duplicate new-symbol"),
              std::string::npos);
  }
}

TEST(MTF, ByteDecoderRejectsCorruptTokens) {
  MTFDecoder<uint8_t> Dec(256);
  EXPECT_EQ(Dec.decode(0, 7), 7);
  try {
    Dec.decode(2, 0);
    FAIL() << "index past the table accepted";
  } catch (const DecodeError &E) {
    EXPECT_NE(std::string(E.what()).find("index out of range"),
              std::string::npos);
  }
  EXPECT_EQ(Dec.decode(0, 9), 9);
  try {
    Dec.decode(0, 7);
    FAIL() << "duplicate accepted";
  } catch (const DecodeError &E) {
    EXPECT_NE(std::string(E.what()).find("duplicate new-symbol"),
              std::string::npos);
  }
}

TEST(MTF, DecodersMatchEncoderAtEveryIndex) {
  // Indices across the whole table: the full byte alphabet, and 64-bit
  // symbols whose table is far wider.
  PRNG Rng(21);
  std::vector<uint64_t> Bytes, Wide;
  for (int I = 0; I != 20000; ++I) {
    Bytes.push_back(Rng.below(4) ? Rng.below(8) : Rng.below(256));
    Wide.push_back(Rng.below(2) ? Rng.below(3) : Rng.below(300) << 40);
  }
  MTFEncoder ByteEnc, WideEnc;
  MTFDecoder<uint8_t> ByteDec(256);
  MTFDecoder<> WideDec;
  uint32_t MaxIndex = 0;
  for (uint64_t V : Bytes) {
    MTFToken T = ByteEnc.encode(V);
    MaxIndex = std::max(MaxIndex, T.Index);
    ASSERT_EQ(ByteDec.decode(T.Index, static_cast<uint8_t>(T.NewSymbol)), V);
  }
  EXPECT_EQ(ByteDec.tableSize(), 256u);
  EXPECT_GT(MaxIndex, 200u);
  for (uint64_t V : Wide) {
    MTFToken T = WideEnc.encode(V);
    ASSERT_EQ(WideDec.decode(T.Index, T.NewSymbol), V);
  }
  EXPECT_EQ(WideDec.tableSize(), WideEnc.tableSize());
}

TEST(BWT, KnownTransformAndRoundTrip) {
  const std::string S = "banana";
  std::vector<uint8_t> In(S.begin(), S.end());
  BWTResult R = bwtForward(ByteSpan(In.data(), In.size()));
  EXPECT_EQ(std::string(R.LastCol.begin(), R.LastCol.end()), "nnbaaa");
  EXPECT_EQ(bwtInverse(R.LastCol, R.Primary), In);
}

TEST(BWT, RandomAndPeriodicRoundTrip) {
  PRNG Rng(11);
  for (int Trial = 0; Trial != 30; ++Trial) {
    size_t N = Rng.below(400);
    std::vector<uint8_t> In(N);
    for (uint8_t &B : In)
      B = static_cast<uint8_t>(Rng.below(Trial % 3 ? 256 : 4));
    BWTResult R = bwtForward(ByteSpan(In.data(), In.size()));
    ASSERT_EQ(bwtInverse(R.LastCol, R.Primary), In) << "trial " << Trial;
  }
  // Periodic inputs have identical rotations; the index tie-break must
  // keep the transform deterministic and invertible all the same.
  std::vector<uint8_t> Periodic;
  for (int I = 0; I != 64; ++I)
    Periodic.push_back(I % 2 ? 0xAB : 0xCD);
  BWTResult A = bwtForward(ByteSpan(Periodic.data(), Periodic.size()));
  BWTResult B = bwtForward(ByteSpan(Periodic.data(), Periodic.size()));
  EXPECT_EQ(A.LastCol, B.LastCol);
  EXPECT_EQ(A.Primary, B.Primary);
  EXPECT_EQ(bwtInverse(A.LastCol, A.Primary), Periodic);
}

TEST(BWT, InverseRejectsBadPrimary) {
  std::vector<uint8_t> Col = {1, 2, 3};
  EXPECT_THROW(bwtInverse(Col, 3), DecodeError);
  EXPECT_THROW(bwtInverse({}, 1), DecodeError);
  EXPECT_TRUE(bwtInverse({}, 0).empty());
}

TEST(Support, ParseUnsignedAcceptsStrictDecimalInRange) {
  uint64_t V = 77;
  EXPECT_TRUE(parseUnsigned("0", 0, 10, V));
  EXPECT_EQ(V, 0u);
  EXPECT_TRUE(parseUnsigned("1024", 1, 4096, V));
  EXPECT_EQ(V, 1024u);
  EXPECT_TRUE(parseUnsigned("18446744073709551615", 0, UINT64_MAX, V));
  EXPECT_EQ(V, UINT64_MAX);
}

TEST(Support, ParseUnsignedRejectsGarbageRangeAndOverflow) {
  // Regression: the CLI used atoi, which maps "4x" to 4, "-3" to a
  // negative surprise, and overflow to UB. The replacement must reject
  // every shape and leave the output untouched.
  uint64_t V = 77;
  EXPECT_FALSE(parseUnsigned("", 0, 10, V));
  EXPECT_FALSE(parseUnsigned(nullptr, 0, 10, V));
  EXPECT_FALSE(parseUnsigned("-3", 0, 10, V));
  EXPECT_FALSE(parseUnsigned("4x", 0, 10, V));
  EXPECT_FALSE(parseUnsigned(" 4", 0, 10, V));
  EXPECT_FALSE(parseUnsigned("0x10", 0, 100, V));
  EXPECT_FALSE(parseUnsigned("11", 0, 10, V));
  EXPECT_FALSE(parseUnsigned("0", 1, 10, V));
  EXPECT_FALSE(parseUnsigned("18446744073709551616", 0, UINT64_MAX, V));
  EXPECT_FALSE(parseUnsigned("99999999999999999999999", 0, UINT64_MAX, V));
  EXPECT_EQ(V, 77u);
}

TEST(PRNG, Deterministic) {
  PRNG A(42), B(42);
  for (int I = 0; I != 100; ++I)
    EXPECT_EQ(A.next(), B.next());
  PRNG C(43);
  bool Different = false;
  PRNG A2(42);
  for (int I = 0; I != 10; ++I)
    Different |= A2.next() != C.next();
  EXPECT_TRUE(Different);
}
