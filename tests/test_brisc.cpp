//===- tests/test_brisc.cpp - BRISC compressor/interpreter tests -------------===//
//
// Part of the ccomp project (PLDI'97 "Code Compression" reproduction).
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "brisc/Brisc.h"
#include "brisc/CostModel.h"
#include "brisc/Interp.h"
#include "corpus/Corpus.h"
#include "flate/Flate.h"
#include "store/CodeStore.h"
#include "vm/Encode.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>

using namespace ccomp;
using namespace ccomp::test;

namespace {

const char *Program = R"(
int fib(int n) { if (n < 2) return n; return fib(n - 1) + fib(n - 2); }
int gcd(int a, int b) { while (b) { int t = a % b; a = b; b = t; } return a; }
int table[32];
char text[] = "brisc interpretable code";
int strsum(char *s) { int n = 0; while (*s) n += *s++; return n; }
int main(void) {
  int i, s = 0;
  for (i = 0; i < 16; i++) table[i] = fib(i % 10) + gcd(i * 3 + 1, i + 2);
  for (i = 0; i < 16; i++) s += table[i];
  s += strsum(text);
  print_int(s);
  print_char('\n');
  return s & 255;
}
)";

vm::VMProgram buildProgram() { return buildVM(Program); }

/// FNV-1a 64 over a byte image.
uint64_t fnv64(const std::vector<uint8_t> &Bytes) {
  uint64_t H = 0xcbf29ce484222325ull;
  for (uint8_t B : Bytes) {
    H ^= B;
    H *= 0x100000001b3ull;
  }
  return H;
}

/// A golden pin: the hash of a compressed image plus the builder's
/// counters. The dictionary builder's output must stay byte-identical
/// (and its search count-identical) across any rewrite of its internals.
struct GoldenPin {
  const char *Name;
  uint64_t Hash;
  unsigned Passes;
  size_t CandidatesTested;
  size_t DictPatterns;
  size_t TotalBytes;
};

/// Entry \p I of \p Pins, which must be named \p Name; an empty pin
/// (which fails) when the table is short.
GoldenPin pinAt(const std::vector<GoldenPin> &Pins, size_t I,
                const char *Name) {
  if (I < Pins.size()) {
    EXPECT_STREQ(Pins[I].Name, Name);
    return Pins[I];
  }
  return GoldenPin{Name, 0, 0, 0, 0, 0};
}

/// Compresses \p P and checks the result against \p Want. A mismatch
/// prints the observed pin in initializer form.
void expectPin(const GoldenPin &Want, const vm::VMProgram &P,
               const brisc::CompressOptions &Opts) {
  brisc::CompressStats S;
  brisc::BriscProgram B = brisc::compress(P, Opts, &S);
  GoldenPin Got = {Want.Name, fnv64(B.serialize(/*IncludeData=*/true)),
                   S.Passes, S.CandidatesTested, S.DictPatterns,
                   S.TotalBytes};
  bool Same = Got.Hash == Want.Hash && Got.Passes == Want.Passes &&
              Got.CandidatesTested == Want.CandidatesTested &&
              Got.DictPatterns == Want.DictPatterns &&
              Got.TotalBytes == Want.TotalBytes;
  char Line[256];
  std::snprintf(Line, sizeof(Line),
                "{\"%s\", 0x%016" PRIx64 "ull, %u, %zu, %zu, %zu},",
                Got.Name, Got.Hash, Got.Passes, Got.CandidatesTested,
                Got.DictPatterns, Got.TotalBytes);
  EXPECT_TRUE(Same) << "observed " << Line;
}

} // namespace

TEST(Brisc, PatternBasics) {
  brisc::Pattern P = brisc::Pattern::base(vm::VMOp::LD_W);
  EXPECT_TRUE(P.wellFormed());
  EXPECT_TRUE(P.allDataOps());
  // Base ld.iw: rd nibble + imm 4 bytes + rs nibble = 5 operand bytes.
  EXPECT_EQ(P.operandBytes(), 5u);

  vm::Instr In;
  In.Op = vm::VMOp::LD_W;
  In.Rd = vm::N0;
  In.Rs1 = vm::SP;
  In.Imm = 4;
  EXPECT_TRUE(P.matches(&In, 1));

  // Specialize the base register to sp and narrow the offset to a
  // scaled nibble: [ld.iw *,*x4(sp)].
  brisc::Pattern Q = P;
  Q.Elems[0].SpecMask |= 1u << 2; // rs1 field (assembly position 2).
  Q.Elems[0].SpecVals[2] = vm::SP;
  Q.Elems[0].Widths[1] = brisc::Width::NibX4;
  EXPECT_TRUE(Q.matches(&In, 1));
  // rd nibble + imm nibble = 1 byte.
  EXPECT_EQ(Q.operandBytes(), 1u);

  In.Imm = 6; // Not a multiple of 4: no longer matches the x4 width.
  EXPECT_FALSE(Q.matches(&In, 1));
  In.Imm = 64; // 64/4 = 16 overflows the nibble.
  EXPECT_FALSE(Q.matches(&In, 1));
}

TEST(Brisc, PatternSerializeRoundTrip) {
  brisc::Pattern P = brisc::Pattern::base(vm::VMOp::ADD);
  brisc::Pattern Q = brisc::Pattern::base(vm::VMOp::SPILL);
  Q.Elems[0].SpecMask = 1;
  Q.Elems[0].SpecVals[0] = vm::RA;
  brisc::Pattern Combined;
  Combined.Elems = P.Elems;
  Combined.Elems.push_back(Q.Elems[0]);

  ByteWriter W;
  Combined.serialize(W);
  ByteReader R(W.bytes());
  brisc::Pattern Back = brisc::Pattern::deserialize(R);
  ByteWriter W2;
  Back.serialize(W2);
  EXPECT_EQ(W2.bytes(), W.bytes());
  EXPECT_TRUE(R.atEnd());
}

TEST(Brisc, OperandPackRoundTrip) {
  brisc::Pattern P;
  brisc::SpecInstr A;
  A.Op = vm::VMOp::ADDI;
  A.Widths[0] = brisc::Width::Nib;  // rd
  A.Widths[1] = brisc::Width::Nib;  // rs1
  A.Widths[2] = brisc::Width::B1;   // imm
  P.Elems.push_back(A);
  brisc::SpecInstr Bm;
  Bm.Op = vm::VMOp::MOV;
  Bm.Widths[0] = brisc::Width::Nib;
  Bm.Widths[1] = brisc::Width::Nib;
  P.Elems.push_back(Bm);
  ASSERT_TRUE(P.wellFormed());

  vm::Instr Seq[2];
  Seq[0].Op = vm::VMOp::ADDI;
  Seq[0].Rd = vm::N3;
  Seq[0].Rs1 = vm::N4;
  Seq[0].Imm = -5;
  Seq[1].Op = vm::VMOp::MOV;
  Seq[1].Rd = vm::N0;
  Seq[1].Rs1 = vm::N3;
  ASSERT_TRUE(P.matches(Seq, 2));

  ByteWriter W;
  brisc::packOperands(P, Seq, W);
  EXPECT_EQ(W.size(), P.operandBytes());

  std::vector<vm::Instr> Out;
  size_t Used = brisc::unpackOperands(P, W.bytes().data(), W.size(), Out);
  EXPECT_EQ(Used, W.size());
  ASSERT_EQ(Out.size(), 2u);
  EXPECT_EQ(Out[0], Seq[0]);
  EXPECT_EQ(Out[1], Seq[1]);
}

TEST(Brisc, LoaderRoundTripExecution) {
  vm::VMProgram P = buildProgram();
  vm::RunResult Orig = vm::runProgram(P);
  ASSERT_TRUE(Orig.Ok) << Orig.Trap;

  brisc::CompressStats Stats;
  brisc::BriscProgram B = brisc::compress(P, brisc::CompressOptions(),
                                          &Stats);
  vm::VMProgram Decoded = brisc::decodeToVM(B);
  vm::RunResult Back = vm::runProgram(Decoded);
  ASSERT_TRUE(Back.Ok) << Back.Trap;
  EXPECT_EQ(Back.ExitCode, Orig.ExitCode);
  EXPECT_EQ(Back.Output, Orig.Output);
  EXPECT_GT(Stats.DictPatterns,
            static_cast<size_t>(vm::VMOp::NumOps));
}

TEST(Brisc, ExactInstructionRoundTripWithoutEpi) {
  vm::VMProgram P = buildProgram();
  brisc::CompressOptions Opts;
  Opts.EnableEpi = false;
  brisc::BriscProgram B = brisc::compress(P, Opts);
  vm::VMProgram Decoded = brisc::decodeToVM(B);
  ASSERT_EQ(Decoded.Functions.size(), P.Functions.size());
  for (size_t I = 0; I != P.Functions.size(); ++I) {
    const vm::VMFunction &A = P.Functions[I];
    const vm::VMFunction &C = Decoded.Functions[I];
    ASSERT_EQ(A.Code.size(), C.Code.size()) << A.Name;
    for (size_t K = 0; K != A.Code.size(); ++K) {
      vm::Instr X = A.Code[K], Y = C.Code[K];
      // Branch targets use different label numbering; compare resolved
      // positions instead.
      if (vm::isBranch(X.Op)) {
        ASSERT_EQ(X.Op, Y.Op);
        EXPECT_EQ(A.LabelPos[X.Target], C.LabelPos[Y.Target])
            << A.Name << " instr " << K;
        X.Target = Y.Target = 0;
      }
      EXPECT_EQ(X, Y) << A.Name << " instr " << K;
    }
  }
}

TEST(Brisc, SerializeDeserializeExecutes) {
  vm::VMProgram P = buildProgram();
  brisc::BriscProgram B = brisc::compress(P);
  std::vector<uint8_t> Image = B.serialize(/*IncludeData=*/true);
  brisc::BriscProgram B2 = brisc::BriscProgram::deserialize(Image);
  vm::RunResult R1 = brisc::interpret(B);
  vm::RunResult R2 = brisc::interpret(B2);
  ASSERT_TRUE(R1.Ok) << R1.Trap;
  ASSERT_TRUE(R2.Ok) << R2.Trap;
  EXPECT_EQ(R1.ExitCode, R2.ExitCode);
  EXPECT_EQ(R1.Output, R2.Output);
}

TEST(Brisc, InterpreterMatchesVM) {
  vm::VMProgram P = buildProgram();
  vm::RunResult VM = vm::runProgram(P);
  ASSERT_TRUE(VM.Ok) << VM.Trap;
  brisc::BriscProgram B = brisc::compress(P);
  vm::RunResult BR = brisc::interpret(B);
  ASSERT_TRUE(BR.Ok) << BR.Trap;
  EXPECT_EQ(BR.ExitCode, VM.ExitCode);
  EXPECT_EQ(BR.Output, VM.Output);
}

TEST(Brisc, CompressionShrinksCode) {
  // Dictionary and Markov tables only amortize on realistically sized
  // inputs (the paper's own toy example ends with "the program, as
  // given, remains").
  vm::VMProgram P = buildVM(syntheticSource(60));
  size_t Native = vm::encodeProgram(P).size();
  brisc::BriscProgram B = brisc::compress(P);
  size_t Brisc = B.codeSegmentBytes();
  EXPECT_LT(Brisc, Native * 3 / 4);

  vm::RunResult VM = vm::runProgram(P);
  vm::RunResult BR = brisc::interpret(B);
  ASSERT_TRUE(VM.Ok);
  ASSERT_TRUE(BR.Ok) << BR.Trap;
  EXPECT_EQ(BR.ExitCode, VM.ExitCode);
}

TEST(Brisc, AbundantMemoryAdoptsMorePatterns) {
  vm::VMProgram P = buildVM(syntheticSource(60));
  brisc::CompressOptions Normal;
  brisc::CompressOptions Abundant;
  Abundant.AbundantMemory = true;
  brisc::CompressStats NS, AS;
  brisc::BriscProgram NB = brisc::compress(P, Normal, &NS);
  brisc::BriscProgram AB = brisc::compress(P, Abundant, &AS);
  // B = P removes the working-set brake: at least as many patterns are
  // adopted. File size may wobble either way (greedy estimates overlap),
  // but must stay in the same band, and execution must be identical.
  EXPECT_GE(AS.DictPatterns, NS.DictPatterns);
  EXPECT_LE(AS.TotalBytes, NS.TotalBytes + NS.TotalBytes / 8);
  vm::RunResult R1 = brisc::interpret(NB);
  vm::RunResult R2 = brisc::interpret(AB);
  ASSERT_TRUE(R1.Ok) << R1.Trap;
  ASSERT_TRUE(R2.Ok) << R2.Trap;
  EXPECT_EQ(R1.ExitCode, R2.ExitCode);
}

TEST(Brisc, AblationKnobsExecuteCorrectly) {
  vm::VMProgram P = buildProgram();
  vm::RunResult VM = vm::runProgram(P);
  for (int Mode = 0; Mode != 4; ++Mode) {
    brisc::CompressOptions Opts;
    Opts.EnableSpecialization = Mode & 1;
    Opts.EnableCombination = Mode & 2;
    brisc::BriscProgram B = brisc::compress(P, Opts);
    vm::RunResult R = brisc::interpret(B);
    ASSERT_TRUE(R.Ok) << "mode " << Mode << ": " << R.Trap;
    EXPECT_EQ(R.ExitCode, VM.ExitCode) << "mode " << Mode;
    EXPECT_EQ(R.Output, VM.Output) << "mode " << Mode;
  }
  // Combination length limits below and far above the default of 6, on
  // a program large enough to combine past 6: long combined patterns
  // make long candidate keys.
  vm::VMProgram Big = buildVM(syntheticSource(60));
  vm::RunResult BigVM = vm::runProgram(Big);
  ASSERT_TRUE(BigVM.Ok) << BigVM.Trap;
  for (unsigned MaxElems : {2u, 16u}) {
    brisc::CompressOptions Opts;
    Opts.MaxCombinedElems = MaxElems;
    brisc::BriscProgram B = brisc::compress(Big, Opts);
    size_t Longest = 0;
    for (const brisc::Pattern &Pat : B.Pats) {
      EXPECT_TRUE(Pat.wellFormed()) << Pat.str();
      Longest = std::max(Longest, Pat.Elems.size());
    }
    EXPECT_LE(Longest, MaxElems);
    if (MaxElems > 6)
      EXPECT_GT(Longest, 6u) << "no combination beyond the default limit";
    vm::VMProgram Back = brisc::decodeToVM(
        brisc::BriscProgram::deserialize(B.serialize(/*IncludeData=*/true)));
    vm::RunResult RB = vm::runProgram(Back);
    vm::RunResult R = brisc::interpret(B);
    ASSERT_TRUE(R.Ok) << "max elems " << MaxElems << ": " << R.Trap;
    ASSERT_TRUE(RB.Ok) << "max elems " << MaxElems << ": " << RB.Trap;
    EXPECT_EQ(R.ExitCode, BigVM.ExitCode) << "max elems " << MaxElems;
    EXPECT_EQ(R.Output, BigVM.Output) << "max elems " << MaxElems;
    EXPECT_EQ(RB.ExitCode, BigVM.ExitCode) << "max elems " << MaxElems;
    EXPECT_EQ(RB.Output, BigVM.Output) << "max elems " << MaxElems;
  }
}

TEST(Brisc, PassesCountsPassesRun) {
  // "expr" converges in two passes (see the golden pins); a cap at or
  // below that must report exactly the passes that ran.
  const corpus::Program *CP = corpus::find("expr");
  ASSERT_NE(CP, nullptr);
  vm::VMProgram P = buildVM(CP->Source);
  vm::RunResult VM = vm::runProgram(P);
  ASSERT_TRUE(VM.Ok) << VM.Trap;
  for (unsigned MaxPasses : {0u, 1u, 2u, 3u}) {
    brisc::CompressOptions Opts;
    Opts.MaxPasses = MaxPasses;
    brisc::CompressStats S;
    brisc::BriscProgram B = brisc::compress(P, Opts, &S);
    EXPECT_EQ(S.Passes, std::min(MaxPasses, 2u)) << "max " << MaxPasses;
    if (MaxPasses == 0) {
      EXPECT_EQ(S.DictPatterns, static_cast<size_t>(vm::VMOp::NumOps));
      EXPECT_EQ(S.CandidatesTested, 0u);
    }
    vm::RunResult R = brisc::interpret(B);
    ASSERT_TRUE(R.Ok) << "max " << MaxPasses << ": " << R.Trap;
    EXPECT_EQ(R.ExitCode, VM.ExitCode) << "max " << MaxPasses;
    EXPECT_EQ(R.Output, VM.Output) << "max " << MaxPasses;
  }
}

TEST(Brisc, DictionaryPatternsWellFormed) {
  vm::VMProgram P = buildProgram();
  brisc::BriscProgram B = brisc::compress(P);
  for (const brisc::Pattern &Pat : B.Pats)
    EXPECT_TRUE(Pat.wellFormed()) << Pat.str();
  // Successor tables must reference valid ids.
  for (const auto &L : B.Successors)
    for (uint32_t Id : L)
      EXPECT_LT(Id, B.Pats.size());
}

TEST(Brisc, TruncationAtEveryEighthYieldsTypedError) {
  vm::VMProgram P = buildProgram();
  brisc::BriscProgram B = brisc::compress(P);
  for (bool IncludeData : {true, false}) {
    std::vector<uint8_t> Img = B.serialize(IncludeData);
    ASSERT_GT(Img.size(), 8u);
    for (unsigned K = 0; K != 8; ++K) {
      std::vector<uint8_t> Cut(Img.begin(), Img.begin() + Img.size() * K / 8);
      Result<brisc::BriscProgram> R = brisc::BriscProgram::parse(Cut);
      EXPECT_FALSE(R.ok()) << "prefix " << K << "/8 parsed"
                           << (IncludeData ? " (with data)" : "");
      if (!R.ok())
        EXPECT_FALSE(R.error().message().empty());
    }
  }
}

TEST(Brisc, VMEncodingTruncationYieldsTypedError) {
  vm::VMProgram P = buildProgram();
  const vm::VMFunction &F = P.Functions.front();
  std::vector<uint8_t> Fixed = vm::encodeFunction(F);
  std::vector<uint8_t> Compact = vm::encodeFunctionCompact(F);
  for (unsigned K = 1; K != 8; ++K) {
    // Fixed-width decode requires whole 4-byte words; chop mid-word.
    std::vector<uint8_t> CutF(Fixed.begin(),
                              Fixed.begin() + Fixed.size() * K / 8 + 1);
    if (CutF.size() % 4 == 0)
      CutF.pop_back();
    EXPECT_FALSE(vm::tryDecodeFunction(CutF).ok()) << "fixed " << K << "/8";
    // The compact stream is self-delimiting with no instruction count,
    // so a cut on an instruction boundary legitimately decodes to a
    // shorter function; anything else must be a typed error, and a
    // clean decode must be a strict prefix of the original.
    std::vector<uint8_t> CutC(Compact.begin(),
                              Compact.begin() + Compact.size() * K / 8);
    Result<std::vector<vm::Instr>> RC = vm::tryDecodeFunctionCompact(CutC);
    if (RC.ok()) {
      ASSERT_LT(RC.value().size(), F.Code.size()) << "compact " << K << "/8";
      for (size_t I = 0; I != RC.value().size(); ++I)
        EXPECT_EQ(RC.value()[I], F.Code[I]) << "compact " << K << "/8";
    }
  }
}

TEST(Brisc, DetunedProgramsCompressAndRun) {
  codegen::Options NoBoth;
  NoBoth.NoImmediates = true;
  NoBoth.NoRegDisp = true;
  vm::VMProgram P = buildVM(Program, NoBoth);
  vm::RunResult VM = vm::runProgram(P);
  ASSERT_TRUE(VM.Ok) << VM.Trap;
  brisc::BriscProgram B = brisc::compress(P);
  vm::RunResult R = brisc::interpret(B);
  ASSERT_TRUE(R.Ok) << R.Trap;
  EXPECT_EQ(R.ExitCode, VM.ExitCode);
}

TEST(Brisc, WorkingSetSmallerThanNative) {
  vm::VMProgram P = buildProgram();
  vm::CodeLayout NL = vm::nativeLayout(P);
  vm::RunOptions NOpts;
  NOpts.Layout = &NL;
  NOpts.PageSize = 256; // Small pages make the tiny test meaningful.
  vm::RunResult NR = vm::runProgram(P, NOpts);
  ASSERT_TRUE(NR.Ok);

  brisc::BriscProgram B = brisc::compress(P);
  vm::RunOptions BOpts;
  BOpts.PageSize = 256;
  vm::RunResult BR = brisc::interpret(B, BOpts);
  ASSERT_TRUE(BR.Ok);
  EXPECT_GT(NR.PagesTouched, 0u);
  EXPECT_GT(BR.PagesTouched, 0u);
}

// Golden pins. Every hash is FNV-1a 64 of serialize(/*IncludeData=*/true);
// the counters are CompressStats. They were recorded from the original
// string-keyed builder and must not change when the builder is reworked.

TEST(Brisc, GoldenCorpusImages) {
  static const std::vector<GoldenPin> WithEpi = {
      {"expr", 0x4a7240b0a3fc8db0ull, 2, 2201, 85, 1307},
      {"pack", 0xdc312bf0aa2b80ddull, 3, 4016, 86, 1442},
      {"qsort", 0x0fdb248299427664ull, 2, 2300, 82, 1094},
      {"matmul", 0xb9ec09fa703a462bull, 2, 1803, 83, 764},
      {"crc", 0xe0041ba7baa42191ull, 2, 1737, 78, 725},
      {"sieve", 0x23168d311416b0deull, 1, 612, 75, 496},
      {"lists", 0x53d188c09b4693e4ull, 3, 2248, 81, 822},
      {"strings", 0x8f0d76d9b1ce1f65ull, 3, 3487, 88, 1469},
      {"life", 0x498568655c387626ull, 3, 2412, 84, 1061},
      {"queens", 0xa32cd5e43790ce0bull, 2, 1777, 80, 839},
      {"dhry", 0x754b0a092e1e3c38ull, 2, 2640, 83, 1225},
      {"huff", 0xc92ca41a36dc7bd8ull, 3, 3412, 81, 1079},
      {"hash", 0xb0d0d34aec6e240full, 2, 1797, 81, 883},
  };
  static const std::vector<GoldenPin> WithoutEpi = {
      {"expr", 0xb788c15885687c07ull, 2, 2291, 86, 1369},
      {"pack", 0x854642ca4f7316edull, 3, 4116, 86, 1510},
      {"qsort", 0x8d4df79bc816a34full, 2, 2367, 83, 1138},
      {"matmul", 0xab61d5fe38ab9a47ull, 2, 1866, 84, 789},
      {"crc", 0x25842ce62a297dc9ull, 2, 1808, 78, 757},
      {"sieve", 0x0f349499f95f45ceull, 1, 656, 75, 523},
      {"lists", 0xc62ae291fddfcdcbull, 3, 2331, 81, 883},
      {"strings", 0x0bdffa7bac642300ull, 3, 3582, 87, 1566},
      {"life", 0xd1d93f877285d9ecull, 3, 2475, 85, 1086},
      {"queens", 0xa39b32c8dbf95194ull, 2, 1837, 81, 876},
      {"dhry", 0x6f03a033622ddf83ull, 2, 2681, 85, 1310},
      {"huff", 0x18589d5865b906cbull, 3, 3464, 81, 1112},
      {"hash", 0x6998b56bf927c169ull, 2, 1882, 79, 930},
  };
  const std::vector<corpus::Program> &Progs = corpus::programs();
  EXPECT_EQ(Progs.size(), 13u);
  EXPECT_EQ(WithEpi.size(), Progs.size());
  EXPECT_EQ(WithoutEpi.size(), Progs.size());
  for (size_t I = 0; I != Progs.size(); ++I) {
    vm::VMProgram P = buildVM(Progs[I].Source);
    brisc::CompressOptions Opts;
    expectPin(pinAt(WithEpi, I, Progs[I].Name), P, Opts);
    Opts.EnableEpi = false; // What the `brisc` codec uses.
    expectPin(pinAt(WithoutEpi, I, Progs[I].Name), P, Opts);
  }
}

TEST(Brisc, GoldenSynthSweepImages) {
  static const std::vector<GoldenPin> Sweep = {
      {"synth-1997", 0xcb0fde7a1fb5b7e3ull, 27, 111174, 221, 34641},
      {"synth-1998", 0x4657f7aa4386a56dull, 28, 109445, 205, 32207},
      {"synth-1999", 0x0c9a9c4f45511b3full, 28, 105785, 214, 33638},
      {"synth-2000", 0x8e9916bc2eb554a3ull, 27, 108965, 216, 33814},
      {"synth-2001", 0x957433f7d542bed2ull, 28, 106580, 209, 33560},
      {"synth-2002", 0xb29efd8aa5f152fcull, 30, 110810, 212, 33319},
      {"synth-2003", 0x6a1ce0be6f4f4619ull, 30, 115520, 218, 34931},
      {"synth-2004", 0xf320a28060c842e6ull, 29, 112862, 208, 35044},
  };
  EXPECT_EQ(Sweep.size(), 8u);
  for (uint64_t Seed = 1997; Seed != 2005; ++Seed) {
    std::string Name = "synth-" + std::to_string(Seed);
    vm::VMProgram P = buildVM(corpus::synthesize(120, Seed));
    expectPin(pinAt(Sweep, Seed - 1997, Name.c_str()), P,
              brisc::CompressOptions());
  }
}

TEST(Brisc, GoldenPagedStoreImage) {
  // One per-frame `brisc+flate` store image of the icc-class program:
  // every frame goes through the builder with epilogue folding off.
  const uint64_t WantHash = 0x1fa1991f4c25b6a3ull;
  const size_t WantBytes = 395658;
  vm::VMProgram P = buildVM(corpus::synthesize(700, 2001));
  std::string Err;
  std::unique_ptr<store::CodeStore> S =
      store::CodeStore::build(P, "brisc+flate", store::StoreOptions(), Err);
  ASSERT_NE(S, nullptr) << Err;
  std::vector<uint8_t> Img = S->save();
  char Line[64];
  std::snprintf(Line, sizeof(Line), "0x%016" PRIx64 "ull, %zu",
                fnv64(Img), Img.size());
  EXPECT_EQ(fnv64(Img), WantHash) << "observed " << Line;
  EXPECT_EQ(Img.size(), WantBytes) << "observed " << Line;
}
