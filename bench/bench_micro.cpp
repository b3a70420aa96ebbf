//===- bench/bench_micro.cpp - Component microbenchmarks -----------------------===//
//
// Part of the ccomp project (PLDI'97 "Code Compression" reproduction).
//
//===----------------------------------------------------------------------===//
//
// google-benchmark throughput measurements for the building blocks:
// flate compress/decompress (large buffers and fault-sized pages),
// bwt-dict page decode, Huffman and MTF coding, the three
// execution engines' dispatch rates, BRISC compression, and the JIT's
// code-production rate (the 2.5 MB/s headline, on modern hardware).
//
//===----------------------------------------------------------------------===//

#include "benchmark/benchmark.h"

#include "brisc/Brisc.h"
#include "brisc/Interp.h"
#include "corpus/Corpus.h"
#include "flate/Flate.h"
#include "minic/Compile.h"
#include "codegen/Codegen.h"
#include "native/Threaded.h"
#include "pipeline/Codec.h"
#include "pipeline/Payload.h"
#include "support/Huffman.h"
#include "support/MTF.h"
#include "support/PRNG.h"
#include "vm/Encode.h"
#include "wire/Wire.h"

using namespace ccomp;

namespace {

std::vector<uint8_t> codeLikeBytes(size_t N) {
  PRNG Rng(7);
  std::vector<uint8_t> Out;
  Out.reserve(N);
  while (Out.size() < N) {
    Out.push_back(static_cast<uint8_t>(Rng.below(40)));
    Out.push_back(static_cast<uint8_t>(Rng.below(256)));
    Out.push_back(static_cast<uint8_t>(4 * Rng.below(32)));
    Out.push_back(0);
  }
  return Out;
}

vm::VMProgram &wepProgram() {
  static vm::VMProgram P = [] {
    minic::CompileResult CR =
        minic::compile(corpus::sizeClassSource("wep"));
    codegen::Result CG = codegen::generate(*CR.M);
    return std::move(CG.P);
  }();
  return P;
}

const corpus::Program &benchProgram() { return *corpus::find("qsort"); }

/// The icc program's functions cut into 256-byte pages at basic-block
/// boundaries, as fixed-width code: the frame shape a per-page store
/// faults in.
const std::vector<std::vector<uint8_t>> &iccPages() {
  static const std::vector<std::vector<uint8_t>> Pages = [] {
    minic::CompileResult CR = minic::compile(corpus::sizeClassSource("icc"));
    codegen::Result CG = codegen::generate(*CR.M);
    std::vector<std::vector<uint8_t>> Out;
    for (const vm::VMFunction &F : CG.P.Functions)
      for (const pipeline::PageChunk &C : pipeline::splitFunctionPages(F, 256))
        Out.push_back(pipeline::encodePagePayload(
            pipeline::PayloadKind::FixedCode, C.Code, nullptr));
    return Out;
  }();
  return Pages;
}

/// Times decompression of every frame in \p Frames through \p C;
/// throughput counts decoded bytes.
void decodeFrames(benchmark::State &State, const pipeline::Codec &C,
                  const std::vector<std::vector<uint8_t>> &Frames) {
  size_t OutBytes = 0;
  for (const std::vector<uint8_t> &F : Frames) {
    Result<std::vector<uint8_t>> R = C.tryDecompress(F);
    if (!R.ok())
      reportFatal(std::string(C.name()) + ": " + R.error().message());
    OutBytes += R.value().size();
  }
  for (auto _ : State)
    for (const std::vector<uint8_t> &F : Frames)
      benchmark::DoNotOptimize(C.tryDecompress(F));
  State.SetBytesProcessed(int64_t(State.iterations()) * OutBytes);
  State.counters["frames"] = double(Frames.size());
}

} // namespace

static void BM_FlateCompress(benchmark::State &State) {
  std::vector<uint8_t> In = codeLikeBytes(1 << 18);
  for (auto _ : State)
    benchmark::DoNotOptimize(flate::compress(In));
  State.SetBytesProcessed(int64_t(State.iterations()) * In.size());
}
BENCHMARK(BM_FlateCompress);

static void BM_FlateDecompress(benchmark::State &State) {
  std::vector<uint8_t> In = codeLikeBytes(1 << 18);
  std::vector<uint8_t> Z = flate::compress(In);
  for (auto _ : State)
    benchmark::DoNotOptimize(flate::decompress(Z));
  State.SetBytesProcessed(int64_t(State.iterations()) * In.size());
}
BENCHMARK(BM_FlateDecompress);

// bwt-dict over the raw fixed-width pages, as the per-page store's
// "bwt-dict" chain stores them.
static void BM_BwtDictDecompressPages(benchmark::State &State) {
  const pipeline::Codec &C = *pipeline::Registry::instance().find("bwt-dict");
  std::vector<std::vector<uint8_t>> Frames;
  for (const std::vector<uint8_t> &P : iccPages())
    Frames.push_back(C.compress(P));
  decodeFrames(State, C, Frames);
}
BENCHMARK(BM_BwtDictDecompressPages);

// flate over the vm-compact form of each page, the back stage of the
// per-page store's "vm-compact+flate" chain.
static void BM_FlateDecompressPages(benchmark::State &State) {
  const pipeline::Registry &R = pipeline::Registry::instance();
  const pipeline::Codec &Compact = *R.find("vm-compact");
  const pipeline::Codec &C = *R.find("flate");
  std::vector<std::vector<uint8_t>> Frames;
  for (const std::vector<uint8_t> &P : iccPages())
    Frames.push_back(C.compress(Compact.compress(P)));
  decodeFrames(State, C, Frames);
}
BENCHMARK(BM_FlateDecompressPages);

static void BM_HuffmanRoundTrip(benchmark::State &State) {
  PRNG Rng(3);
  std::vector<uint64_t> Freq(256, 0);
  std::vector<unsigned> Syms;
  for (int I = 0; I != 65536; ++I) {
    unsigned S = static_cast<unsigned>(Rng.below(256));
    S = S * S / 256;
    Syms.push_back(S);
    ++Freq[S];
  }
  for (auto _ : State) {
    HuffmanCode Code(buildHuffmanLengths(Freq));
    BitWriter W;
    for (unsigned S : Syms)
      Code.encode(W, S);
    std::vector<uint8_t> B = W.finish();
    benchmark::DoNotOptimize(B);
    BitReader R(B);
    unsigned Sum = 0;
    for (size_t I = 0; I != Syms.size(); ++I)
      Sum += Code.decode(R);
    benchmark::DoNotOptimize(Sum);
  }
  State.SetItemsProcessed(int64_t(State.iterations()) * Syms.size());
}
BENCHMARK(BM_HuffmanRoundTrip);

static void BM_MTFEncode(benchmark::State &State) {
  PRNG Rng(9);
  std::vector<uint64_t> Vals;
  for (int I = 0; I != 65536; ++I)
    Vals.push_back(Rng.below(64));
  for (auto _ : State) {
    MTFEncoder Enc;
    uint64_t Sum = 0;
    for (uint64_t V : Vals)
      Sum += Enc.encode(V).Index;
    benchmark::DoNotOptimize(Sum);
  }
  State.SetItemsProcessed(int64_t(State.iterations()) * Vals.size());
}
BENCHMARK(BM_MTFEncode);

static void BM_MinicCompile(benchmark::State &State) {
  std::string Src = corpus::sizeClassSource("wep");
  for (auto _ : State) {
    minic::CompileResult R = minic::compile(Src);
    benchmark::DoNotOptimize(R.M);
  }
  State.SetBytesProcessed(int64_t(State.iterations()) * Src.size());
}
BENCHMARK(BM_MinicCompile);

static void BM_WireCompress(benchmark::State &State) {
  minic::CompileResult CR = minic::compile(corpus::sizeClassSource("wep"));
  for (auto _ : State)
    benchmark::DoNotOptimize(wire::compress(*CR.M));
}
BENCHMARK(BM_WireCompress);

static void BM_BriscCompress(benchmark::State &State) {
  vm::VMProgram &P = wepProgram();
  for (auto _ : State) {
    brisc::BriscProgram B = brisc::compress(P);
    benchmark::DoNotOptimize(B.Funcs.size());
  }
  State.SetBytesProcessed(int64_t(State.iterations()) *
                          vm::encodeProgram(P).size());
}
BENCHMARK(BM_BriscCompress);

static void BM_JitRate(benchmark::State &State) {
  // The paper's headline: BRISC -> native code at 2.5 MB/s on a 120MHz
  // Pentium. Bytes here are produced threaded code.
  vm::VMProgram &P = wepProgram();
  brisc::BriscProgram B = brisc::compress(P);
  size_t Out = native::generateFromBrisc(B).codeBytes();
  for (auto _ : State) {
    native::NProgram N = native::generateFromBrisc(B);
    benchmark::DoNotOptimize(N.Code.data());
  }
  State.SetBytesProcessed(int64_t(State.iterations()) * Out);
}
BENCHMARK(BM_JitRate);

static void BM_RunVMInterp(benchmark::State &State) {
  minic::CompileResult CR = minic::compile(benchProgram().Source);
  codegen::Result CG = codegen::generate(*CR.M);
  uint64_t Steps = 0;
  for (auto _ : State) {
    vm::RunResult R = vm::runProgram(CG.P);
    Steps = R.Steps;
    benchmark::DoNotOptimize(R.ExitCode);
  }
  State.SetItemsProcessed(int64_t(State.iterations()) * Steps);
}
BENCHMARK(BM_RunVMInterp);

static void BM_RunBriscInterp(benchmark::State &State) {
  minic::CompileResult CR = minic::compile(benchProgram().Source);
  codegen::Result CG = codegen::generate(*CR.M);
  brisc::BriscProgram B = brisc::compress(CG.P);
  uint64_t Steps = 0;
  for (auto _ : State) {
    vm::RunResult R = brisc::interpret(B);
    Steps = R.Steps;
    benchmark::DoNotOptimize(R.ExitCode);
  }
  State.SetItemsProcessed(int64_t(State.iterations()) * Steps);
}
BENCHMARK(BM_RunBriscInterp);

static void BM_RunThreaded(benchmark::State &State) {
  minic::CompileResult CR = minic::compile(benchProgram().Source);
  codegen::Result CG = codegen::generate(*CR.M);
  native::NProgram N = native::generate(CG.P);
  uint64_t Steps = 0;
  for (auto _ : State) {
    vm::RunResult R = native::run(N);
    Steps = R.Steps;
    benchmark::DoNotOptimize(R.ExitCode);
  }
  State.SetItemsProcessed(int64_t(State.iterations()) * Steps);
}
BENCHMARK(BM_RunThreaded);

BENCHMARK_MAIN();
