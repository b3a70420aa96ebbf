//===- bench/bench_throughput.cpp - Codec throughput vs. thread count ----------===//
//
// Part of the ccomp project (PLDI'97 "Code Compression" reproduction).
//
//===----------------------------------------------------------------------===//
//
// Compression throughput of every registered codec when per-function
// jobs fan out across the pipeline's thread pool: MB/s at 1, 2, and 4
// jobs over the synthetic corpus, with the parallel output checked
// byte-identical to the serial run. Module-payload codecs (wire) have a
// single item, so their numbers are flat by construction — reported
// anyway for the full picture. Decode throughput is single-threaded:
// tryDecompress of every serial frame, checked byte-identical to its
// payload, in payload MB/s.
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include "pipeline/Codec.h"
#include "pipeline/Payload.h"
#include "pipeline/Pipeline.h"

#include <cstdio>

using namespace ccomp;
using namespace ccomp::pipeline;

int main() {
  const std::string Src = bench::syntheticSource(96);
  vm::VMProgram P = bench::mustBuild(Src);
  std::unique_ptr<ir::Module> M = bench::mustCompile(Src);

  std::printf("codec compression and decode throughput, synthetic corpus "
              "(%zu functions)\n",
              P.Functions.size());
  std::printf("%-12s %6s %10s %12s %10s %9s\n", "codec", "items", "payload",
              "compressed", "jobs", "MB/s");
  bench::hr();

  const unsigned JobCounts[] = {1, 2, 4};
  for (const auto &C : Registry::instance().all()) {
    std::vector<const Codec *> Chain = {C.get()};
    std::vector<std::vector<uint8_t>> Payloads =
        makePayloads(*C, P, M.get());
    size_t PayloadBytes = 0;
    for (const std::vector<uint8_t> &I : Payloads)
      PayloadBytes += I.size();

    std::vector<std::vector<uint8_t>> Serial =
        compressAll(Chain, Payloads, 1);
    size_t FrameBytes = 0;
    for (const std::vector<uint8_t> &F : Serial)
      FrameBytes += F.size();

    double BestMBps = 0.0;
    for (unsigned Jobs : JobCounts) {
      if (compressAll(Chain, Payloads, Jobs) != Serial)
        reportFatal(std::string("bench_throughput: ") + C->name() + " at " +
                    std::to_string(Jobs) + " jobs diverged from serial");
      double Sec = bench::timeStable(
          [&] { compressAll(Chain, Payloads, Jobs); }, 0.15);
      double MBps = PayloadBytes / Sec / 1e6;
      if (MBps > BestMBps)
        BestMBps = MBps;
      std::printf("%-12s %6zu %10zu %12zu %10u %9.2f\n", C->name(),
                  Payloads.size(), PayloadBytes, FrameBytes, Jobs, MBps);
    }
    for (size_t I = 0; I != Serial.size(); ++I) {
      Result<std::vector<uint8_t>> R = C->tryDecompress(Serial[I]);
      if (!R.ok() || R.value() != Payloads[I])
        reportFatal(std::string("bench_throughput: ") + C->name() +
                    " frame " + std::to_string(I) +
                    " does not decode to its payload");
    }
    double DecodeSec = bench::timeStable(
        [&] {
          for (const std::vector<uint8_t> &F : Serial)
            (void)C->tryDecompress(F);
        },
        0.15);
    double DecodeMBps = PayloadBytes / DecodeSec / 1e6;
    std::printf("%-12s %6zu %10zu %12zu %10s %9.2f\n", C->name(),
                Payloads.size(), PayloadBytes, FrameBytes, "decode",
                DecodeMBps);
    // One machine-readable line per registered codec, so CI can assert
    // every codec — including newly registered ones — made it through
    // the parallel-identity and decode checks above.
    bench::emitStats(std::string("{\"bench\":\"throughput\",\"codec\":\"") +
                     C->name() + "\",\"items\":" +
                     std::to_string(Payloads.size()) + ",\"payload_bytes\":" +
                     std::to_string(PayloadBytes) + ",\"frame_bytes\":" +
                     std::to_string(FrameBytes) + ",\"best_mbps\":" +
                     std::to_string(BestMBps) + ",\"decompress_mbps\":" +
                     std::to_string(DecodeMBps) + "}");
    bench::hr();
  }
  return 0;
}
