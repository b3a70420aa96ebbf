//===- perfbench/fault.cpp - The `fault` workload --------------------------===//
//
// Part of the ccomp project (PLDI'97 "Code Compression" reproduction).
//
//===----------------------------------------------------------------------===//
//
// Execution on a memory-limited device. Set-up builds the per-page image
// (build job 3) of each of the run's icc programs. One op loads one image
// with a decode-cache budget of 1/8 of its program's decoded cost and
// runs it to completion on one thread, so most of the op is faulting,
// decoding and evicting pages. No encoder and no socket is involved.
//
//===----------------------------------------------------------------------===//

#include "bench.h"
#include "trace.h"

#include "CorpusUtil.h"
#include "store/CodeStore.h"
#include "store/Resolver.h"

#include <algorithm>

using namespace ccomp;
using namespace ccomp::perfbench;

namespace {

constexpr unsigned NumPrograms = 8;

struct Program {
  Reference Ref;
  std::vector<uint8_t> Image;
  size_t Budget = 0;
};

} // namespace

Outcome perfbench::runFault(const Config &C) {
  Outcome Out;
  auto program = [&](unsigned I) {
    return harness::mustBuild(corpus::synthesize(
        IccFunctions, programSeed(IccSeedBase, C.Seed, NumPrograms, I)));
  };
  std::vector<Program> Progs;
  std::vector<double> BuildRates;
  size_t InBytes = 0, ImageBytes = 0;
  timeSetup(
      [&] {
        Progs.assign(NumPrograms, Program());
        InBytes = ImageBytes = 0;
        for (unsigned I = 0; I != NumPrograms; ++I) {
          vm::VMProgram P = program(I);
          Program &G = Progs[I];
          G.Ref = eagerReference(P);
          size_t Decoded = 0;
          for (const vm::VMFunction &F : P.Functions)
            Decoded += store::decodedCostBytes(F);
          G.Budget = Decoded / 8;
          G.Image = setupImage(P, PerPagePrimary, perPageOptions(C.Jobs),
                               BuildRates);
          InBytes += fixedWidthBytes(P);
          ImageBytes += G.Image.size();
        }
      },
      Out);
  Out.set("compressed_ratio", double(ImageBytes) / double(InBytes));

  // Per-op counters: summed for the per-layer table, and checked to
  // repeat exactly for each program (every op on it does the same
  // single-threaded work).
  StoreCounts Sum;
  std::vector<ExactCheck> Exact(NumPrograms);
  auto Op = [&](unsigned, uint64_t Id) {
    const Program &G = Progs[Id % NumPrograms];
    store::StoreOptions SO;
    SO.CacheBudgetBytes = G.Budget;
    Result<std::unique_ptr<store::CodeStore>> L = [&] {
      Tracer::Scope Sp(Span::StoreLoad);
      return store::CodeStore::tryLoad(G.Image, SO);
    }();
    if (!L.ok())
      return OpStatus::Failed;
    store::CodeStore &S = *L.value();
    store::StoreBackedResolver Rv(S);
    TimedResolver Timed(Rv);
    vm::RunOptions RO;
    RO.Resolver = Tracer::enabled() ? static_cast<vm::FunctionResolver *>(&Timed)
                                    : &Rv;
    vm::Machine M(S.skeleton(), RO);
    vm::RunResult R = [&] {
      Tracer::Scope Sp(Span::VmRun);
      return M.run();
    }();
    StoreCounts Counts = StoreCounts::of(S.stats());
    Sum += Counts;
    std::vector<uint64_t> Tuple = Counts.exact();
    Tuple.push_back(R.Steps);
    Exact[Id % NumPrograms].see(Tuple);
    if (!R.Ok)
      return OpStatus::Failed;
    return matches(R, G.Ref) ? OpStatus::Ok : OpStatus::Mismatch;
  };

  LoopOptions LO;
  LO.Seconds = C.Seconds;
  LO.Cycle = NumPrograms;
  LO.CpuLatency = true;
  if (!C.Trace) {
    reportOps(closedLoop(LO, Op), Out);
  } else {
    CodecSnapshot Before = snapshotCodecs();
    TracedLoop T = tracedLoop(LO, Op, Out);
    CodecSnapshot After = snapshotCodecs();
    reportCodecs(Before, After, T.ops(), Out);
    reportSpans(double(T.Traced.Attempted), Out);
    reportStore(Sum, T.ops(), Out);
    double Steps = 0;
    for (const Program &G : Progs)
      Steps += double(G.Ref.Steps) / NumPrograms;
    Out.set("vm.steps", Steps);
    Out.ExactNames = {"store.hits",          "store.misses",
                      "store.evictions",     "store.decodes",
                      "store.fetched_bytes", "vm.steps"};
    for (const std::string &Codec : LayerCodecs)
      Out.ExactNames.push_back("pipeline." + Codec + ".decompress_calls");
  }
  reportCompressRate(BuildRates, NumPrograms, program, PerPagePrimary,
                     perPageOptions(C.Jobs), Out);
  if (std::any_of(Exact.begin(), Exact.end(),
                  [](const ExactCheck &E) { return E.differs(); }))
    Out.problem("store counts or step counts differ between fault ops on "
                "one program");
  return Out;
}
