//===- perfbench/hot.cpp - The `hot` workload ------------------------------===//
//
// Part of the ccomp project (PLDI'97 "Code Compression" reproduction).
//
//===----------------------------------------------------------------------===//
//
// Repeated requests to a runtime whose code is already resident. Set-up
// builds, for each of the run's wep programs, a brisc+flate store whose
// budget holds the whole module, creates one persistent TieredResolver
// (hot threshold 4) over it and warms it up until a run compiles nothing.
// One op is a fresh vm::Machine over one store's skeleton, run to
// completion: threaded code and the per-transfer resolver and tier
// overhead, with no decode, no compile and no network.
//
//===----------------------------------------------------------------------===//

#include "bench.h"
#include "trace.h"

#include "CorpusUtil.h"
#include "store/CodeStore.h"
#include "store/Tiered.h"

#include <algorithm>

using namespace ccomp;
using namespace ccomp::perfbench;

namespace {

constexpr unsigned NumPrograms = 8;
constexpr uint64_t HotThreshold = 4;
constexpr unsigned MaxWarmupRuns = 64;

/// One persistent runtime: a loaded store and its tiered resolver
/// (declared after the store, so destroyed first).
struct Runtime {
  Reference Ref;
  std::unique_ptr<store::CodeStore> Store;
  std::unique_ptr<store::TieredResolver> Tier;

  vm::RunResult run(vm::FunctionResolver &Rv) const {
    vm::RunOptions RO;
    RO.Resolver = &Rv;
    vm::Machine M(Store->skeleton(), RO);
    Tracer::Scope Sp(Span::VmRun);
    return M.run();
  }
};

/// Build options of the runtime images (the budget is set at load).
store::StoreOptions buildOptions(unsigned Jobs) {
  store::StoreOptions SO;
  SO.BuildJobs = Jobs;
  return SO;
}

/// Builds, loads and warms up the runtime of \p P; returns its image size.
/// The build's rate is appended to \p Rates.
size_t setupRuntime(Runtime &RT, const vm::VMProgram &P, unsigned Jobs,
                    std::vector<double> &Rates) {
  RT.Ref = eagerReference(P);
  std::vector<uint8_t> Image =
      setupImage(P, "brisc+flate", buildOptions(Jobs), Rates);
  size_t Decoded = 0;
  for (const vm::VMFunction &F : P.Functions)
    Decoded += store::decodedCostBytes(F);
  store::StoreOptions SO;
  SO.CacheBudgetBytes = 2 * Decoded;
  Result<std::unique_ptr<store::CodeStore>> L =
      store::CodeStore::tryLoad(Image, SO);
  if (!L.ok())
    reportFatal("hot: store load failed: " + L.error().message());
  RT.Store = L.take();
  store::TierOptions TO;
  TO.HotThreshold = HotThreshold;
  RT.Tier = std::make_unique<store::TieredResolver>(*RT.Store, TO);
  // Warm up until a whole run compiles nothing.
  for (unsigned I = 0; I != MaxWarmupRuns; ++I) {
    uint64_t Before = RT.Tier->tierStats().Compiles;
    if (!matches(RT.run(*RT.Tier), RT.Ref))
      reportFatal("hot: warm-up run diverged from eager");
    if (I && RT.Tier->tierStats().Compiles == Before)
      break;
  }
  return Image.size();
}

/// The tier counters the per-layer table reports, summed over runtimes.
struct TierCounts {
  uint64_t Compiles = 0, NativeSteps = 0, TierTransfers = 0, UnitHits = 0;

  static TierCounts of(const std::vector<Runtime> &RTs) {
    TierCounts C;
    for (const Runtime &RT : RTs)
      C += of(RT.Tier->tierStats());
    return C;
  }
  static TierCounts of(const store::TierStats &S) {
    return {S.Compiles, S.NativeSteps, S.TierTransfers, S.UnitHits};
  }
  TierCounts &operator+=(const TierCounts &O) {
    Compiles += O.Compiles;
    NativeSteps += O.NativeSteps;
    TierTransfers += O.TierTransfers;
    UnitHits += O.UnitHits;
    return *this;
  }
  TierCounts operator-(const TierCounts &O) const {
    return {Compiles - O.Compiles, NativeSteps - O.NativeSteps,
            TierTransfers - O.TierTransfers, UnitHits - O.UnitHits};
  }
};

StoreCounts storeCounts(const std::vector<Runtime> &RTs) {
  StoreCounts C;
  for (const Runtime &RT : RTs)
    C += StoreCounts::of(RT.Store->stats());
  return C;
}

} // namespace

Outcome perfbench::runHot(const Config &C) {
  Outcome Out;
  auto program = [&](unsigned I) {
    return harness::mustBuild(corpus::synthesize(
        WepFunctions, programSeed(WepSeedBase, C.Seed, NumPrograms, I)));
  };
  std::vector<Runtime> RTs;
  std::vector<double> BuildRates;
  size_t InBytes = 0, ImageBytes = 0;
  timeSetup(
      [&] {
        RTs.clear();
        RTs.resize(NumPrograms);
        InBytes = ImageBytes = 0;
        for (unsigned I = 0; I != NumPrograms; ++I) {
          vm::VMProgram P = program(I);
          InBytes += fixedWidthBytes(P);
          ImageBytes += setupRuntime(RTs[I], P, C.Jobs, BuildRates);
        }
      },
      Out);
  Out.set("compressed_ratio", double(ImageBytes) / double(InBytes));

  std::vector<ExactCheck> Exact(NumPrograms);
  auto Op = [&](unsigned, uint64_t Id) {
    const Runtime &RT = RTs[Id % NumPrograms];
    vm::RunResult R;
    if (Tracer::enabled()) {
      // Per-op tier and store deltas repeat exactly: the runtime is warm
      // and every op on it runs the same program the same way.
      TierCounts T0 = TierCounts::of(RT.Tier->tierStats());
      StoreCounts S0 = StoreCounts::of(RT.Store->stats());
      TimedResolver Timed(*RT.Tier);
      R = RT.run(Timed);
      TierCounts T = TierCounts::of(RT.Tier->tierStats()) - T0;
      std::vector<uint64_t> Tuple =
          (StoreCounts::of(RT.Store->stats()) - S0).exact();
      Tuple.insert(Tuple.end(), {T.Compiles, T.NativeSteps, T.TierTransfers,
                                 T.UnitHits, R.Steps});
      Exact[Id % NumPrograms].see(Tuple);
    } else {
      R = RT.run(*RT.Tier);
    }
    if (!R.Ok)
      return OpStatus::Failed;
    return matches(R, RT.Ref) ? OpStatus::Ok : OpStatus::Mismatch;
  };

  TierCounts Start = TierCounts::of(RTs);
  LoopOptions LO;
  LO.Seconds = C.Seconds;
  LO.Cycle = NumPrograms;
  LO.CpuLatency = true;
  if (!C.Trace) {
    reportOps(closedLoop(LO, Op), Out);
  } else {
    StoreCounts S0 = storeCounts(RTs);
    CodecSnapshot Before = snapshotCodecs();
    TracedLoop TL = tracedLoop(LO, Op, Out);
    CodecSnapshot After = snapshotCodecs();
    StoreCounts S = storeCounts(RTs) - S0;
    TierCounts T = TierCounts::of(RTs) - Start;
    double Ops = TL.ops();
    reportCodecs(Before, After, Ops, Out);
    reportSpans(double(TL.Traced.Attempted), Out);
    reportStore(S, Ops, Out);
    double Steps = 0;
    for (const Runtime &RT : RTs)
      Steps += double(RT.Ref.Steps) / NumPrograms;
    Out.set("vm.steps", Steps);
    Out.set("native.tier_transfers", double(T.TierTransfers) / Ops);
    Out.set("native.native_steps", double(T.NativeSteps) / Ops);
    Out.set("native.unit_hits", double(T.UnitHits) / Ops);
    Out.set("native.compiles", double(T.Compiles));
    Out.ExactNames = {"vm.steps",         "native.tier_transfers",
                      "native.native_steps", "native.unit_hits",
                      "native.compiles",  "store.misses",
                      "store.decodes"};
  }
  uint64_t Compiles = (TierCounts::of(RTs) - Start).Compiles;
  reportCompressRate(BuildRates, NumPrograms, program, "brisc+flate",
                     buildOptions(C.Jobs), Out);
  if (Compiles)
    Out.problem("the tier compiled " + std::to_string(Compiles) +
                " unit(s) inside the timed region; warm-up did not finish");
  if (std::any_of(Exact.begin(), Exact.end(),
                  [](const ExactCheck &E) { return E.differs(); }))
    Out.problem("tier, store or step counts differ between hot ops on one "
                "program");
  return Out;
}
