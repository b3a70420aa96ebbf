//===- examples/demand_paged_vm.cpp - Decode-on-fault execution ----------------===//
//
// Part of the ccomp project (PLDI'97 "Code Compression" reproduction).
//
//===----------------------------------------------------------------------===//
//
// Runs the corpus suite end-to-end out of a demand-paged CodeStore: the
// module lives in memory as compressed frames, and function bodies are
// decoded on first call, cached in a byte-budgeted LRU, and re-decoded
// if a return lands on an evicted caller. Sweeping the cache budget
// shows the paper's section-1 trade live — a small budget costs decode
// faults, a large one converges on eager execution — with estimated
// total time from the same disk model the paging benchmark uses.
//
//   $ ./demand_paged_vm [chain]          (default chain: brisc+flate)
//
//===----------------------------------------------------------------------===//

#include "CorpusUtil.h"

#include "sim/Paging.h"
#include "store/CodeStore.h"
#include "store/Resolver.h"
#include "store/Tiered.h"
#include "support/ThreadPool.h"

#include <cstdio>
#include <string>
#include <vector>

using namespace ccomp;
using namespace ccomp::harness;

int main(int argc, char **argv) {
  std::string Chain = argc > 1 ? argv[1] : "brisc+flate";

  std::printf("building the corpus suite program...\n");
  vm::VMProgram P = suiteProgram();

  size_t DecodedBytes = 0;
  for (const vm::VMFunction &F : P.Functions)
    DecodedBytes += store::decodedCostBytes(F);

  // Eager baseline: every function decoded up front, the configuration
  // the store must be byte-for-byte equivalent to.
  vm::RunResult Eager;
  double EagerCpu = timeIt([&] { Eager = vm::runProgram(P); });
  if (!Eager.Ok) {
    std::printf("eager run trapped: %s\n", Eager.Trap.c_str());
    return 1;
  }

  // Compress the module into a store and round-trip the container, as a
  // loader pulling the image from storage would.
  std::string Err;
  std::unique_ptr<store::CodeStore> Built =
      store::CodeStore::build(P, Chain, store::StoreOptions(), Err);
  if (!Built) {
    std::printf("store build failed: %s\n", Err.c_str());
    return 1;
  }
  std::vector<uint8_t> Image = Built->save();
  std::printf("%u function(s): %zu decoded bytes -> %zu container bytes "
              "(chain %s)\n\n",
              Built->functionCount(), DecodedBytes, Image.size(),
              Chain.c_str());

  sim::DiskModel Disk;
  std::printf("cache budget sweep (fault service %.0f ms; eager CPU %.3f s, "
              "exit %d):\n",
              Disk.FaultSeconds * 1e3, EagerCpu, Eager.ExitCode);
  std::printf("%12s | %8s %8s %8s %9s %10s %12s\n", "budget B", "faults",
              "hits", "evicts", "hit rate", "decode ms", "est total s");
  hr();

  bool AllMatch = true;
  for (size_t Budget :
       {DecodedBytes, DecodedBytes / 2, DecodedBytes / 4, DecodedBytes / 8,
        size_t(1)}) {
    store::StoreOptions Opts;
    Opts.CacheBudgetBytes = Budget;
    Result<std::unique_ptr<store::CodeStore>> Loaded =
        store::CodeStore::tryLoad(Image, Opts);
    if (!Loaded.ok()) {
      std::printf("load failed: %s\n", Loaded.error().message().c_str());
      return 1;
    }
    std::unique_ptr<store::CodeStore> S = Loaded.take();

    vm::RunResult R;
    double Cpu = timeIt([&] { R = store::runFromStore(*S); });
    if (!R.Ok) {
      std::printf("store-backed run trapped: %s\n", R.Trap.c_str());
      return 1;
    }
    if (R.Output != Eager.Output || R.ExitCode != Eager.ExitCode ||
        R.Steps != Eager.Steps)
      AllMatch = false;

    store::StoreStats St = S->stats();
    // Cpu already contains every decode: runFromStore decodes inline.
    sim::TotalTime T = sim::totalTime({Cpu, St.Misses}, Disk);
    std::printf("%12zu | %8llu %8llu %8llu %8.1f%% %10.2f %12.3f\n", Budget,
                (unsigned long long)St.Misses, (unsigned long long)St.Hits,
                (unsigned long long)St.Evictions, St.hitRate() * 100,
                double(St.DecodeNanos) / 1e6, T.total());
  }
  hr();

  // A warm cache behaves like eager execution: prefetch every frame
  // through the pool, then re-run and count faults.
  {
    store::StoreOptions Opts; // Default budget holds the whole suite.
    Opts.CacheBudgetBytes = DecodedBytes * 2;
    std::unique_ptr<store::CodeStore> S =
        store::CodeStore::tryLoad(Image, Opts).take();
    std::vector<uint32_t> All;
    for (uint32_t I = 0; I != S->functionCount(); ++I)
      All.push_back(I);
    ThreadPool Pool(4);
    S->prefetch(All, Pool);
    Pool.wait();
    S->resetStats();
    vm::RunResult R = store::runFromStore(*S);
    store::StoreStats St = S->stats();
    std::printf("\nafter prefetch: %llu fault(s), %llu hit(s) "
                "(output %s eager)\n",
                (unsigned long long)St.Misses, (unsigned long long)St.Hits,
                R.Ok && R.Output == Eager.Output ? "matches" : "DIFFERS from");
    if (!R.Ok || R.Output != Eager.Output)
      AllMatch = false;
  }

  // Page-size sweep: rebuild the store at sub-function fault
  // granularity and shrink the page target. Execution must stay
  // byte-identical at every page size — a branch into a cold page
  // decodes just that page, while the interpreter walks spans instead
  // of whole bodies.
  std::printf("\npage-size sweep (budget %zu B):\n", DecodedBytes / 8);
  std::printf("%12s | %8s %8s %8s %9s %10s\n", "page B", "frames",
              "faults", "evicts", "hit rate", "decode ms");
  hr();
  for (size_t Target : {size_t(0), size_t(4096), size_t(256), size_t(64)}) {
    store::StoreOptions Opts;
    Opts.CacheBudgetBytes = DecodedBytes / 8;
    Opts.PageTargetBytes = Target;
    std::unique_ptr<store::CodeStore> S =
        store::CodeStore::build(P, Chain, Opts, Err);
    if (!S) {
      std::printf("paged store build failed: %s\n", Err.c_str());
      return 1;
    }
    // Round-trip through the container so the paged manifest is
    // exercised too, not just the in-memory build.
    Result<std::unique_ptr<store::CodeStore>> Loaded =
        store::CodeStore::tryLoad(S->save(), Opts);
    if (!Loaded.ok()) {
      std::printf("paged store load failed: %s\n",
                  Loaded.error().message().c_str());
      return 1;
    }
    S = Loaded.take();

    vm::RunResult R = store::runFromStore(*S);
    if (!R.Ok) {
      std::printf("paged run trapped: %s\n", R.Trap.c_str());
      return 1;
    }
    if (R.Output != Eager.Output || R.ExitCode != Eager.ExitCode ||
        R.Steps != Eager.Steps)
      AllMatch = false;
    store::StoreStats St = S->stats();
    std::printf("%12zu | %8u %8llu %8llu %8.1f%% %10.2f\n", Target,
                S->frameCount(), (unsigned long long)St.Misses,
                (unsigned long long)St.Evictions, St.hitRate() * 100,
                double(St.DecodeNanos) / 1e6);
  }
  hr();

  // Tiered sweep: the same store with the native tier layered on top,
  // at three hot thresholds — compile-everything (0), the default-ish
  // mid-point (4), and never-compile (~0). Execution must stay
  // byte-identical at every threshold; the stats show where the compile
  // work went.
  std::printf("\ntiered sweep (hot threshold -> compiles):\n");
  std::printf("%12s | %8s %10s %12s %12s %10s\n", "threshold", "compiles",
              "unit hits", "native steps", "xfers", "code B");
  hr();
  for (uint64_t Threshold : {uint64_t(0), uint64_t(4), ~uint64_t(0)}) {
    Result<std::unique_ptr<store::CodeStore>> Loaded =
        store::CodeStore::tryLoad(Image, store::StoreOptions());
    if (!Loaded.ok()) {
      std::printf("tiered store load failed: %s\n",
                  Loaded.error().message().c_str());
      return 1;
    }
    std::unique_ptr<store::CodeStore> S = Loaded.take();
    store::TierOptions TO;
    TO.HotThreshold = Threshold;
    store::TierStats TS;
    vm::RunResult R =
        store::runTieredFromStore(*S, TO, vm::RunOptions(), &TS);
    if (!R.Ok) {
      std::printf("tiered run trapped: %s\n", R.Trap.c_str());
      return 1;
    }
    if (R.Output != Eager.Output || R.ExitCode != Eager.ExitCode ||
        R.Steps != Eager.Steps)
      AllMatch = false;
    char Label[32];
    if (Threshold == ~uint64_t(0))
      std::snprintf(Label, sizeof(Label), "%s", "never");
    else
      std::snprintf(Label, sizeof(Label), "%llu",
                    (unsigned long long)Threshold);
    std::printf("%12s | %8llu %10llu %12llu %12llu %10llu\n", Label,
                (unsigned long long)TS.Compiles,
                (unsigned long long)TS.UnitHits,
                (unsigned long long)TS.NativeSteps,
                (unsigned long long)TS.TierTransfers,
                (unsigned long long)TS.CompiledBytesTotal);
  }
  hr();

  if (!AllMatch) {
    std::printf("\nERROR: store-backed execution diverged from eager\n");
    return 1;
  }
  std::printf("\nevery budget, page size, and tier threshold produced "
              "byte-identical output to the eager run\n");
  return 0;
}
