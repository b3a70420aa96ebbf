//===- tests/test_tiered.cpp - Tiered execution equivalence ---------------===//
//
// Part of the ccomp project (PLDI'97 "Code Compression" reproduction).
//
//===----------------------------------------------------------------------===//
//
// The tier's promise: hotness-driven native execution out of the
// compressed store is byte-for-byte identical to eager interpretation —
// same output, same exit code, same Trap text, same Steps — for every
// per-function codec chain, at any page target, at generous and
// pathological budgets, and at any hot threshold (including "compile
// everything at first entry"). Plus the cache mechanics: threshold
// semantics, eviction under a 1-byte compiled budget, the failed-compile
// memo, and an 8-thread compile-vs-fault race that must stay tsan-clean
// and perform exactly one compile per function (single-flight).
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "pipeline/Pipeline.h"
#include "store/CodeStore.h"
#include "store/Resolver.h"
#include "store/Tiered.h"
#include "support/ThreadPool.h"

#include "gtest/gtest.h"

#include <thread>
#include <vector>

using namespace ccomp;
using namespace ccomp::store;
using namespace ccomp::test;

namespace {

const char *const PerFunctionChains[] = {"flate", "vm-compact", "brisc",
                                         "brisc+flate", "vm-compact+flate"};

std::unique_ptr<CodeStore> mustBuildStore(const vm::VMProgram &P,
                                          const std::string &Chain,
                                          StoreOptions Opts) {
  std::string Err;
  std::unique_ptr<CodeStore> S = CodeStore::build(P, Chain, Opts, Err);
  EXPECT_NE(S, nullptr) << Chain << ": " << Err;
  return S;
}

void expectSameRun(const vm::RunResult &Tiered, const vm::RunResult &Eager,
                   const std::string &Ctx) {
  EXPECT_EQ(Tiered.Ok, Eager.Ok) << Ctx << ": " << Tiered.Trap;
  EXPECT_EQ(Tiered.ExitCode, Eager.ExitCode) << Ctx;
  EXPECT_EQ(Tiered.Output, Eager.Output) << Ctx;
  EXPECT_EQ(Tiered.Trap, Eager.Trap) << Ctx;
  EXPECT_EQ(Tiered.Steps, Eager.Steps) << Ctx;
}

// The acceptance bar: tiered execution equals eager interpretation for
// every chain x page target x budget x threshold. Threshold 0 compiles
// every function at first entry (the whole program runs native);
// threshold 4 exercises mid-run tier transitions where a function's
// first few calls interpret and later ones run compiled.
TEST(Tiered, ExecutionMatchesEagerAcrossChainsPagesBudgetsThresholds) {
  vm::VMProgram P = buildVM(syntheticSource(10));
  vm::RunResult Eager = vm::runProgram(P);
  ASSERT_TRUE(Eager.Ok) << Eager.Trap;

  for (const char *Chain : PerFunctionChains) {
    for (size_t Target : {size_t(0), size_t(64), size_t(4096)}) {
      for (size_t Budget : {size_t(1), size_t(16) << 20}) {
        StoreOptions Opts;
        Opts.PageTargetBytes = Target;
        Opts.CacheBudgetBytes = Budget;
        std::unique_ptr<CodeStore> S = mustBuildStore(P, Chain, Opts);
        ASSERT_NE(S, nullptr);
        for (uint64_t Threshold : {uint64_t(0), uint64_t(4)}) {
          TierOptions TO;
          TO.HotThreshold = Threshold;
          TierStats TS;
          vm::RunResult R =
              runTieredFromStore(*S, TO, vm::RunOptions(), &TS);
          std::string Ctx = std::string(Chain) + " target=" +
                            std::to_string(Target) + " budget=" +
                            std::to_string(Budget) + " threshold=" +
                            std::to_string(Threshold);
          expectSameRun(R, Eager, Ctx);
          if (Threshold == 0) {
            EXPECT_GT(TS.Compiles, 0u) << Ctx;
            EXPECT_GT(TS.NativeSteps, 0u) << Ctx;
          }
        }
      }
    }
  }
}

// Steps parity at the limit: when the budgeted run hits MaxSteps the
// tier must charge exactly the same step count the interpreter does
// (the failing step is counted) and surface the same trap.
TEST(Tiered, StepLimitParity) {
  vm::VMProgram P = buildVM(syntheticSource(6));
  vm::RunOptions Lim;
  Lim.MaxSteps = 500;
  vm::RunResult Eager = vm::runProgram(P, Lim);
  ASSERT_FALSE(Eager.Ok);
  EXPECT_EQ(Eager.Trap, "step limit exceeded");

  std::unique_ptr<CodeStore> S = mustBuildStore(P, "flate", StoreOptions());
  ASSERT_NE(S, nullptr);
  TierOptions TO;
  TO.HotThreshold = 0; // Everything native: the limit trips on the tier.
  vm::RunOptions TLim;
  TLim.MaxSteps = Lim.MaxSteps;
  vm::RunResult R = runTieredFromStore(*S, TO, TLim);
  expectSameRun(R, Eager, "step-limit");
}

// Threshold semantics: with a threshold higher than any function's
// final demand heat, nothing compiles and the run is pure
// interpretation; with threshold 0 every executed function compiles.
TEST(Tiered, HotThresholdGatesCompilation) {
  vm::VMProgram P = buildVM(syntheticSource(8));
  vm::RunResult Eager = vm::runProgram(P);
  ASSERT_TRUE(Eager.Ok) << Eager.Trap;

  std::unique_ptr<CodeStore> S = mustBuildStore(P, "flate", StoreOptions());
  ASSERT_NE(S, nullptr);

  TierOptions Cold;
  Cold.HotThreshold = ~0ull;
  TierStats ColdStats;
  vm::RunResult ColdRun = runTieredFromStore(*S, Cold, {}, &ColdStats);
  expectSameRun(ColdRun, Eager, "cold-threshold");
  EXPECT_EQ(ColdStats.Compiles, 0u);
  EXPECT_EQ(ColdStats.NativeSteps, 0u);

  TierOptions Hot;
  Hot.HotThreshold = 0;
  TierStats HotStats;
  vm::RunResult HotRun = runTieredFromStore(*S, Hot, {}, &HotStats);
  expectSameRun(HotRun, Eager, "zero-threshold");
  EXPECT_GT(HotStats.Compiles, 0u);
  EXPECT_GT(HotStats.NativeSteps, 0u);
  // Single-flight + cache: at most one compile per store function.
  EXPECT_LE(HotStats.Compiles, uint64_t(S->functionCount()));
}

// Heat accounting feeds the gate: demand faults and hits both count,
// and functionHeat is monotone across runs (warmth carries over, by
// design, so a second run tiers up immediately).
TEST(Tiered, DemandHeatAccumulatesAcrossRuns) {
  vm::VMProgram P = buildVM(syntheticSource(6));
  std::unique_ptr<CodeStore> S = mustBuildStore(P, "flate", StoreOptions());
  ASSERT_NE(S, nullptr);
  ASSERT_GT(S->functionCount(), 0u);
  EXPECT_EQ(S->functionHeat(S->skeleton().Entry), 0u);

  vm::RunResult First = runFromStore(*S);
  ASSERT_TRUE(First.Ok) << First.Trap;
  uint64_t H1 = S->functionHeat(S->skeleton().Entry);
  EXPECT_GT(H1, 0u);

  vm::RunResult Second = runFromStore(*S);
  ASSERT_TRUE(Second.Ok) << Second.Trap;
  uint64_t H2 = S->functionHeat(S->skeleton().Entry);
  EXPECT_GT(H2, H1);

  // Out-of-range queries answer 0, not UB.
  EXPECT_EQ(S->functionHeat(~0u), 0u);
  EXPECT_EQ(S->frameHeat(~0u), 0u);
}

// A 1-byte compiled budget forces eviction churn (every new unit evicts
// the previous one) yet execution stays byte-identical.
TEST(Tiered, TinyCompiledBudgetEvictsButStaysCorrect) {
  vm::VMProgram P = buildVM(syntheticSource(10));
  vm::RunResult Eager = vm::runProgram(P);
  ASSERT_TRUE(Eager.Ok) << Eager.Trap;

  std::unique_ptr<CodeStore> S = mustBuildStore(P, "flate", StoreOptions());
  ASSERT_NE(S, nullptr);
  TierOptions TO;
  TO.HotThreshold = 0;
  TO.CompiledBudgetBytes = 1;
  TierStats TS;
  vm::RunResult R = runTieredFromStore(*S, TO, {}, &TS);
  expectSameRun(R, Eager, "tiny-compiled-budget");
  EXPECT_GT(TS.Evictions, 0u);
  EXPECT_LE(TS.ResidentUnits, 1u); // Only the most recent unit.
}

// A function whose frame is corrupt fails its compile once; the
// resolver remembers the failure, so later entries interpret (and trap
// with the store's typed error) instead of decoding again.
TEST(Tiered, FailedCompileIsNotRetried) {
  vm::VMProgram P = buildVM(syntheticSource(5));
  std::unique_ptr<CodeStore> Built = mustBuildStore(P, "flate", StoreOptions());
  ASSERT_NE(Built, nullptr);

  // Frame 0 is the manifest; replace the entry function's frame with
  // junk flate rejects.
  Result<pipeline::Container> Box =
      pipeline::tryUnpackContainer(Built->save());
  ASSERT_TRUE(Box.ok());
  uint32_t Victim = Built->skeleton().Entry;
  Box.value().Frames[Victim + 1] = {1, 2, 3};
  Result<std::unique_ptr<CodeStore>> L = CodeStore::tryLoad(
      pipeline::packContainer(Box.value().ChainSpec, Box.value().Frames),
      StoreOptions());
  ASSERT_TRUE(L.ok()) << L.error().message();
  std::unique_ptr<CodeStore> S = L.take();
  Result<std::shared_ptr<const vm::VMFunction>> Bad = S->fault(Victim);
  ASSERT_FALSE(Bad.ok());
  const std::string Typed = Bad.error().message();

  TierOptions TO;
  TO.HotThreshold = 0;
  TieredResolver Rv(*S, TO);
  for (int Run = 0; Run != 2; ++Run) {
    vm::RunOptions Opts;
    Opts.Resolver = &Rv;
    vm::Machine M(S->skeleton(), Opts);
    vm::RunResult R = M.run();
    EXPECT_FALSE(R.Ok) << "run " << Run;
    EXPECT_NE(R.Trap.find(Typed), std::string::npos)
        << "run " << Run << ": " << R.Trap;
  }
  EXPECT_EQ(Rv.tierStats().CompileErrors, 1u);
  EXPECT_EQ(Rv.tierStats().Compiles, 0u);
}

// Stats reset preserves residency gauges while zeroing the counters.
TEST(Tiered, ResetTierStatsPreservesGauges) {
  vm::VMProgram P = buildVM(syntheticSource(6));
  std::unique_ptr<CodeStore> S = mustBuildStore(P, "flate", StoreOptions());
  ASSERT_NE(S, nullptr);
  TierOptions TO;
  TO.HotThreshold = 0;
  TieredResolver Rv(*S, TO);
  vm::RunOptions Opts;
  Opts.Resolver = &Rv;
  vm::Machine M(S->skeleton(), Opts);
  ASSERT_TRUE(M.run().Ok);

  TierStats Before = Rv.tierStats();
  ASSERT_GT(Before.Compiles, 0u);
  ASSERT_GT(Before.ResidentUnits, 0u);
  Rv.resetTierStats();
  TierStats After = Rv.tierStats();
  EXPECT_EQ(After.Compiles, 0u);
  EXPECT_EQ(After.NativeSteps, 0u);
  EXPECT_EQ(After.ResidentUnits, Before.ResidentUnits);
  EXPECT_EQ(After.ResidentBytes, Before.ResidentBytes);
}

// Tiering and predictive prefetch compose: a TieredResolver with a
// prefetch pool warms predicted successors on the faults the
// interpreter still takes, while hot functions compile and run native.
// Prefetch warms race the compile path's own faults on the pool's
// threads, so the tsan preset runs this too. In the second program
// main's one page calls `cold`, which never runs: the warm of its page
// is the only fault it ever sees, so PrefetchDecodes > 0 whatever the
// interleaving.
TEST(Tiered, PrefetchPoolComposesWithTier) {
  const std::string ColdCall = R"(
    int cold(int x) { print_int(x * 3); return x; }
    int hot(int x) { return x + 1; }
    int main(void) {
      int i; int s;
      s = 0;
      for (i = 0; i < 64; i++) s = hot(s);
      if (s < 0) s = cold(s);
      print_int(s);
      return 0;
    })";
  const struct {
    std::string Src;
    size_t PageTarget;
  } Cases[] = {{syntheticSource(10), 64}, {ColdCall, 4096}};
  for (const auto &C : Cases) {
    vm::VMProgram P = buildVM(C.Src);
    vm::RunResult Eager = vm::runProgram(P);
    ASSERT_TRUE(Eager.Ok) << Eager.Trap;

    StoreOptions SO;
    SO.PageTargetBytes = C.PageTarget;
    std::unique_ptr<CodeStore> S = mustBuildStore(P, "brisc+flate", SO);
    ASSERT_NE(S, nullptr);
    ASSERT_TRUE(S->paged());

    ThreadPool Pool(2);
    TierOptions TO;
    TO.HotThreshold = 2;
    TieredResolver Rv(*S, TO, &Pool);
    for (int Rep = 0; Rep != 2; ++Rep) {
      vm::RunOptions O;
      O.Resolver = &Rv;
      vm::Machine M(S->skeleton(), O);
      vm::RunResult R = M.run();
      Pool.wait();
      expectSameRun(R, Eager, "page target " + std::to_string(C.PageTarget) +
                                  " rep " + std::to_string(Rep));
    }
    EXPECT_GT(Rv.tierStats().Compiles, 0u) << C.PageTarget;
    EXPECT_GT(Rv.tierStats().NativeSteps, 0u) << C.PageTarget;
    if (C.Src == ColdCall)
      EXPECT_GT(S->stats().PrefetchDecodes, 0u);
  }
}

// The race the issue calls out: 8 threads enter hot functions through
// one shared TieredResolver while the store is also servicing their
// interpretation faults. Every thread's run must equal the eager run,
// and single-flight must hold — no function compiles twice. Run under
// the tsan preset this must be clean.
TEST(Tiered, ConcurrentMachinesShareOneCompilePerFunction) {
  vm::VMProgram P = buildVM(syntheticSource(10));
  vm::RunResult Eager = vm::runProgram(P);
  ASSERT_TRUE(Eager.Ok) << Eager.Trap;

  StoreOptions SO;
  SO.PageTargetBytes = 256; // Page-granular faults race the compiles.
  std::unique_ptr<CodeStore> S = mustBuildStore(P, "flate", SO);
  ASSERT_NE(S, nullptr);

  TierOptions TO;
  TO.HotThreshold = 2;
  TieredResolver Rv(*S, TO);

  constexpr unsigned Threads = 8;
  std::vector<vm::RunResult> Results(Threads);
  {
    std::vector<std::thread> Pool;
    for (unsigned T = 0; T != Threads; ++T)
      Pool.emplace_back([&, T] {
        vm::RunOptions Opts;
        Opts.Resolver = &Rv;
        vm::Machine M(S->skeleton(), Opts);
        Results[T] = M.run();
      });
    for (std::thread &Th : Pool)
      Th.join();
  }
  for (unsigned T = 0; T != Threads; ++T)
    expectSameRun(Results[T], Eager, "thread " + std::to_string(T));

  TierStats TS = Rv.tierStats();
  EXPECT_LE(TS.Compiles, uint64_t(S->functionCount()))
      << "single-flight violated: some function compiled twice";
  EXPECT_GT(TS.Compiles, 0u);
}

} // namespace
