//===- store/Tiered.cpp - Hotness-driven tiered execution -----------------===//
//
// Part of the ccomp project (PLDI'97 "Code Compression" reproduction).
//
//===----------------------------------------------------------------------===//

#include "store/Tiered.h"

#include <chrono>

using namespace ccomp;
using namespace ccomp::store;

namespace {

uint64_t nowNanos() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

} // namespace

TieredResolver::TieredResolver(CodeStore &S, TierOptions Opts,
                               ThreadPool *Prefetch)
    : StoreBackedResolver(S, Prefetch), TO(Opts),
      Units(Opts.CompiledBudgetBytes,
            [](const UnitPtr &U) { return U->codeBytes(); }) {}

TieredResolver::~TieredResolver() = default;

bool TieredResolver::enterNative(vm::Machine &M, uint32_t &Fn, uint32_t &Idx,
                                 uint64_t &Steps) {
  // Page tracking (RunOptions::Layout) records per-instruction code
  // touches the native tier cannot observe; those runs interpret.
  if (M.options().Layout)
    return false;
  native::TierRunStats TS;
  if (!native::runTiered(M, *this, Fn, Idx, Steps, &TS))
    return false;
  NativeEnters.fetch_add(1, std::memory_order_relaxed);
  NativeSteps.fetch_add(TS.Steps, std::memory_order_relaxed);
  TierTransfers.fetch_add(TS.Transfers, std::memory_order_relaxed);
  return true;
}

Result<TieredResolver::UnitPtr> TieredResolver::compileUnit(uint32_t Fn) {
  // CompileNanos covers decode + generate, success or failure: the
  // tier paid that wall time either way. The store's own single-flight
  // dedups the decode; the unit cache dedups this whole callback.
  uint64_t T0 = nowNanos();
  UnitPtr Unit;
  Result<std::shared_ptr<const vm::VMFunction>> Body = Store.fault(Fn);
  if (Body.ok()) {
    native::GenStats G;
    Unit = std::make_shared<native::NUnit>(
        native::generateUnit(*Body.value(), Fn, &G));
  }
  CompileNanos.fetch_add(nowNanos() - T0, std::memory_order_relaxed);
  if (!Unit) {
    CompileErrors.fetch_add(1, std::memory_order_relaxed);
    return Body.error();
  }
  Compiles.fetch_add(1, std::memory_order_relaxed);
  CompiledBytesTotal.fetch_add(Unit->codeBytes(), std::memory_order_relaxed);
  return Result<UnitPtr>(std::move(Unit));
}

TieredResolver::UnitPtr TieredResolver::unitFor(uint32_t Fn) {
  // Called at tier entry and at every native cross-function transfer:
  // the hotness gate applies here too, so a callee that crossed the
  // threshold compiles at the call boundary and control never has to
  // leave the tier for it.
  if (Fn >= Store.functionCount())
    return nullptr;
  {
    std::lock_guard<std::mutex> L(Mu);
    if (Failed.count(Fn))
      return nullptr;
  }
  Cache::Info I;
  Result<UnitPtr> Out = Units.fault(
      Fn, [&] { return compileUnit(Fn); }, I,
      [&] { return Store.functionHeat(Fn) >= TO.HotThreshold; });
  UnitHits.fetch_add(I.Hits, std::memory_order_relaxed);
  SingleFlightWaits.fetch_add(I.Waits, std::memory_order_relaxed);
  if (!Out.ok()) {
    // Gate-declined is not a failure — the function is just still cold.
    // A led compile that failed is: remember it so a hot broken
    // function does not retry its decode at every entry.
    if (I.Led) {
      std::lock_guard<std::mutex> L(Mu);
      Failed.insert(Fn);
    }
    return nullptr;
  }
  return Out.take();
}

TierStats TieredResolver::tierStats() const {
  TierStats S;
  S.Compiles = Compiles.load(std::memory_order_relaxed);
  S.CompileErrors = CompileErrors.load(std::memory_order_relaxed);
  S.CompileNanos = CompileNanos.load(std::memory_order_relaxed);
  S.CompiledBytesTotal = CompiledBytesTotal.load(std::memory_order_relaxed);
  S.UnitHits = UnitHits.load(std::memory_order_relaxed);
  S.SingleFlightWaits = SingleFlightWaits.load(std::memory_order_relaxed);
  S.NativeEnters = NativeEnters.load(std::memory_order_relaxed);
  S.NativeSteps = NativeSteps.load(std::memory_order_relaxed);
  S.TierTransfers = TierTransfers.load(std::memory_order_relaxed);
  FlightCounters C = Units.counters();
  S.Evictions = C.Evictions;
  S.ResidentUnits = C.ResidentEntries;
  S.ResidentBytes = C.ResidentBytes;
  return S;
}

void TieredResolver::resetTierStats() {
  Compiles.store(0, std::memory_order_relaxed);
  CompileErrors.store(0, std::memory_order_relaxed);
  CompileNanos.store(0, std::memory_order_relaxed);
  CompiledBytesTotal.store(0, std::memory_order_relaxed);
  UnitHits.store(0, std::memory_order_relaxed);
  SingleFlightWaits.store(0, std::memory_order_relaxed);
  NativeEnters.store(0, std::memory_order_relaxed);
  NativeSteps.store(0, std::memory_order_relaxed);
  TierTransfers.store(0, std::memory_order_relaxed);
  Units.resetCounters();
}

vm::RunResult store::runTieredFromStore(CodeStore &S, TierOptions TO,
                                        vm::RunOptions Opts,
                                        TierStats *StatsOut) {
  TieredResolver Rv(S, TO);
  Opts.Resolver = &Rv;
  vm::Machine M(S.skeleton(), Opts);
  vm::RunResult Res = M.run();
  if (StatsOut)
    *StatsOut = Rv.tierStats();
  return Res;
}
