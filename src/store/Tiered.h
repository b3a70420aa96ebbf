//===- store/Tiered.h - Hotness-driven tiered execution ---------*- C++ -*-===//
//
// Part of the ccomp project (PLDI'97 "Code Compression" reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's endgame wired together: interpret cold code straight out
/// of the compressed store, and JIT what gets hot. A TieredResolver
/// layers the native tier on StoreBackedResolver's fault path through
/// the vm::FunctionResolver::enterNative hook — at every cross-function
/// transfer the interpreter makes, the resolver checks whether the
/// target function's demand heat (CodeStore::functionHeat, fed by the
/// page cache's fault/hit counters) has crossed HotThreshold, compiles
/// the decoded body to a native::NUnit when it has, and runs compiled
/// functions on the threaded backend until control reaches a cold one.
///
/// Compiled units live in their own pin-aware LRU cache beside the
/// decode cache — the same store::FlightCache engine the FrameRegistry
/// runs on, instantiated over (function id -> compiled unit):
/// byte-budgeted, single-flighted (N threads racing a hot
/// function produce exactly one compile), with pinCompiled/unpinCompiled
/// mirroring the decode cache's pin semantics and the hotness gate
/// expressed as the cache's admission gate (consulted only when a call
/// would become the compile leader). Fall-back rules: a function with
/// no unit (cold, over-budget-evicted, or failed to decode) interprets
/// via the span path; traps and halts inside compiled code commit back
/// to the Machine so RunResults are byte-identical to interpret-only
/// execution.
///
//===----------------------------------------------------------------------===//

#ifndef CCOMP_STORE_TIERED_H
#define CCOMP_STORE_TIERED_H

#include "native/Tiered.h"
#include "store/CodeStore.h"
#include "store/FlightCache.h"
#include "store/Resolver.h"

#include <atomic>
#include <memory>
#include <mutex>
#include <unordered_set>

namespace ccomp {
namespace store {

/// Tiering knobs.
struct TierOptions {
  /// Compile a function once its demand heat (page faults + hits) is at
  /// least this. 0 compiles at first entry.
  uint64_t HotThreshold = 8;
  /// Byte budget for compiled units. Like the decode cache's budget,
  /// it is a target: the most recently compiled unit is never evicted,
  /// and pinned units are skipped.
  size_t CompiledBudgetBytes = 16u << 20;
};

/// Monotonic counters plus gauges for the compiled-code cache. The
/// counters are relaxed atomics and the gauges live in the unit cache,
/// so tierStats() snapshots are approximate-but-monotone under
/// concurrency (each field is exact; cross-field skew is possible).
struct TierStats {
  uint64_t Compiles = 0;          ///< Units generated (one per function).
  uint64_t CompileErrors = 0;     ///< Decode failures on the compile path.
  uint64_t CompileNanos = 0;      ///< Wall time inside generateUnit + decode.
  uint64_t CompiledBytesTotal = 0; ///< Bytes of threaded code produced.
  uint64_t UnitHits = 0;          ///< Unit lookups served from the cache.
  uint64_t SingleFlightWaits = 0; ///< Lookups that waited on another compile.
  uint64_t Evictions = 0;         ///< Units evicted over budget.
  uint64_t NativeEnters = 0;      ///< enterNative calls that ran natively.
  uint64_t NativeSteps = 0;       ///< Instructions executed on the tier.
  uint64_t TierTransfers = 0;     ///< Cross-function transfers taken natively.
  // Gauges (current state, unaffected by resetTierStats).
  uint64_t ResidentUnits = 0;
  uint64_t ResidentBytes = 0;
  uint64_t PinnedUnits = 0;
};

/// StoreBackedResolver plus the native tier. Thread-safe like its base:
/// one TieredResolver may serve several Machines concurrently, and the
/// compiled cache single-flights so each function compiles once. A \p
/// Prefetch pool turns on the base's predictive prefetch for the faults
/// the interpreter still takes.
class TieredResolver : public StoreBackedResolver,
                       private native::UnitSource {
public:
  explicit TieredResolver(CodeStore &S, TierOptions TO = TierOptions(),
                          ThreadPool *Prefetch = nullptr);
  ~TieredResolver() override;

  /// The tier gate. Declines (interprets) when the run needs
  /// interpreter-only instrumentation (page tracking via
  /// RunOptions::Layout); otherwise compiles-on-hot and executes.
  bool enterNative(vm::Machine &M, uint32_t &Fn, uint32_t &Idx,
                   uint64_t &Steps) override;

  /// Compiles \p Fn now (ignoring HotThreshold) and marks its unit
  /// pinned: never evicted over budget. Returns false if the body
  /// cannot be decoded.
  bool pinCompiled(uint32_t Fn);
  void unpinCompiled(uint32_t Fn);

  /// True if \p Fn's unit is resident right now (no LRU effect).
  bool isCompiled(uint32_t Fn) const;

  const TierOptions &tierOptions() const { return TO; }
  TierStats tierStats() const;
  /// Zeroes the monotonic counters; residency gauges are preserved.
  void resetTierStats();

private:
  using UnitPtr = std::shared_ptr<const native::NUnit>;
  using Cache = FlightCache<uint32_t, UnitPtr>;

  /// native::UnitSource for runTiered: cache lookup without the
  /// hotness gate (already-compiled functions stay native even when an
  /// entry's heat is below threshold).
  UnitPtr unitFor(uint32_t Fn) override;

  /// The compile path: cache lookup, hotness gate (bypassed when \p
  /// Force), single-flight compile through the unit cache.
  UnitPtr unitForExecution(uint32_t Fn, bool Force, bool Pin);
  /// The compile leader's callback: decode the body, generate the unit,
  /// bill the compile counters.
  Result<UnitPtr> compileUnit(uint32_t Fn);

  TierOptions TO;
  /// The compiled-unit cache: one LRU under CompiledBudgetBytes, pins
  /// always honored.
  Cache Units;

  // Monotonic counters, accumulated relaxed (see TierStats).
  mutable std::atomic<uint64_t> Compiles{0};
  mutable std::atomic<uint64_t> CompileErrors{0};
  mutable std::atomic<uint64_t> CompileNanos{0};
  mutable std::atomic<uint64_t> CompiledBytesTotal{0};
  mutable std::atomic<uint64_t> UnitHits{0};
  mutable std::atomic<uint64_t> SingleFlightWaits{0};
  mutable std::atomic<uint64_t> NativeEnters{0};
  mutable std::atomic<uint64_t> NativeSteps{0};
  mutable std::atomic<uint64_t> TierTransfers{0};

  /// Guards Failed and PinHeld. Held across a pinning fault (lock order
  /// Mu -> cache locks) so two threads pinning one function take
  /// exactly one cache reference; the compile callback touches only the
  /// atomics above, so no cycle closes.
  mutable std::mutex Mu;
  /// Functions whose body failed to decode on the compile path: do not
  /// retry every entry, the interpreter's own fault will surface the
  /// typed error.
  std::unordered_set<uint32_t> Failed;
  /// Functions this resolver holds a pin on in the unit cache.
  std::unordered_set<uint32_t> PinHeld;
};

/// Convenience: run the store's program end-to-end with tiering.
/// Opts.Resolver is overwritten. \p StatsOut (optional) receives the
/// final tier stats.
vm::RunResult runTieredFromStore(CodeStore &S, TierOptions TO,
                                 vm::RunOptions Opts = vm::RunOptions(),
                                 TierStats *StatsOut = nullptr);

} // namespace store
} // namespace ccomp

#endif // CCOMP_STORE_TIERED_H
