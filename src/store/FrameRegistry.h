//===- store/FrameRegistry.h - Process-wide shared frame cache --*- C++ -*-===//
//
// Part of the ccomp project (PLDI'97 "Code Compression" reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The multi-tenant core of the code store: a process-scoped,
/// content-addressed registry of decoded frames keyed by
/// (container hash, frame id). N CodeStore views serving the *same*
/// module (same container hash, computed from the CCPK bytes at
/// build/load time and carried in manifest v3) share one decode, one
/// resident copy, and one global byte budget; tenants of *different*
/// modules can share the budget but never each other's frames — their
/// hashes differ, so their keys cannot collide.
///
/// Division of labor with CodeStore:
///   - the registry owns what is inherently per-module-content or
///     process-global: the FlightCache of decoded bodies (one
///     byte-budgeted LRU + single-flight), decode execution
///     counters (Decodes, DecodeNanos, DecodedBytes, evictions), and
///     the per-module heat tables (demand-touch counters gate the
///     tiered JIT, so two tenants hammering one module pool their
///     heat);
///   - the CodeStore tenant owns what is per-client: its FrameSource
///     and RetryPolicy (the registry never fetches — the faulting
///     tenant fetches through *its own* transport and hands the
///     registry a decode callback) and its traffic counters
///     (hits/misses/waits/fetch bill), classified from the per-call
///     FlightCache::Info.
///
/// Sharing is safe because decoded bodies are immutable
/// (shared_ptr<const VMFunction>) and keys are content-addressed: a
/// tenant can only ever be served bytes that decode from a container
/// hashing to its own module's hash. registerModule() additionally
/// pins down the module's shape (chain spec, frame/function counts,
/// granularity) the first time a hash appears, and rejects a
/// same-hash registration with a different shape as a typed error —
/// a doctored manifest claiming another module's hash cannot poison
/// that module's resident frames.
///
/// resetStats() on the registry zeroes the monotonic decode counters
/// but never the heat tables (they are the tiered runtime's
/// access-pattern signal) and never a tenant's own counters; a tenant's
/// resetStats() conversely never touches a *shared* registry.
///
//===----------------------------------------------------------------------===//

#ifndef CCOMP_STORE_FRAMEREGISTRY_H
#define CCOMP_STORE_FRAMEREGISTRY_H

#include "store/FlightCache.h"
#include "support/Error.h"
#include "support/PRNG.h"

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

namespace ccomp {

namespace vm {
struct VMFunction;
}

namespace store {

/// Registry construction knobs. These govern the *process-wide* cache;
/// a CodeStore joining a shared registry brings its own FrameSource and
/// RetryPolicy but inherits the registry's budget.
struct RegistryOptions {
  /// Total decoded-bytes budget across every tenant and module, kept by
  /// one LRU. A target, not a hard cap: the entry faulted in most
  /// recently is never evicted.
  size_t CacheBudgetBytes = 1u << 20;
};

/// Registry-global counters and gauges. Decode counters are
/// process-wide by design: the decode ran once no matter how many
/// tenants benefit, so it is counted once, here — per-tenant StoreStats
/// carry the traffic (hit/miss/fetch) attribution instead.
struct RegistryStats {
  uint64_t Decodes = 0;         ///< All decodes executed (demand + prefetch).
  uint64_t PrefetchDecodes = 0; ///< Decodes whose leader was a prefetch warm.
  uint64_t DecodeErrors = 0;    ///< Leader faults that failed (fetch or decode).
  uint64_t DecodeNanos = 0;     ///< Wall time inside frame decodes.
  uint64_t DecodedBytes = 0;    ///< Decoded cost bytes produced by decodes.
  uint64_t Evictions = 0;
  // Gauges (current state, unaffected by resetStats).
  uint64_t ResidentBytes = 0;
  uint64_t ResidentFrames = 0;
  uint64_t Modules = 0; ///< Distinct container hashes registered.
};

/// The registry's content-addressed key: which module, which frame.
struct FrameKey {
  uint64_t Hash = 0;  ///< Container content hash (pipeline::hashContainerFrames).
  uint32_t Frame = 0; ///< Frame id within the module (function or page).

  bool operator==(const FrameKey &O) const {
    return Hash == O.Hash && Frame == O.Frame;
  }
};

struct FrameKeyHasher {
  size_t operator()(const FrameKey &K) const {
    return static_cast<size_t>(mix64(K.Hash ^ K.Frame));
  }
};

/// The shape of a module behind a container hash, fixed at first
/// registration. A second registration of the same hash must present
/// the same shape; anything else is treated as a forged or corrupt
/// manifest and rejected typed before it can touch the cache.
struct ModuleIdent {
  std::string ChainSpec;
  uint32_t FrameCount = 0; ///< Pages when paged, else functions.
  uint32_t FuncCount = 0;
  bool Paged = false;

  bool operator==(const ModuleIdent &O) const {
    return ChainSpec == O.ChainSpec && FrameCount == O.FrameCount &&
           FuncCount == O.FuncCount && Paged == O.Paged;
  }
};

/// Per-module demand-heat tables, shared by every tenant of the module:
/// demand touches (hits + misses, prefetch excluded) per frame and per
/// owning function, accumulated relaxed — the values only gate when a
/// function is worth compiling, so ordering does not matter. Owned by
/// the registry so heat survives any single tenant and pools across
/// tenants; never cleared by resetStats.
class ModuleHeat {
public:
  explicit ModuleHeat(ModuleIdent Id);

  const ModuleIdent &ident() const { return Id; }

  /// One demand touch of frame \p Frame belonging to function \p Fn.
  void touch(uint32_t Frame, uint32_t Fn) {
    if (Frame < Id.FrameCount)
      FrameHeat[Frame].fetch_add(1, std::memory_order_relaxed);
    if (Fn < Id.FuncCount)
      FuncHeat[Fn].fetch_add(1, std::memory_order_relaxed);
  }

  uint64_t frameHeat(uint32_t Frame) const {
    return Frame < Id.FrameCount
               ? FrameHeat[Frame].load(std::memory_order_relaxed)
               : 0;
  }
  uint64_t functionHeat(uint32_t Fn) const {
    return Fn < Id.FuncCount ? FuncHeat[Fn].load(std::memory_order_relaxed)
                             : 0;
  }

private:
  ModuleIdent Id;
  std::unique_ptr<std::atomic<uint64_t>[]> FrameHeat;
  std::unique_ptr<std::atomic<uint64_t>[]> FuncHeat;
};

/// The process-wide decoded-frame cache. Thread-safe; one instance may
/// serve any number of CodeStore tenants concurrently. Constructed
/// explicitly and injected via StoreOptions::SharedRegistry — there is
/// deliberately no ambient global instance, so tests and benchmarks
/// control exactly which stores share.
class FrameRegistry {
public:
  using Body = std::shared_ptr<const vm::VMFunction>;
  using Outcome = Result<Body>;
  using Cache = FlightCache<FrameKey, Body, FrameKeyHasher>;
  using Info = Cache::Info;

  /// The tenant's fetch+decode callback. \p DecoderRan must be set true
  /// when the frame's bytes were fetched and the decoder actually
  /// executed (successfully or not), and left false when the fetch
  /// itself failed — the registry only bills Decodes/DecodeNanos for
  /// decoder executions, keeping the fetch-failure/decode-error split
  /// exact.
  using Decoder = std::function<Outcome(bool &DecoderRan)>;

  explicit FrameRegistry(RegistryOptions O = RegistryOptions());

  /// Registers module \p Hash with shape \p Id, returning its shared
  /// heat table. The first registration of a hash fixes the shape;
  /// a later registration with a different shape fails typed (see file
  /// comment). Idempotent otherwise — every tenant of a module calls
  /// this and receives the same table.
  Result<std::shared_ptr<ModuleHeat>> registerModule(uint64_t Hash,
                                                     const ModuleIdent &Id);

  /// Faults (Hash, Frame): returns the resident body or runs \p Decode
  /// exactly once across all concurrent tenants. The returned \p I is
  /// FlightCache semantics — the caller attributes I.Hits/Misses/Waits
  /// to its own counters. \p Prefetch only affects how a *led* decode
  /// is billed (PrefetchDecodes).
  Outcome fault(const FrameKey &K, bool Prefetch, const Decoder &Decode,
                Info &I);

  bool resident(const FrameKey &K) const { return C.resident(K); }

  RegistryStats stats() const;
  /// Zeroes the monotonic counters; gauges and heat tables survive.
  void resetStats();

  /// The configured byte budget.
  size_t cacheBudgetBytes() const { return C.budgetBytes(); }

  const RegistryOptions &options() const { return Opts; }

private:
  RegistryOptions Opts;
  Cache C;

  mutable std::mutex ModMu;
  std::unordered_map<uint64_t, std::shared_ptr<ModuleHeat>> Modules;

  // Decode billing, accumulated relaxed outside the cache locks.
  std::atomic<uint64_t> Decodes{0};
  std::atomic<uint64_t> PrefetchDecodes{0};
  std::atomic<uint64_t> DecodeErrors{0};
  std::atomic<uint64_t> DecodeNanos{0};
  std::atomic<uint64_t> DecodedBytes{0};
};

} // namespace store
} // namespace ccomp

#endif // CCOMP_STORE_FRAMEREGISTRY_H
