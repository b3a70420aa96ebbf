//===- store/FlightCache.h - Byte-budgeted LRU + single-flight --*- C++ -*-===//
//
// Part of the ccomp project (PLDI'97 "Code Compression" reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one cache engine behind every decode-on-fault path in the store
/// layer. Before this header existed the CodeStore's frame cache and
/// the TieredResolver's compiled-unit cache were two hand-rolled copies
/// of the same machinery (byte-budgeted LRU, pin-aware eviction,
/// single-flight dedup via shared_future); FlightCache is that
/// machinery extracted once, parameterized over the key and the cached
/// value:
///
///   - one LRU under one byte budget: a single mutex guards one map,
///     one recency list and one resident-bytes total, so resident bytes
///     stay at or under the budget except for the entry faulted in most
///     recently (and any pinned entries). A budget that holds the whole
///     working set never evicts;
///   - single-flight: N callers faulting the same key run the compute
///     callback exactly once — one leader computes outside the lock,
///     the rest block on a shared_future and observe the same outcome
///     (including a typed error);
///   - pin-aware eviction: eviction walks from the cold end, never
///     evicts the entry inserted by the fault in progress, and skips
///     pinned entries; a budget of one byte still serves;
///   - counted pins: two *tenants* pinning the same entry hold
///     independent references, and a pinned entry is never evicted, so
///     a pin holder's unpin always finds the entry it pinned;
///   - an optional admission gate, consulted only at the moment a
///     caller would become the compute leader. Callers that find the
///     value resident or an in-flight compute are served regardless —
///     this is exactly the TieredResolver's hotness-gate contract.
///
/// The cache deliberately counts only what it can observe: evictions
/// and the residency gauges. Hit/miss/wait classification is returned
/// per call in a FlightCache::Info so each caller (a tenant view over a
/// shared registry, say) attributes traffic to its *own* counters; the
/// compute callback's cost (decode time, fetch bill) is likewise the
/// caller's to measure and attribute.
///
//===----------------------------------------------------------------------===//

#ifndef CCOMP_STORE_FLIGHTCACHE_H
#define CCOMP_STORE_FLIGHTCACHE_H

#include "support/Error.h"

#include <cstdint>
#include <functional>
#include <future>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>

namespace ccomp {
namespace store {

/// Counters plus residency gauges a FlightCache maintains itself.
/// Everything per-caller (hits, misses, waits, compute cost) is
/// reported through FlightCache::Info instead.
struct FlightCounters {
  uint64_t Evictions = 0; ///< Entries evicted over budget (monotonic).
  // Gauges (current state, unaffected by resetCounters).
  uint64_t ResidentBytes = 0;
  uint64_t ResidentEntries = 0;
  uint64_t PinnedEntries = 0; ///< Entries with at least one pin.
};

/// A byte-budgeted, pin-aware LRU with single-flight compute
/// dedup. Thread-safe. \p Value must be cheap to copy (a shared_ptr in
/// both existing users).
template <typename Key, typename Value, typename Hasher = std::hash<Key>>
class FlightCache {
public:
  using Outcome = Result<Value>;
  using Compute = std::function<Outcome()>;
  using Gate = std::function<bool()>;
  using CostFn = std::function<size_t(const Value &)>;

  /// What one fault call observed, for caller-side stats attribution.
  /// Hits/Misses/Waits are counts, not flags: a pin-requesting call
  /// that waited on another caller's compute re-enters through the hit
  /// path to record its pin, observing one miss and then one hit —
  /// the same classification the pre-extraction caches produced.
  struct Info {
    unsigned Hits = 0;
    unsigned Misses = 0;
    unsigned Waits = 0;     ///< Joined another caller's in-flight compute.
    bool Led = false;       ///< This call ran the compute callback.
    bool Declined = false;  ///< The admission gate said no; nothing ran.
  };

  FlightCache(size_t BudgetBytes, CostFn Cost)
      : Cost(std::move(Cost)), Budget(BudgetBytes) {}

  /// Returns the cached value for \p K, computing it via \p Fn at most
  /// once across concurrent callers. \p AddPin requests a pin on the
  /// entry; \p Held says this caller already holds one, so re-pinning
  /// is not double-counted. \p G, when set, is consulted only if this
  /// call would become the compute leader; a false return declines the
  /// fault (Info.Declined) without computing.
  Outcome fault(const Key &K, bool AddPin, bool Held, const Compute &Fn,
                Info &I, const Gate &G = Gate()) {
    for (;;) {
      std::shared_future<Outcome> Wait;
      std::promise<Outcome> Pr;
      {
        std::lock_guard<std::mutex> L(Mu);
        auto It = Map.find(K);
        if (It != Map.end()) {
          Lru.splice(Lru.begin(), Lru, It->second.LruIt);
          ++I.Hits;
          if (AddPin && !Held && It->second.PinCount++ == 0)
            ++C.PinnedEntries;
          return Outcome(It->second.Val);
        }
        ++I.Misses;
        auto FIt = InFlight.find(K);
        if (FIt != InFlight.end()) {
          ++I.Waits;
          Wait = FIt->second;
        } else {
          if (G && !G()) {
            I.Declined = true;
            return Outcome(DecodeError("cache: admission gate declined"));
          }
          InFlight.emplace(K, Pr.get_future().share());
        }
      }
      if (Wait.valid()) {
        Outcome Out = Wait.get();
        if (!Out.ok() || !AddPin)
          return Out;
        continue; // Pin requested: record it through the hit path.
      }

      // Single-flight leader: compute outside the lock.
      I.Led = true;
      Outcome Out = [&]() -> Outcome {
        try {
          return Fn();
        } catch (const std::bad_alloc &) {
          return Outcome(DecodeError("cache: allocation failed in compute"));
        }
      }();
      {
        std::lock_guard<std::mutex> L(Mu);
        InFlight.erase(K);
        if (Out.ok()) {
          size_t Bytes = Cost(Out.value());
          auto [MIt, Inserted] = Map.emplace(K, Entry());
          (void)Inserted; // InFlight excluded any concurrent compute of K.
          MIt->second.Val = Out.value();
          MIt->second.Cost = Bytes;
          Lru.push_front(K);
          MIt->second.LruIt = Lru.begin();
          C.ResidentBytes += Bytes;
          ++C.ResidentEntries;
          if (AddPin) {
            MIt->second.PinCount = 1;
            ++C.PinnedEntries;
          }
          evictOver(K);
        }
      }
      Pr.set_value(Out);
      return Out;
    }
  }

  /// Releases one pin on \p K; a no-op when \p K holds none.
  void unpin(const Key &K) {
    std::lock_guard<std::mutex> L(Mu);
    auto It = Map.find(K);
    if (It == Map.end() || It->second.PinCount == 0)
      return;
    if (--It->second.PinCount == 0)
      --C.PinnedEntries;
  }

  /// True if \p K is resident right now (no LRU effect).
  bool resident(const Key &K) const {
    std::lock_guard<std::mutex> L(Mu);
    return Map.count(K) != 0;
  }

  FlightCounters counters() const {
    std::lock_guard<std::mutex> L(Mu);
    return C;
  }

  /// Zeroes the monotonic eviction counter; gauges are preserved.
  void resetCounters() {
    std::lock_guard<std::mutex> L(Mu);
    C.Evictions = 0;
  }

  size_t budgetBytes() const { return Budget; }

private:
  struct Entry {
    Value Val{};
    size_t Cost = 0;
    uint32_t PinCount = 0;
    typename std::list<Key>::iterator LruIt;
  };

  /// Evicts from the cold end until under budget. The entry faulted in
  /// most recently (\p Keep) is never a victim, so a budget smaller
  /// than one entry still serves; pinned entries are skipped.
  void evictOver(const Key &Keep) {
    while (C.ResidentBytes > Budget && Map.size() > 1) {
      auto VictimIt = Lru.end();
      for (auto R = Lru.rbegin(); R != Lru.rend(); ++R) {
        if (*R == Keep || Map.find(*R)->second.PinCount > 0)
          continue;
        VictimIt = std::prev(R.base());
        break;
      }
      if (VictimIt == Lru.end())
        return; // Everything else is pinned; stay over budget.
      auto MIt = Map.find(*VictimIt);
      C.ResidentBytes -= MIt->second.Cost;
      --C.ResidentEntries;
      Map.erase(MIt);
      Lru.erase(VictimIt);
      ++C.Evictions;
    }
  }

  const CostFn Cost;
  const size_t Budget;
  // Everything below is guarded by Mu.
  mutable std::mutex Mu;
  std::unordered_map<Key, Entry, Hasher> Map;
  std::list<Key> Lru; ///< Front = most recently used.
  std::unordered_map<Key, std::shared_future<Outcome>, Hasher> InFlight;
  FlightCounters C;
};

} // namespace store
} // namespace ccomp

#endif // CCOMP_STORE_FLIGHTCACHE_H
