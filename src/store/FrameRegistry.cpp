//===- store/FrameRegistry.cpp - Process-wide shared frame cache ----------===//
//
// Part of the ccomp project (PLDI'97 "Code Compression" reproduction).
//
//===----------------------------------------------------------------------===//

#include "store/FrameRegistry.h"

#include "store/CodeStore.h"

#include <algorithm>
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

ModuleHeat::ModuleHeat(ModuleIdent Ident) : Id(std::move(Ident)) {
  uint32_t NF = std::max<uint32_t>(1, Id.FrameCount);
  uint32_t NFn = std::max<uint32_t>(1, Id.FuncCount);
  FrameHeat = std::make_unique<std::atomic<uint64_t>[]>(NF);
  FuncHeat = std::make_unique<std::atomic<uint64_t>[]>(NFn);
  for (uint32_t I = 0; I != NF; ++I)
    FrameHeat[I].store(0, std::memory_order_relaxed);
  for (uint32_t I = 0; I != NFn; ++I)
    FuncHeat[I].store(0, std::memory_order_relaxed);
}

FrameRegistry::FrameRegistry(RegistryOptions O)
    : Opts(O), C(O.CacheBudgetBytes,
                 [](const Body &B) { return decodedCostBytes(*B); }) {}

Result<std::shared_ptr<ModuleHeat>>
FrameRegistry::registerModule(uint64_t Hash, const ModuleIdent &Id) {
  std::lock_guard<std::mutex> L(ModMu);
  auto It = Modules.find(Hash);
  if (It == Modules.end()) {
    auto Heat = std::make_shared<ModuleHeat>(Id);
    Modules.emplace(Hash, Heat);
    return Result<std::shared_ptr<ModuleHeat>>(std::move(Heat));
  }
  if (!(It->second->ident() == Id))
    return DecodeError(
        "registry: container hash collision — a module with this hash is "
        "already registered with a different shape (chain '" +
        It->second->ident().ChainSpec + "', " +
        std::to_string(It->second->ident().FrameCount) +
        " frames); refusing to share frames with '" + Id.ChainSpec + "', " +
        std::to_string(Id.FrameCount) + " frames");
  return Result<std::shared_ptr<ModuleHeat>>(It->second);
}

FrameRegistry::Outcome FrameRegistry::fault(const FrameKey &K, bool Prefetch,
                                            const Decoder &Decode, Info &I) {
  Outcome Out = C.fault(
      K,
      [&]() -> Outcome {
        // Leader: the tenant fetches through its own transport and
        // decodes; the registry bills the decode once, process-wide.
        bool DecoderRan = false;
        uint64_t T0 = nowNanos();
        Outcome R = Decode(DecoderRan);
        uint64_t Nanos = nowNanos() - T0;
        if (DecoderRan) {
          Decodes.fetch_add(1, std::memory_order_relaxed);
          if (Prefetch)
            PrefetchDecodes.fetch_add(1, std::memory_order_relaxed);
          DecodeNanos.fetch_add(Nanos, std::memory_order_relaxed);
        }
        if (!R.ok())
          DecodeErrors.fetch_add(1, std::memory_order_relaxed);
        else
          DecodedBytes.fetch_add(decodedCostBytes(*R.value()),
                                 std::memory_order_relaxed);
        return R;
      },
      I);
  return Out;
}

RegistryStats FrameRegistry::stats() const {
  RegistryStats S;
  S.Decodes = Decodes.load(std::memory_order_relaxed);
  S.PrefetchDecodes = PrefetchDecodes.load(std::memory_order_relaxed);
  S.DecodeErrors = DecodeErrors.load(std::memory_order_relaxed);
  S.DecodeNanos = DecodeNanos.load(std::memory_order_relaxed);
  S.DecodedBytes = DecodedBytes.load(std::memory_order_relaxed);
  FlightCounters FC = C.counters();
  S.Evictions = FC.Evictions;
  S.ResidentBytes = FC.ResidentBytes;
  S.ResidentFrames = FC.ResidentEntries;
  {
    std::lock_guard<std::mutex> L(ModMu);
    S.Modules = Modules.size();
  }
  return S;
}

void FrameRegistry::resetStats() {
  Decodes.store(0, std::memory_order_relaxed);
  PrefetchDecodes.store(0, std::memory_order_relaxed);
  DecodeErrors.store(0, std::memory_order_relaxed);
  DecodeNanos.store(0, std::memory_order_relaxed);
  DecodedBytes.store(0, std::memory_order_relaxed);
  C.resetCounters();
}
