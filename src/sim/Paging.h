//===- sim/Paging.h - Demand-paging simulation ------------------*- C++ -*-===//
//
// Part of the ccomp project (PLDI'97 "Code Compression" reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// An LRU demand-paging simulator over code-page reference strings
/// (produced by the execution engines' page tracking). Reproduces the
/// introduction's motivating measurement: when memory is scarce the CPU
/// idles during paging, so executing compressed code — fewer, denser
/// pages — can cut total time even though each instruction costs more
/// to interpret.
///
//===----------------------------------------------------------------------===//

#ifndef CCOMP_SIM_PAGING_H
#define CCOMP_SIM_PAGING_H

#include <cstdint>
#include <vector>

namespace ccomp {
namespace sim {

/// Result of replaying a page reference string.
struct PagingResult {
  uint64_t References = 0;
  uint64_t Faults = 0;
};

/// Replays \p Trace (a run-length page reference string: successive
/// entries are distinct pages) against an LRU-managed resident set of
/// \p ResidentPages frames.
PagingResult simulateLRU(const std::vector<uint32_t> &Trace,
                         unsigned ResidentPages);

/// Disk/backing-store model for turning faults into time.
struct DiskModel {
  double FaultSeconds = 0.012; ///< ~12ms seek+read, period-accurate.
  /// Sequential transfer rate for the bytes a fault reads, used by the
  /// page-granularity model where fault payloads vary in size (~2 MB/s,
  /// period-accurate commodity disk).
  double TransferBytesPerSecond = 2e6;
};

/// JIT cost model: what compiling hot code to native form charges. The
/// paper's generator produces ~2.5 MB/s of native code, so a tiered run
/// pays CompiledBytes / BytesPerSecond of CPU before the hot set runs
/// at native speed.
struct JitModel {
  double BytesPerSecond = 2.5e6; ///< Paper's JIT rate headline.
};

/// What one run spent, in the units the stats structs record. Every
/// term defaults to zero; a configuration fills the ones it pays:
///   - disk paging (simulateLRU): CpuSeconds, Faults;
///   - a decode-on-fault store: + FetchedBytes at page granularity,
///     where the read size varies with the page;
///   - a remote store: CpuSeconds and FetchVirtualNanos (the frame
///     source's virtual link clock: transfer, failures, backoff);
///   - a shared registry: Faults = registry-global decodes, since a
///     frame decoded for one tenant is a free hit for every other;
///   - tiered execution: + CompiledBytes.
/// DecodeNanos is decode time spent *outside* CpuSeconds. A timed
/// store run already decodes every fault inline, so it leaves this
/// zero; a run timed warm, with its decodes outside the timed region,
/// adds them back here.
struct CostInputs {
  double CpuSeconds = 0;
  uint64_t Faults = 0;            ///< Each pays DiskModel::FaultSeconds.
  uint64_t FetchedBytes = 0;      ///< At DiskModel::TransferBytesPerSecond.
  uint64_t FetchVirtualNanos = 0; ///< Virtual link time.
  uint64_t DecodeNanos = 0;       ///< Decode time not inside CpuSeconds.
  uint64_t CompiledBytes = 0;     ///< At JitModel::BytesPerSecond.
};

/// Total-time model: CPU execution time plus fault service time. The
/// CPU is idle during paging (the paper's observation), so the terms
/// add.
struct TotalTime {
  double CpuSeconds = 0;    ///< Execution, decode and compile.
  double PagingSeconds = 0; ///< Seeks, transfer and link time.
  double total() const { return CpuSeconds + PagingSeconds; }
};

inline TotalTime totalTime(const CostInputs &In,
                           const DiskModel &D = DiskModel(),
                           const JitModel &J = JitModel()) {
  return {In.CpuSeconds + static_cast<double>(In.DecodeNanos) / 1e9 +
              static_cast<double>(In.CompiledBytes) / J.BytesPerSecond,
          static_cast<double>(In.Faults) * D.FaultSeconds +
              static_cast<double>(In.FetchedBytes) / D.TransferBytesPerSecond +
              static_cast<double>(In.FetchVirtualNanos) / 1e9};
}

} // namespace sim
} // namespace ccomp

#endif // CCOMP_SIM_PAGING_H
