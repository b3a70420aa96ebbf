//===- perfbench/bench.h - Shared benchmark plumbing ------------*- C++ -*-===//
//
// Part of the ccomp project (PLDI'97 "Code Compression" reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// What every workload of the repository benchmark shares: the run
/// configuration, the metric tables (their names and units are the
/// contract with BENCHMARK.json), a results sink, percentiles that refuse
/// to extrapolate, reference checks against eager interpretation, the
/// closed-loop op driver, and counter snapshots of the layers that
/// publish stats.
///
//===----------------------------------------------------------------------===//

#ifndef CCOMP_PERFBENCH_BENCH_H
#define CCOMP_PERFBENCH_BENCH_H

#include "pipeline/Codec.h"
#include "store/CodeStore.h"
#include "vm/Machine.h"
#include "vm/Program.h"

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace ccomp {
namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double secondsSince(Clock::time_point T0) {
  return std::chrono::duration<double>(Clock::now() - T0).count();
}

/// CPU time used so far by the calling thread, and by the whole process
/// (every thread), in seconds. Set-up, builds and compute-bound ops are
/// timed by CPU time, which leaves out the time the thread waited for a
/// CPU or its virtual CPU was stolen by the host; see README.md.
double threadCpuSeconds();
double processCpuSeconds();

/// Gauges how fast the CPU runs code right now. The host this benchmark
/// was written on switches each virtual CPU between a fast and a slow
/// state (interpreter loops run up to 1.45x slower) for seconds to
/// minutes at a time, so CPU time alone still moves with the host's load.
/// sample() times a fixed reference loop (a switch-dispatched loop of
/// table updates that uses no ccomp code, so no change to the program
/// can move it) on the calling thread. A time measured on that thread
/// around the recent samples, multiplied by scale(), is reference time:
/// the time at the speed at which the loop takes NominalMs.
class SpeedGauge {
public:
  static constexpr double NominalMs = 1.1;

  /// Times the reference loop once (about a millisecond).
  void sample();
  /// NominalMs over the median of the last three samples (1 before any).
  double scale() const;

private:
  double Last[3] = {0, 0, 0};
  unsigned Count = 0;
};

/// Runs \p Fn and returns its reference CPU time: the process CPU time it
/// used (all threads), scaled to the reference speed by the median of
/// SpeedGauge loop samples taken before it, after it, and every 100 ms of
/// process CPU time while it runs. Those in between come from a SIGPROF
/// handler on whichever thread is running, so a build that runs for
/// seconds on several threads is gauged on the CPUs doing its work. The
/// gauge's own CPU time is left out. Calls may nest.
double referenceCpuSeconds(const std::function<void()> &Fn);

/// Command-line configuration of one run.
struct Config {
  std::string Workload;
  uint64_t Seed = 0;
  double Seconds = 10;
  bool Trace = false;
  std::string OutDir = ".bench_out"; ///< Span dumps and exact-count files.
  unsigned Jobs = 4; ///< Load threads / build jobs: min(4, nproc).
};

/// Set-up repetitions per run; set-up time is their median.
constexpr unsigned SetupReps = 3;

/// Seeded inputs. A run draws K programs of a size class: program I of
/// --seed N is corpus::synthesize(Functions, Base + N * K + I), with Base
/// 2001 for icc (700 functions) and 1997 for wep (120 functions), so the
/// default seed 0 starts with corpus::sizeClassSource's icc and wep. Ops
/// cycle through the K programs: one synthesized program's run length
/// varies with its seed by a fifth either way, K of them average that out.
constexpr unsigned IccFunctions = 700;
constexpr unsigned WepFunctions = 120;
constexpr uint64_t IccSeedBase = 2001;
constexpr uint64_t WepSeedBase = 1997;
inline uint64_t programSeed(uint64_t Base, uint64_t Seed, unsigned K,
                            unsigned I) {
  return Base + Seed * K + I;
}

/// The per-page-selected image (build job 3, and fault's image): 256 B
/// pages, primary vm-compact, four candidate chains.
constexpr size_t PageTarget = 256;
constexpr const char *PerPagePrimary = "vm-compact";
store::StoreOptions perPageOptions(unsigned Jobs);

/// The registry codecs the per-layer table breaks out.
extern const std::vector<std::string> LayerCodecs;

/// One metric of the output table.
struct MetricDef {
  std::string Name;
  std::string Unit;
};
const std::vector<MetricDef> &endToEndMetrics();
const std::vector<MetricDef> &layerMetrics();

/// What a workload hands back. Values are keyed by metric name; the
/// driver fills absent per-layer metrics with 0 (the layer did no work).
struct Outcome {
  std::map<std::string, double> Values;
  std::map<std::string, uint64_t> Samples; ///< Sample count behind a value.
  std::map<std::string, bool> TooFew; ///< Percentile lacks 10 samples beyond.
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  std::vector<std::string> Problems; ///< Correctness failures (non-empty =
                                     ///< incorrect run).
  /// Counts that must repeat exactly from run to run (per-layer names).
  std::vector<std::string> ExactNames;

  void set(const std::string &Name, double V, uint64_t N = 0) {
    Values[Name] = V;
    if (N)
      Samples[Name] = N;
  }
  /// Sets percentile \p Q of \p Sorted (ascending) under \p Name,
  /// recording the sample count and whether ten samples lie beyond it.
  void setPercentile(const std::string &Name, const std::vector<double> &Sorted,
                     double Q);
  void problem(const std::string &Msg) { Problems.push_back(Msg); }
};

/// Linear-interpolated percentile of an ascending vector (0 if empty).
double percentile(const std::vector<double> &Sorted, double Q);

/// True when at least ten of \p N samples lie beyond percentile \p Q.
inline bool tenBeyond(size_t N, double Q) {
  return static_cast<double>(N) * (1.0 - Q) >= 10.0 - 1e-9;
}

/// Median of a copy.
double median(std::vector<double> V);

/// VmHWM of this process, in MiB.
double peakRssMiB();

/// The eager-interpretation result every store-backed run must equal.
struct Reference {
  std::string Output;
  int32_t ExitCode = 0;
  uint64_t Steps = 0;
};
Reference eagerReference(const vm::VMProgram &P);
bool matches(const vm::RunResult &R, const Reference &E);

/// Fixed-width VM bytes of a program (the paper's "uncompressed" size).
size_t fixedWidthBytes(const vm::VMProgram &P);

/// Outcome of one op in the closed loop.
enum class OpStatus { Ok, Failed, Mismatch };

/// Latencies and failure counts of one timed region.
struct LoopResult {
  /// Successful op latencies grouped by program (op id mod the loop's
  /// cycle; one group without a cycle), each ascending.
  std::vector<std::vector<double>> LatencyMs;
  uint64_t Attempted = 0;
  uint64_t Failed = 0;     ///< Includes mismatches.
  uint64_t Mismatched = 0;
  /// What ops_per_s divides by: with CpuLatency, the ops' reference CPU
  /// time; otherwise the process's reference CPU time over the region.
  double BusySeconds = 0;
  double ScaleSum = 0; ///< Sum of the SpeedGauge scales the ops ran at.

  uint64_t succeeded() const { return Attempted - Failed; }
  /// Op latency percentile \p Q over a mix of programs, each weighted
  /// equally with its run length factored out: the mean of the programs'
  /// median latencies, times the Q-quantile of every op's latency over
  /// its program's median. With one program this is the plain
  /// percentile; with several, it does not swing with how long the
  /// slowest program a seed happened to draw runs.
  double quantileMs(double Q) const;
};

using OpFn = std::function<OpStatus(unsigned, uint64_t)>;

/// How a timed region drives its ops.
struct LoopOptions {
  unsigned Threads = 1; ///< Closed-loop clients.
  double Seconds = 0;   ///< Length of the region (ops in flight finish).
  uint64_t MaxOps = 0;  ///< When non-zero, stop once this many started.
  /// Programs the ops cycle through (op id mod Cycle). A single client
  /// stops only after a whole number of cycles, so per-op averages over
  /// the programs are exact.
  unsigned Cycle = 1;
  /// Time each op by its client thread's CPU time instead of wall time:
  /// for ops that run on their client thread and wait on nothing. Either
  /// time is scaled to the reference speed by the client's SpeedGauge.
  /// ops_per_s is then ops per reference CPU second of op time.
  bool CpuLatency = false;
};

/// Runs \p Op (receiving the client index and an op id counting from 0)
/// from closed-loop clients as \p O says.
LoopResult closedLoop(const LoopOptions &O, const OpFn &Op);

/// Folds a timed region into the op metrics of \p Out (ops_per_s,
/// op_ms_p50, op_ms_p90) and its failure counts. Without CpuLatency,
/// ops_per_s is per reference CPU second of the process.
void reportOps(const LoopResult &L, Outcome &Out);

/// A traced run's timed region. Tracing is switched on for every other
/// quarter second of it, so traced and untraced ops see the same machine
/// load; each op counts in the half it started in.
struct TracedLoop {
  LoopResult Plain, Traced;
  double ops() const { return double(Plain.Attempted + Traced.Attempted); }
};

/// Runs a traced region, reports the untraced ops' op metrics, counts
/// every op, and sets trace.overhead_pct (traced against untraced p50).
TracedLoop tracedLoop(const LoopOptions &O, const OpFn &Op, Outcome &Out);

/// Per-codec counters, keyed by codec name.
using CodecSnapshot = std::map<std::string, pipeline::CodecStats>;
CodecSnapshot snapshotCodecs();

/// Writes the pipeline.<codec>.* per-layer metrics for the delta
/// \p Before -> \p After, normalized by \p PerOps.
void reportCodecs(const CodecSnapshot &Before, const CodecSnapshot &After,
                  double PerOps, Outcome &Out);

/// The store counters the per-layer table reports, as plain sums.
struct StoreCounts {
  uint64_t Hits = 0, Misses = 0, Decodes = 0, Evictions = 0,
           FetchedBytes = 0, DecodeNanos = 0, FetchRetries = 0,
           FetchFailures = 0;
  static StoreCounts of(const store::StoreStats &S);
  StoreCounts &operator+=(const StoreCounts &O);
  StoreCounts operator-(const StoreCounts &O) const;
  /// The counts that must repeat exactly for identical work.
  std::vector<uint64_t> exact() const {
    return {Hits, Misses, Decodes, Evictions, FetchedBytes};
  }
};

/// Writes the store.* counter metrics, normalized by \p PerOps.
void reportStore(const StoreCounts &C, double PerOps, Outcome &Out);

/// Writes the span-derived per-layer metrics (layer times, self times,
/// resolve and fetch percentiles), normalized by \p PerOps.
void reportSpans(double PerOps, Outcome &Out);

/// Checks that a tuple of counts repeats exactly from op to op.
class ExactCheck {
public:
  void see(const std::vector<uint64_t> &V) {
    std::lock_guard<std::mutex> L(Mu);
    if (First.empty())
      First = V;
    else if (V != First)
      Differs = true;
  }
  bool differs() const {
    std::lock_guard<std::mutex> L(Mu);
    return Differs;
  }

private:
  mutable std::mutex Mu;
  std::vector<uint64_t> First;
  bool Differs = false;
};

/// CodeStore::build + save of \p P, each under its own span. Empty on
/// failure.
std::vector<uint8_t> buildImage(const vm::VMProgram &P, const std::string &Chain,
                                const store::StoreOptions &SO);

/// buildImage for a workload's set-up: fatal on failure, since the
/// workload cannot run without its image. Appends the build's rate, in
/// MB of fixed-width input per reference CPU second of the process, to
/// \p Rates.
std::vector<uint8_t> setupImage(const vm::VMProgram &P, const std::string &Chain,
                                const store::StoreOptions &SO,
                                std::vector<double> &Rates);

/// compress_mbps of a workload that only runs images: the median of
/// \p Rates, the rates of its set-up's image builds, topped up to at
/// least 16 builds by rebuilding its images after the timed region, in
/// turn. Program I comes from \p Make (untimed). The one image of `serve`
/// builds in a tenth of a second, so its set-up's three builds are too
/// few samples for a steady rate.
void reportCompressRate(std::vector<double> Rates, unsigned NumPrograms,
                        const std::function<vm::VMProgram(unsigned)> &Make,
                        const std::string &Chain, const store::StoreOptions &SO,
                        Outcome &Out);

/// Records set-up time: the median reference CPU time of the process
/// over SetupReps repetitions of \p Setup.
/// \p Setup must leave the state of the last repetition in place.
void timeSetup(const std::function<void()> &Setup, Outcome &Out);

// The workloads. Each runs its set-up, its timed region (traced: with
// traced and untraced ops interleaved), and its output checks.
Outcome runBuild(const Config &C);
Outcome runFault(const Config &C);
Outcome runHot(const Config &C);
Outcome runServe(const Config &C);

} // namespace perfbench
} // namespace ccomp

#endif // CCOMP_PERFBENCH_BENCH_H
