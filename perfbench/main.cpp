//===- perfbench/main.cpp - Repository benchmark driver --------------------===//
//
// Part of the ccomp project (PLDI'97 "Code Compression" reproduction).
//
//===----------------------------------------------------------------------===//
//
// ccbench --workload build|fault|hot|serve --seed N --seconds S --trace 0|1
//         [--out-dir DIR]
//
// Runs one workload and prints its metrics, one per line with unit and
// sample count, then a last line holding one JSON object:
//   {"correct": bool, "attempted": n, "failed": n, "metrics": {...}}
// Untraced (--trace 0) the metrics are the end-to-end table; traced
// (--trace 1) they are the per-layer table. Every op's output is checked
// against eager interpretation; see README.md.
//
//===----------------------------------------------------------------------===//

#include "bench.h"
#include "trace.h"

#include "store/CodeStore.h"
#include "support/Support.h"
#include "vm/Encode.h"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <charconv>
#include <cstdio>
#include <condition_variable>
#include <csignal>
#include <cstdlib>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <sstream>
#include <sys/time.h>
#include <thread>

using namespace ccomp;
using namespace ccomp::perfbench;

const std::vector<std::string> perfbench::LayerCodecs = {
    "flate", "vm-compact", "brisc", "bwt-dict", "brisc-ctx"};

const std::vector<MetricDef> &perfbench::endToEndMetrics() {
  static const std::vector<MetricDef> Defs = {
      {"setup_s", "s"},           {"compress_mbps", "MB/s"},
      {"compressed_ratio", "ratio"}, {"ops_per_s", "1/s"},
      {"op_ms_p50", "ms"},        {"op_ms_p90", "ms"},
      {"ok_ops_ratio", "ratio"},  {"peak_rss_mb", "MiB"}};
  return Defs;
}

const std::vector<MetricDef> &perfbench::layerMetrics() {
  static const std::vector<MetricDef> Defs = [] {
    std::vector<MetricDef> D = {
        {"brisc.compress_s", "s"},      {"brisc.output_bytes", "bytes"},
        {"wire.compress_s", "s"},       {"wire.output_bytes", "bytes"}};
    for (const std::string &C : LayerCodecs) {
      D.push_back({"pipeline." + C + ".compress_mbps", "MB/s"});
      D.push_back({"pipeline." + C + ".decompress_calls", "count"});
      D.push_back({"pipeline." + C + ".decompress_ms", "ms"});
    }
    const std::vector<MetricDef> Rest = {
        {"store.build_s", "s"},          {"store.load_ms", "ms"},
        {"store.resolve_us_p50", "us"},  {"store.resolve_us_p99", "us"},
        {"store.resolve_ms", "ms"},      {"store.hits", "count"},
        {"store.misses", "count"},       {"store.hit_rate", "ratio"},
        {"store.evictions", "count"},    {"store.decodes", "count"},
        {"store.fetched_bytes", "bytes"}, {"store.decode_ms", "ms"},
        {"store.fetch_retries", "count"}, {"store.fetch_failures", "count"},
        {"vm.self_ms", "ms"},            {"vm.steps", "count"},
        {"native.self_ms", "ms"},        {"native.tier_transfers", "count"},
        {"native.native_steps", "count"}, {"native.unit_hits", "count"},
        {"native.compiles", "count"},    {"net.connect_ms", "ms"},
        {"net.fetch_us_p50", "us"},      {"net.fetch_us_p99", "us"},
        {"net.round_trips", "count"},    {"net.bytes_received", "bytes"},
        {"net.server_requests", "count"}, {"net.server_conn_records", "count"},
        {"trace.overhead_pct", "%"},     {"failed_ops_ratio", "ratio"}};
    D.insert(D.end(), Rest.begin(), Rest.end());
    return D;
  }();
  return Defs;
}

//===----------------------------------------------------------------------===//
// Shared helpers
//===----------------------------------------------------------------------===//

double perfbench::percentile(const std::vector<double> &Sorted, double Q) {
  if (Sorted.empty())
    return 0;
  double Pos = Q * static_cast<double>(Sorted.size() - 1);
  size_t Lo = static_cast<size_t>(Pos);
  size_t Hi = std::min(Lo + 1, Sorted.size() - 1);
  double Frac = Pos - static_cast<double>(Lo);
  return Sorted[Lo] * (1.0 - Frac) + Sorted[Hi] * Frac;
}

double perfbench::median(std::vector<double> V) {
  std::sort(V.begin(), V.end());
  return percentile(V, 0.5);
}

void Outcome::setPercentile(const std::string &Name,
                            const std::vector<double> &Sorted, double Q) {
  set(Name, percentile(Sorted, Q), Sorted.size());
  TooFew[Name] = !tenBeyond(Sorted.size(), Q);
}

namespace {

double cpuSeconds(clockid_t Id) {
  timespec T;
  if (clock_gettime(Id, &T) != 0)
    reportFatal("perfbench: clock_gettime failed");
  return double(T.tv_sec) + double(T.tv_nsec) * 1e-9;
}

} // namespace

double perfbench::threadCpuSeconds() {
  return cpuSeconds(CLOCK_THREAD_CPUTIME_ID);
}

double perfbench::processCpuSeconds() {
  return cpuSeconds(CLOCK_PROCESS_CPUTIME_ID);
}

namespace {

volatile uint32_t GaugeSink;
/// CPU time every run of the reference loop took, so that the
/// measurements can leave it out.
std::atomic<uint64_t> GaugeNanos{0};

/// Runs the reference loop on the calling thread and returns its CPU time
/// in ms. Async-signal-safe: it only computes and reads a clock.
double referenceLoopMs() {
  timespec A, B;
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &A);
  uint64_t X = 88172645463325252ull; // xorshift64 state
  uint32_t H[256] = {0};
  for (unsigned I = 0; I != 100000; ++I) {
    X ^= X << 13;
    X ^= X >> 7;
    X ^= X << 17;
    switch (X & 7) {
    case 0:
      H[X >> 56]++;
      break;
    case 1:
      H[(X >> 48) & 255] += 3;
      break;
    case 2:
      H[(X >> 40) & 255] ^= 5;
      break;
    case 3:
      if (H[X & 255] & 1)
        H[(X >> 8) & 255]++;
      break;
    case 4:
      H[(X >> 16) & 255] -= 1;
      break;
    default:
      H[(X >> 24) & 255] += H[(X >> 32) & 255];
      break;
    }
  }
  GaugeSink = H[7];
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &B);
  int64_t Ns = int64_t(B.tv_sec - A.tv_sec) * 1000000000 + (B.tv_nsec - A.tv_nsec);
  GaugeNanos.fetch_add(uint64_t(Ns), std::memory_order_relaxed);
  return double(Ns) / 1e6;
}

/// Loop times taken by the SIGPROF handler while referenceCpuSeconds runs.
constexpr unsigned MaxProfSamples = 1u << 16;
std::atomic<double> ProfSamples[MaxProfSamples];
std::atomic<unsigned> NumProfSamples{0};

void onProfilingTick(int) {
  int SavedErrno = errno;
  double Ms = referenceLoopMs();
  unsigned I = NumProfSamples.fetch_add(1, std::memory_order_relaxed);
  if (I < MaxProfSamples)
    ProfSamples[I].store(Ms, std::memory_order_relaxed);
  errno = SavedErrno;
}

/// Arms the profiling timer (every 100 ms of process CPU time) or
/// disarms it.
void setProfilingTimer(bool On) {
  static bool Installed = false;
  if (!Installed) {
    struct sigaction SA = {};
    SA.sa_handler = onProfilingTick;
    SA.sa_flags = SA_RESTART;
    sigemptyset(&SA.sa_mask);
    if (sigaction(SIGPROF, &SA, nullptr) != 0)
      reportFatal("perfbench: cannot install the SIGPROF handler");
    Installed = true;
  }
  itimerval T = {};
  if (On)
    T.it_interval.tv_usec = T.it_value.tv_usec = 100000;
  if (setitimer(ITIMER_PROF, &T, nullptr) != 0)
    reportFatal("perfbench: cannot set the profiling timer");
}

} // namespace

void SpeedGauge::sample() { Last[Count++ % 3] = referenceLoopMs(); }

double SpeedGauge::scale() const {
  if (!Count)
    return 1;
  std::vector<double> V(Last, Last + std::min(Count, 3u));
  return NominalMs / median(V);
}

double perfbench::referenceCpuSeconds(const std::function<void()> &Fn) {
  static unsigned Depth = 0;
  std::vector<double> Samples = {referenceLoopMs()};
  unsigned Mark = NumProfSamples.load();
  if (!Depth++)
    setProfilingTimer(true);
  uint64_t Gauge0 = GaugeNanos.load();
  double Cpu0 = processCpuSeconds();
  Fn();
  double Cpu = processCpuSeconds() - Cpu0;
  Cpu -= double(GaugeNanos.load() - Gauge0) / 1e9;
  if (!--Depth)
    setProfilingTimer(false);
  unsigned End = std::min(NumProfSamples.load(), MaxProfSamples);
  for (unsigned I = Mark; I < End; ++I)
    if (double Ms = ProfSamples[I].load(std::memory_order_relaxed))
      Samples.push_back(Ms);
  Samples.push_back(referenceLoopMs());
  return Cpu * SpeedGauge::NominalMs / median(Samples);
}

double perfbench::peakRssMiB() {
  std::ifstream In("/proc/self/status");
  std::string Line;
  while (std::getline(In, Line))
    if (Line.rfind("VmHWM:", 0) == 0)
      return std::strtod(Line.c_str() + 6, nullptr) / 1024.0;
  return 0;
}

Reference perfbench::eagerReference(const vm::VMProgram &P) {
  vm::RunResult R = vm::runProgram(P);
  if (!R.Ok)
    reportFatal("perfbench: eager reference run trapped: " + R.Trap);
  return Reference{R.Output, R.ExitCode, R.Steps};
}

bool perfbench::matches(const vm::RunResult &R, const Reference &E) {
  return R.Ok && R.Output == E.Output && R.ExitCode == E.ExitCode &&
         R.Steps == E.Steps;
}

size_t perfbench::fixedWidthBytes(const vm::VMProgram &P) {
  return vm::encodeProgram(P).size();
}

namespace {

/// Merges per-client results and sorts each program's latencies.
/// \p Cpu is the process CPU time over the region; without CpuLatency it
/// is scaled by the ops' mean gauge scale to give the busy time.
LoopResult merge(std::vector<LoopResult> &Per, unsigned Cycle, double Cpu,
                 bool CpuLatency) {
  LoopResult All;
  All.LatencyMs.resize(Cycle);
  double ScaleSum = 0;
  for (LoopResult &R : Per) {
    All.Attempted += R.Attempted;
    All.Failed += R.Failed;
    All.Mismatched += R.Mismatched;
    All.BusySeconds += R.BusySeconds;
    ScaleSum += R.ScaleSum;
    for (unsigned G = 0; G != Cycle; ++G)
      All.LatencyMs[G].insert(All.LatencyMs[G].end(), R.LatencyMs[G].begin(),
                              R.LatencyMs[G].end());
  }
  for (std::vector<double> &G : All.LatencyMs)
    std::sort(G.begin(), G.end());
  if (!CpuLatency)
    All.BusySeconds =
        All.Attempted ? Cpu * ScaleSum / double(All.Attempted) : Cpu;
  return All;
}

/// Client threads that outlive a closedLoop call, so each client keeps
/// its malloc arena from the warm-up to the timed region. With threads
/// made per call, serve's peak RSS moved by a fifth from run to run,
/// likely because exited clients left arenas holding an 8 MiB
/// vm::Machine memory behind for the server's per-connection threads,
/// and the next clients made new ones.
class ClientThreads {
public:
  static ClientThreads &instance() {
    static ClientThreads Pool;
    return Pool;
  }

  /// Runs \p Fn(T) for each T below \p N, each on its own thread, and
  /// waits for all of them.
  void run(unsigned N, const std::function<void(unsigned)> &Fn) {
    std::unique_lock<std::mutex> L(Mu);
    while (Threads.size() < N) {
      unsigned T = unsigned(Threads.size());
      Threads.emplace_back([this, T] { work(T); });
    }
    Job = &Fn;
    Active = Pending = N;
    ++Generation;
    Wake.notify_all();
    Done.wait(L, [&] { return Pending == 0; });
    Job = nullptr;
  }

  ~ClientThreads() {
    {
      std::lock_guard<std::mutex> L(Mu);
      Stop = true;
    }
    Wake.notify_all();
    for (std::thread &Th : Threads)
      Th.join();
  }

private:
  void work(unsigned T) {
    uint64_t Seen = 0;
    std::unique_lock<std::mutex> L(Mu);
    for (;;) {
      Wake.wait(L, [&] { return Stop || (Generation != Seen && T < Active); });
      if (Stop)
        return;
      Seen = Generation;
      const std::function<void(unsigned)> *Fn = Job;
      L.unlock();
      (*Fn)(T);
      L.lock();
      if (--Pending == 0)
        Done.notify_all();
    }
  }

  std::mutex Mu;
  std::condition_variable Wake, Done;
  std::vector<std::thread> Threads;
  const std::function<void(unsigned)> *Job = nullptr;
  uint64_t Generation = 0;
  unsigned Active = 0, Pending = 0;
  bool Stop = false;
};

/// The shared driver. With \p Traced set, tracing alternates by slice and
/// traced ops are recorded there.
LoopResult runLoop(const LoopOptions &O, const OpFn &Op, LoopResult *Traced) {
  constexpr double SliceSeconds = 0.25;
  std::atomic<uint64_t> NextId{0};
  std::vector<LoopResult> Per(O.Threads), PerTraced(O.Threads);
  for (unsigned T = 0; T != O.Threads; ++T) {
    Per[T].LatencyMs.resize(O.Cycle);
    PerTraced[T].LatencyMs.resize(O.Cycle);
  }
  double Cpu0 = processCpuSeconds();
  Clock::time_point T0 = Clock::now();
  Clock::time_point Deadline =
      T0 + std::chrono::duration_cast<Clock::duration>(
               std::chrono::duration<double>(O.Seconds));
  auto Client = [&](unsigned T) {
    constexpr double GaugeEverySeconds = 0.1;
    SpeedGauge Gauge;
    double LastGauge = -GaugeEverySeconds;
    uint64_t Done = 0;
    while (Clock::now() < Deadline || Done % O.Cycle != 0) {
      uint64_t Id = NextId.fetch_add(1, std::memory_order_relaxed);
      if (O.MaxOps && Id >= O.MaxOps)
        break;
      bool On = Traced && (uint64_t(secondsSince(T0) / SliceSeconds) & 1);
      Tracer::setEnabled(On);
      Tracer::setOp(Id);
      if (secondsSince(T0) - LastGauge >= GaugeEverySeconds) {
        Gauge.sample();
        LastGauge = secondsSince(T0);
      }
      Clock::time_point S = Clock::now();
      double SCpu = O.CpuLatency ? threadCpuSeconds() : 0;
      OpStatus St = OpStatus::Failed; // Also when the op throws.
      try {
        Tracer::Scope Root(Span::Op);
        St = Op(T, Id);
      } catch (const std::exception &) {
      }
      double Scale = Gauge.scale();
      double Secs =
          (O.CpuLatency ? threadCpuSeconds() - SCpu : secondsSince(S)) * Scale;
      double Ms = Secs * 1e3;
      ++Done;
      LoopResult &R = On ? PerTraced[T] : Per[T];
      ++R.Attempted;
      R.BusySeconds += Secs;
      R.ScaleSum += Scale;
      if (St == OpStatus::Ok) {
        R.LatencyMs[Id % O.Cycle].push_back(Ms);
        continue;
      }
      ++R.Failed;
      if (St == OpStatus::Mismatch)
        ++R.Mismatched;
    }
    Tracer::setEnabled(false);
  };
  if (O.Threads == 1)
    Client(0);
  else
    ClientThreads::instance().run(O.Threads, Client);
  double Cpu = processCpuSeconds() - Cpu0;
  if (Traced)
    *Traced = merge(PerTraced, O.Cycle, Cpu, O.CpuLatency);
  return merge(Per, O.Cycle, Cpu, O.CpuLatency);
}

} // namespace

LoopResult perfbench::closedLoop(const LoopOptions &O, const OpFn &Op) {
  return runLoop(O, Op, nullptr);
}

double LoopResult::quantileMs(double Q) const {
  double MeanMedian = 0;
  std::vector<double> Ratios;
  unsigned Groups = 0;
  for (const std::vector<double> &G : LatencyMs) {
    if (G.empty())
      continue;
    double Med = percentile(G, 0.5);
    MeanMedian += Med;
    ++Groups;
    for (double Ms : G)
      Ratios.push_back(Ms / Med);
  }
  if (!Groups)
    return 0;
  std::sort(Ratios.begin(), Ratios.end());
  return MeanMedian / Groups * percentile(Ratios, Q);
}

namespace {

void countOps(const LoopResult &L, Outcome &Out) {
  Out.Attempted += L.Attempted;
  Out.Failed += L.Failed;
  if (L.Mismatched)
    Out.problem(std::to_string(L.Mismatched) +
                " op(s) diverged from eager interpretation");
}

} // namespace

void perfbench::reportOps(const LoopResult &L, Outcome &Out) {
  uint64_t Done = L.succeeded();
  Out.set("ops_per_s", static_cast<double>(Done) / L.BusySeconds, Done);
  for (double Q : {0.5, 0.9}) {
    std::string Name = Q == 0.5 ? "op_ms_p50" : "op_ms_p90";
    Out.set(Name, L.quantileMs(Q), Done);
    Out.TooFew[Name] = !tenBeyond(Done, Q);
  }
  countOps(L, Out);
}

TracedLoop perfbench::tracedLoop(const LoopOptions &O, const OpFn &Op,
                                 Outcome &Out) {
  TracedLoop T;
  T.Plain = runLoop(O, Op, &T.Traced);
  reportOps(T.Plain, Out);
  countOps(T.Traced, Out);
  double Base = T.Plain.quantileMs(0.5);
  double Traced = T.Traced.quantileMs(0.5);
  Out.set("trace.overhead_pct", Base > 0 ? (Traced / Base - 1.0) * 100 : 0,
          T.Traced.succeeded());
  return T;
}

store::StoreOptions perfbench::perPageOptions(unsigned Jobs) {
  store::StoreOptions SO;
  SO.PageTargetBytes = PageTarget;
  SO.BuildJobs = Jobs;
  SO.CandidateChains = {"vm-compact+flate", "bwt-dict", "brisc-ctx",
                        "brisc-ctx+flate"};
  return SO;
}

CodecSnapshot perfbench::snapshotCodecs() {
  CodecSnapshot S;
  for (const std::unique_ptr<pipeline::Codec> &C :
       pipeline::Registry::instance().all())
    S[C->name()] = C->snapshot();
  return S;
}

void perfbench::reportCodecs(const CodecSnapshot &Before,
                             const CodecSnapshot &After, double PerOps,
                             Outcome &Out) {
  for (const std::string &Name : LayerCodecs) {
    auto B = Before.find(Name), A = After.find(Name);
    if (B == Before.end() || A == After.end())
      continue;
    const pipeline::CodecStats &X = B->second, &Y = A->second;
    double InBytes = double(Y.BytesIn - X.BytesIn);
    double Secs = double(Y.CompressNanos - X.CompressNanos) / 1e9;
    std::string P = "pipeline." + Name;
    Out.set(P + ".compress_mbps", Secs > 0 ? InBytes / Secs / 1e6 : 0);
    Out.set(P + ".decompress_calls",
            double(Y.DecompressCalls - X.DecompressCalls) / PerOps);
    Out.set(P + ".decompress_ms",
            double(Y.DecompressNanos - X.DecompressNanos) / 1e6 / PerOps);
  }
}

StoreCounts StoreCounts::of(const store::StoreStats &S) {
  StoreCounts C;
  C.Hits = S.Hits;
  C.Misses = S.Misses;
  C.Decodes = S.Decodes;
  C.Evictions = S.Evictions;
  C.FetchedBytes = S.FetchedBytes;
  C.DecodeNanos = S.DecodeNanos;
  C.FetchRetries = S.FetchRetries;
  C.FetchFailures = S.FetchFailures;
  return C;
}

StoreCounts &StoreCounts::operator+=(const StoreCounts &O) {
  Hits += O.Hits;
  Misses += O.Misses;
  Decodes += O.Decodes;
  Evictions += O.Evictions;
  FetchedBytes += O.FetchedBytes;
  DecodeNanos += O.DecodeNanos;
  FetchRetries += O.FetchRetries;
  FetchFailures += O.FetchFailures;
  return *this;
}

StoreCounts StoreCounts::operator-(const StoreCounts &O) const {
  StoreCounts D;
  D.Hits = Hits - O.Hits;
  D.Misses = Misses - O.Misses;
  D.Decodes = Decodes - O.Decodes;
  D.Evictions = Evictions - O.Evictions;
  D.FetchedBytes = FetchedBytes - O.FetchedBytes;
  D.DecodeNanos = DecodeNanos - O.DecodeNanos;
  D.FetchRetries = FetchRetries - O.FetchRetries;
  D.FetchFailures = FetchFailures - O.FetchFailures;
  return D;
}

void perfbench::reportStore(const StoreCounts &C, double PerOps,
                            Outcome &Out) {
  uint64_t Lookups = C.Hits + C.Misses;
  Out.set("store.hits", double(C.Hits) / PerOps);
  Out.set("store.misses", double(C.Misses) / PerOps);
  Out.set("store.hit_rate", Lookups ? double(C.Hits) / double(Lookups) : 0);
  Out.set("store.evictions", double(C.Evictions) / PerOps);
  Out.set("store.decodes", double(C.Decodes) / PerOps);
  Out.set("store.fetched_bytes", double(C.FetchedBytes) / PerOps);
  Out.set("store.decode_ms", double(C.DecodeNanos) / 1e6 / PerOps);
  Out.set("store.fetch_retries", double(C.FetchRetries) / PerOps);
  Out.set("store.fetch_failures", double(C.FetchFailures) / PerOps);
}

void perfbench::reportSpans(double PerOps, Outcome &Out) {
  std::array<SpanTotals, NumSpans> T = Tracer::totals();
  auto ms = [&](Span S, bool Self) {
    const SpanTotals &X = T[static_cast<size_t>(S)];
    return double(Self ? X.SelfNs : X.TotalNs) / 1e6 / PerOps;
  };
  Out.set("brisc.compress_s", ms(Span::BriscCompress, false) / 1e3);
  Out.set("wire.compress_s", ms(Span::WireCompress, false) / 1e3);
  Out.set("store.build_s",
          (ms(Span::StoreBuild, false) + ms(Span::StoreSave, false)) / 1e3);
  Out.set("store.load_ms", ms(Span::StoreLoad, false));
  Out.set("store.resolve_ms", ms(Span::Resolve, false));
  Out.set("vm.self_ms", ms(Span::VmRun, true));
  Out.set("native.self_ms", ms(Span::Native, true));
  Out.set("net.connect_ms", ms(Span::Connect, false));
  const std::vector<double> &R = T[size_t(Span::Resolve)].DurationsUs;
  Out.setPercentile("store.resolve_us_p50", R, 0.50);
  Out.setPercentile("store.resolve_us_p99", R, 0.99);
  const std::vector<double> &F = T[size_t(Span::Fetch)].DurationsUs;
  Out.setPercentile("net.fetch_us_p50", F, 0.50);
  Out.setPercentile("net.fetch_us_p99", F, 0.99);
  for (size_t I = 0; I != NumSpans; ++I)
    std::printf("span %-15s %10llu calls %12.3f ms total %12.3f ms self\n",
                spanName(static_cast<Span>(I)),
                (unsigned long long)T[I].Count, double(T[I].TotalNs) / 1e6,
                double(T[I].SelfNs) / 1e6);
}

std::vector<uint8_t> perfbench::buildImage(const vm::VMProgram &P,
                                           const std::string &Chain,
                                           const store::StoreOptions &SO) {
  std::string Err;
  std::unique_ptr<store::CodeStore> S;
  {
    Tracer::Scope Sp(Span::StoreBuild);
    S = store::CodeStore::build(P, Chain, SO, Err);
  }
  if (!S)
    return {};
  Tracer::Scope Sp(Span::StoreSave);
  return S->save();
}

std::vector<uint8_t> perfbench::setupImage(const vm::VMProgram &P,
                                           const std::string &Chain,
                                           const store::StoreOptions &SO,
                                           std::vector<double> &Rates) {
  std::vector<uint8_t> Image;
  double Cpu = referenceCpuSeconds([&] { Image = buildImage(P, Chain, SO); });
  if (Image.empty())
    reportFatal("perfbench: " + Chain + " image build failed");
  Rates.push_back(double(fixedWidthBytes(P)) / Cpu / 1e6);
  return Image;
}

void perfbench::reportCompressRate(
    std::vector<double> Rates, unsigned NumPrograms,
    const std::function<vm::VMProgram(unsigned)> &Make,
    const std::string &Chain, const store::StoreOptions &SO, Outcome &Out) {
  constexpr size_t MinBuilds = 16;
  for (unsigned I = 0; Rates.size() < MinBuilds; ++I)
    setupImage(Make(I % NumPrograms), Chain, SO, Rates);
  Out.set("compress_mbps", median(Rates), Rates.size());
}

void perfbench::timeSetup(const std::function<void()> &Setup, Outcome &Out) {
  std::vector<double> Times;
  for (unsigned I = 0; I != SetupReps; ++I) {
    Times.push_back(referenceCpuSeconds(Setup));
  }
  Out.set("setup_s", median(Times), SetupReps);
}

//===----------------------------------------------------------------------===//
// Driver
//===----------------------------------------------------------------------===//

namespace {

[[noreturn]] void usage(const std::string &Msg) {
  std::fprintf(stderr,
               "ccbench: %s\nusage: ccbench --workload build|fault|hot|serve "
               "--seed N --seconds S --trace 0|1 [--out-dir DIR]\n",
               Msg.c_str());
  std::exit(2);
}

uint64_t parseCount(const std::string &Flag, const std::string &V) {
  uint64_t N = 0;
  auto [End, Ec] = std::from_chars(V.data(), V.data() + V.size(), N);
  if (Ec != std::errc() || End != V.data() + V.size())
    usage("bad value for " + Flag + ": '" + V + "'");
  return N;
}

Config parseArgs(int Argc, char **Argv) {
  Config C;
  bool HaveWorkload = false;
  for (int I = 1; I < Argc; ++I) {
    std::string Flag = Argv[I];
    if (I + 1 >= Argc)
      usage("missing value for " + Flag);
    std::string V = Argv[++I];
    if (Flag == "--workload") {
      C.Workload = V;
      HaveWorkload = true;
    } else if (Flag == "--seed") {
      C.Seed = parseCount(Flag, V);
    } else if (Flag == "--seconds") {
      C.Seconds = static_cast<double>(parseCount(Flag, V));
      if (C.Seconds < 1)
        usage("--seconds must be at least 1");
    } else if (Flag == "--trace") {
      if (V != "0" && V != "1")
        usage("--trace takes 0 or 1");
      C.Trace = V == "1";
    } else if (Flag == "--out-dir") {
      C.OutDir = V;
    } else {
      usage("unknown flag " + Flag);
    }
  }
  if (!HaveWorkload)
    usage("--workload is required");
  C.Jobs = std::max(1u, std::min(4u, std::thread::hardware_concurrency()));
  return C;
}

std::string number(double V) {
  char Buf[64];
  auto [End, Ec] = std::to_chars(Buf, Buf + sizeof(Buf), V);
  (void)Ec;
  return std::string(Buf, End);
}

/// Compares this run's exact counts with the last traced run of the same
/// workload and seed in this checkout (if any), then records them.
void checkExactAcrossRuns(const Config &C, Outcome &Out) {
  std::string Path = C.OutDir + "/exact-" + C.Workload + "-seed" +
                     std::to_string(C.Seed) + ".txt";
  std::ostringstream Now;
  for (const std::string &Name : Out.ExactNames)
    Now << Name << ' ' << number(Out.Values[Name]) << '\n';
  std::ifstream Prev(Path);
  if (Prev) {
    std::stringstream Was;
    Was << Prev.rdbuf();
    if (Was.str() != Now.str())
      Out.problem("exact counts differ from the previous traced run of this "
                  "workload and seed (" + Path + ")");
  }
  std::ofstream(Path) << Now.str();
}

} // namespace

int main(int Argc, char **Argv) {
  Config C = parseArgs(Argc, Argv);
  Outcome Out;
  if (C.Workload == "build")
    Out = runBuild(C);
  else if (C.Workload == "fault")
    Out = runFault(C);
  else if (C.Workload == "hot")
    Out = runHot(C);
  else if (C.Workload == "serve")
    Out = runServe(C);
  else
    usage("unknown workload '" + C.Workload + "'");

  double Failed = Out.Attempted
                      ? double(Out.Failed) / double(Out.Attempted)
                      : 1.0;
  Out.set("ok_ops_ratio", 1.0 - Failed, Out.Attempted);
  Out.set("failed_ops_ratio", Failed, Out.Attempted);
  Out.set("peak_rss_mb", peakRssMiB());

  const std::vector<MetricDef> &Defs =
      C.Trace ? layerMetrics() : endToEndMetrics();
  if (C.Trace) {
    std::error_code Ec;
    std::filesystem::create_directories(C.OutDir, Ec);
    std::string SpanPath = C.OutDir + "/spans-" + C.Workload + "-seed" +
                           std::to_string(C.Seed) + ".csv";
    size_t Written = Tracer::writeSpans(SpanPath);
    std::printf("spans: %zu records written to %s\n", Written,
                SpanPath.c_str());
    checkExactAcrossRuns(C, Out);
  }

  std::printf("workload %s, seed %llu, %s run of %.0f s\n",
              C.Workload.c_str(), (unsigned long long)C.Seed,
              C.Trace ? "traced" : "untraced", C.Seconds);
  std::string Json = "{\"correct\": ";
  Json += Out.Problems.empty() ? "true" : "false";
  Json += ", \"attempted\": " + std::to_string(Out.Attempted);
  Json += ", \"failed\": " + std::to_string(Out.Failed);
  Json += ", \"metrics\": {";
  bool First = true;
  for (const MetricDef &D : Defs) {
    double V = Out.Values.count(D.Name) ? Out.Values[D.Name] : 0.0;
    std::string Note;
    if (Out.Samples.count(D.Name))
      Note = "  (n=" + std::to_string(Out.Samples[D.Name]) + ")";
    if (Out.TooFew[D.Name])
      Note += "  [fewer than ten samples beyond this percentile]";
    std::printf("  %-34s %14s %s%s\n", D.Name.c_str(), number(V).c_str(),
                D.Unit.c_str(), Note.c_str());
    Json += First ? "" : ", ";
    First = false;
    Json += "\"" + D.Name + "\": {\"value\": " + number(V) +
            ", \"unit\": \"" + D.Unit + "\"}";
  }
  Json += "}}";
  for (const std::string &P : Out.Problems)
    std::printf("INCORRECT: %s\n", P.c_str());
  std::printf("%s\n", Json.c_str());
  return 0;
}
