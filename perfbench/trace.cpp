//===- perfbench/trace.cpp - Span recorder ---------------------------------===//
//
// Part of the ccomp project (PLDI'97 "Code Compression" reproduction).
//
//===----------------------------------------------------------------------===//

#include "trace.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <mutex>

using namespace ccomp;
using namespace ccomp::perfbench;

namespace {

struct OpenSpan {
  Span Name;
  uint64_t Id;
  uint64_t Parent;
  uint64_t StartNs;
  uint64_t ChildNs;
};

struct Record {
  uint64_t Id, Parent, Op, StartNs, EndNs;
  Span Name;
};

/// One thread's spans. Only its own thread writes it; totals() and
/// writeSpans() read it once every traced op has finished.
struct ThreadLog {
  uint64_t Thread = 0;
  uint64_t Seq = 0;
  uint64_t Op = 0;
  std::vector<OpenSpan> Stack;
  std::array<SpanTotals, NumSpans> Totals;
  std::vector<Record> Records;
};

std::mutex LogsMu;
std::vector<std::unique_ptr<ThreadLog>> Logs;
std::atomic<size_t> RecordsKept{0};

ThreadLog &threadLog() {
  thread_local ThreadLog *Log = nullptr;
  if (!Log) {
    std::lock_guard<std::mutex> L(LogsMu);
    Logs.push_back(std::make_unique<ThreadLog>());
    Log = Logs.back().get();
    Log->Thread = Logs.size();
  }
  return *Log;
}

uint64_t nowNs() {
  static const auto Epoch = std::chrono::steady_clock::now();
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - Epoch)
          .count());
}

bool keepsDurations(Span S) { return S == Span::Resolve || S == Span::Fetch; }

} // namespace

const char *perfbench::spanName(Span S) {
  static const char *const Names[NumSpans] = {
      "op",         "brisc.compress", "wire.compress", "store.build",
      "store.save", "store.load",     "vm.run",        "store.resolve",
      "native.enter", "net.connect",  "net.fetch",     "net.manifest"};
  return Names[static_cast<size_t>(S)];
}

void Tracer::setOp(uint64_t Id) { threadLog().Op = Id; }

void Tracer::Scope::open(Span S) {
  ThreadLog &L = threadLog();
  uint64_t Parent = L.Stack.empty() ? 0 : L.Stack.back().Id;
  L.Stack.push_back({S, (L.Thread << 40) | ++L.Seq, Parent, nowNs(), 0});
  Active = true;
}

void Tracer::Scope::close() {
  uint64_t End = nowNs();
  ThreadLog &L = threadLog();
  OpenSpan O = L.Stack.back();
  L.Stack.pop_back();
  uint64_t Dur = End - O.StartNs;
  if (!L.Stack.empty())
    L.Stack.back().ChildNs += Dur;
  SpanTotals &T = L.Totals[static_cast<size_t>(O.Name)];
  ++T.Count;
  T.TotalNs += Dur;
  T.SelfNs += Dur - std::min(Dur, O.ChildNs);
  if (keepsDurations(O.Name))
    T.DurationsUs.push_back(static_cast<double>(Dur) / 1e3);
  if (RecordsKept.fetch_add(1, std::memory_order_relaxed) < MaxRecords)
    L.Records.push_back({O.Id, O.Parent, L.Op, O.StartNs, End, O.Name});
}

std::array<SpanTotals, NumSpans> Tracer::totals() {
  std::array<SpanTotals, NumSpans> Sum;
  std::lock_guard<std::mutex> G(LogsMu);
  for (const std::unique_ptr<ThreadLog> &L : Logs)
    for (size_t I = 0; I != NumSpans; ++I) {
      const SpanTotals &T = L->Totals[I];
      Sum[I].Count += T.Count;
      Sum[I].TotalNs += T.TotalNs;
      Sum[I].SelfNs += T.SelfNs;
      Sum[I].DurationsUs.insert(Sum[I].DurationsUs.end(),
                                T.DurationsUs.begin(), T.DurationsUs.end());
    }
  for (SpanTotals &T : Sum)
    std::sort(T.DurationsUs.begin(), T.DurationsUs.end());
  return Sum;
}

size_t Tracer::writeSpans(const std::string &Path) {
  std::vector<Record> All;
  {
    std::lock_guard<std::mutex> G(LogsMu);
    for (const std::unique_ptr<ThreadLog> &L : Logs)
      All.insert(All.end(), L->Records.begin(), L->Records.end());
  }
  std::sort(All.begin(), All.end(), [](const Record &A, const Record &B) {
    return A.StartNs < B.StartNs;
  });
  FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return 0;
  std::fprintf(F, "id,parent,op,name,start_ns,end_ns\n");
  for (const Record &R : All)
    std::fprintf(F, "%llu,%llu,%llu,%s,%llu,%llu\n",
                 (unsigned long long)R.Id, (unsigned long long)R.Parent,
                 (unsigned long long)R.Op, spanName(R.Name),
                 (unsigned long long)R.StartNs, (unsigned long long)R.EndNs);
  std::fclose(F);
  return All.size();
}
