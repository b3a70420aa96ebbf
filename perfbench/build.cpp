//===- perfbench/build.cpp - The `build` workload --------------------------===//
//
// Part of the ccomp project (PLDI'97 "Code Compression" reproduction).
//
//===----------------------------------------------------------------------===//
//
// The compressor path. One op is one job; a pass is the four jobs in
// order:
//   1. brisc::compress of wep (the whole-program BRISC executable);
//   2. a paged brisc+flate store image of icc (256 B pages);
//   3. a per-page-selected manifest-v4 image of icc (primary vm-compact,
//      four candidate chains, 256 B pages);
//   4. wire::compress of the icc module.
// Passes repeat until the run's time is up, each on the next of the run's
// input sets (a wep and an icc program each). Inside the timed region only
// per-page selection's verify step decodes; every output is round-tripped
// after it.
//
//===----------------------------------------------------------------------===//

#include "bench.h"
#include "trace.h"

#include "CorpusUtil.h"
#include "brisc/Brisc.h"
#include "store/CodeStore.h"
#include "store/Resolver.h"
#include "wire/Wire.h"

#include <algorithm>
#include <array>

using namespace ccomp;
using namespace ccomp::perfbench;

namespace {

constexpr unsigned NumJobs = 4;
constexpr unsigned NumInputs = 3;

struct Inputs {
  vm::VMProgram Wep, Icc;
  std::unique_ptr<ir::Module> IccModule;
  Reference WepRef, IccRef;
  size_t WepBytes = 0, IccBytes = 0;
};

/// The outputs of one pass, in job order.
using PassOutput = std::array<std::vector<uint8_t>, NumJobs>;

Inputs makeInputs(uint64_t Seed, unsigned I) {
  Inputs In;
  std::string WepSrc = corpus::synthesize(
      WepFunctions, programSeed(WepSeedBase, Seed, NumInputs, I));
  std::string IccSrc = corpus::synthesize(
      IccFunctions, programSeed(IccSeedBase, Seed, NumInputs, I));
  In.Wep = harness::mustBuild(WepSrc);
  In.Icc = harness::mustBuild(IccSrc);
  In.IccModule = harness::mustCompile(IccSrc);
  In.WepRef = eagerReference(In.Wep);
  In.IccRef = eagerReference(In.Icc);
  In.WepBytes = fixedWidthBytes(In.Wep);
  In.IccBytes = fixedWidthBytes(In.Icc);
  return In;
}

store::StoreOptions pagedOptions(unsigned Jobs) {
  store::StoreOptions SO;
  SO.PageTargetBytes = PageTarget;
  SO.BuildJobs = Jobs;
  return SO;
}

std::vector<uint8_t> runJob(unsigned Job, const Inputs &In, unsigned Jobs) {
  switch (Job) {
  case 0: {
    brisc::BriscProgram B;
    {
      Tracer::Scope Sp(Span::BriscCompress);
      B = brisc::compress(In.Wep);
    }
    return B.serialize(/*IncludeData=*/true);
  }
  case 1:
    return buildImage(In.Icc, "brisc+flate", pagedOptions(Jobs));
  case 2:
    return buildImage(In.Icc, PerPagePrimary, perPageOptions(Jobs));
  default: {
    Tracer::Scope Sp(Span::WireCompress);
    return wire::compress(*In.IccModule);
  }
  }
}

/// Job inputs in fixed-width VM bytes.
size_t jobInputBytes(unsigned Job, const Inputs &In) {
  return Job == 0 ? In.WepBytes : In.IccBytes;
}

/// The job outputs of every input set a region ran, with their sizes.
struct SetOutputs {
  std::vector<PassOutput> Out; ///< Per input set; empty until it ran.
  std::vector<unsigned> Runs;  ///< Passes over each set.
  bool Repeats = true; ///< Re-runs of a set gave byte-identical outputs.

  SetOutputs() : Out(NumInputs), Runs(NumInputs) {}
  void add(unsigned Set, PassOutput O) {
    if (!Runs[Set]++)
      Out[Set] = std::move(O);
    else if (O != Out[Set])
      Repeats = false;
  }
  /// Output bytes of job \p Job averaged over the sets that ran.
  double meanBytes(unsigned Job) const {
    double Sum = 0, Sets = 0;
    for (unsigned I = 0; I != NumInputs; ++I)
      if (Runs[I]) {
        Sum += double(Out[I][Job].size());
        ++Sets;
      }
    return Sets ? Sum / Sets : 0;
  }
};

struct Passes {
  /// Job counts; the busy time is the sum of job times (the process's
  /// reference CPU time).
  LoopResult Jobs;
  std::vector<double> PassMs;   ///< Whole passes.
  std::vector<unsigned> PassSet; ///< Input set of each pass.
  /// Each pass's job times, in job order; 0 for a failed job.
  std::vector<std::array<double, NumJobs>> JobMs;
  unsigned Count = 0;
};

/// Runs whole passes until \p Seconds have passed and at least
/// \p MinPasses have run, pass number \p NextPass on input set NextPass
/// mod NumInputs.
Passes runPasses(const std::vector<Inputs> &Ins, unsigned Jobs,
                 double Seconds, unsigned MinPasses, unsigned &NextPass,
                 uint64_t &NextOp, SetOutputs &Sets) {
  Passes P;
  Clock::time_point T0 = Clock::now();
  do {
    unsigned Set = NextPass++ % NumInputs;
    const Inputs &In = Ins[Set];
    PassOutput Out;
    std::array<double, NumJobs> JobMs = {};
    double PassMs = 0;
    for (unsigned J = 0; J != NumJobs; ++J) {
      Tracer::setOp(NextOp++);
      double Ms = referenceCpuSeconds([&] {
                    Tracer::Scope Root(Span::Op);
                    Out[J] = runJob(J, In, Jobs);
                  }) *
                  1e3;
      PassMs += Ms;
      ++P.Jobs.Attempted;
      if (Out[J].empty())
        ++P.Jobs.Failed;
      else
        JobMs[J] = Ms;
    }
    P.PassMs.push_back(PassMs);
    P.JobMs.push_back(JobMs);
    P.PassSet.push_back(Set);
    P.Jobs.BusySeconds += PassMs / 1e3;
    Sets.add(Set, std::move(Out));
    ++P.Count;
  } while (secondsSince(T0) < Seconds || P.Count < MinPasses);
  return P;
}

/// Loads a store image, decodes every frame (whole functions, every page
/// of a paged one), then runs it against the eager reference. Decoded
/// bodies are compared by length only: a brisc chain may canonicalize
/// instructions without changing what they execute.
bool storeRoundTrips(const std::vector<uint8_t> &Image,
                     const vm::VMProgram &P, const Reference &Ref) {
  store::StoreOptions SO;
  SO.CacheBudgetBytes = size_t(1) << 30;
  Result<std::unique_ptr<store::CodeStore>> L =
      store::CodeStore::tryLoad(Image, SO);
  if (!L.ok())
    return false;
  store::CodeStore &S = *L.value();
  if (S.functionCount() != P.Functions.size())
    return false;
  for (uint32_t F = 0; F != S.functionCount(); ++F) {
    Result<std::shared_ptr<const vm::VMFunction>> Fn = S.fault(F);
    if (!Fn.ok() || Fn.value()->Code.size() != P.Functions[F].Code.size())
      return false;
  }
  return matches(store::runFromStore(S), Ref);
}

/// Round-trips the outputs of one input set. Returns the number of jobs
/// whose output failed.
unsigned verify(const Inputs &In, const PassOutput &Out, Outcome &Res) {
  unsigned Bad = 0;
  auto fail = [&](const std::string &Msg) {
    Res.problem(Msg);
    ++Bad;
  };
  Result<brisc::BriscProgram> B = brisc::BriscProgram::parse(Out[0]);
  Result<vm::VMProgram> BV =
      B.ok() ? brisc::tryDecodeToVM(B.value())
             : Result<vm::VMProgram>(B.error());
  // A decoded BRISC program runs whole epilogues as one EPI step, so its
  // step count is below the eager run's; output and exit code must match.
  vm::RunResult BR = BV.ok() ? vm::runProgram(BV.value()) : vm::RunResult();
  if (!BR.Ok || BR.Output != In.WepRef.Output ||
      BR.ExitCode != In.WepRef.ExitCode)
    fail("BRISC executable of wep does not decode to an equivalent program");
  if (!storeRoundTrips(Out[1], In.Icc, In.IccRef))
    fail("paged brisc+flate image of icc does not round-trip");
  if (!storeRoundTrips(Out[2], In.Icc, In.IccRef))
    fail("per-page image of icc does not round-trip");
  std::string Err;
  std::unique_ptr<ir::Module> M = wire::decompress(Out[3], Err);
  if (!M || wire::serializeModule(*M) != wire::serializeModule(*In.IccModule))
    fail("wire file of icc does not round-trip: " + Err);
  return Bad;
}

void reportPasses(const Passes &P, const std::vector<Inputs> &Ins,
                  const SetOutputs &Sets, Outcome &Out) {
  // Rates over one pass on each input set, at the set's mean pass time,
  // so they do not depend on which sets the last passes fell on.
  double SetBytes = 0, SetSeconds = 0, SetJobs = 0;
  for (unsigned I = 0; I != NumInputs; ++I) {
    double Ms = 0, N = 0;
    for (size_t J = 0; J != P.PassMs.size(); ++J)
      if (P.PassSet[J] == I) {
        Ms += P.PassMs[J];
        ++N;
      }
    if (!N)
      continue;
    for (unsigned Job = 0; Job != NumJobs; ++Job)
      SetBytes += double(jobInputBytes(Job, Ins[I]));
    SetSeconds += Ms / N / 1e3;
    SetJobs += NumJobs;
  }
  Out.set("compress_mbps", SetBytes / SetSeconds / 1e6, P.Count);
  // Over the distinct sets, each counted once.
  double InBytes = 0, OutBytes = 0;
  for (unsigned I = 0; I != NumInputs; ++I)
    if (Sets.Runs[I])
      for (unsigned J = 0; J != NumJobs; ++J) {
        InBytes += double(jobInputBytes(J, Ins[I]));
        OutBytes += double(Sets.Out[I][J].size());
      }
  Out.set("compressed_ratio", OutBytes / InBytes);
  const LoopResult &L = P.Jobs;
  uint64_t Done = L.succeeded();
  Out.set("ops_per_s", double(Done) / double(L.Attempted) * SetJobs / SetSeconds,
          Done);
  // Percentiles over the jobs of one pass on each input set, each job's
  // time the mean of its runs, so they do not depend on which sets the
  // last passes fell on: over every job run, the p90 moved with the
  // brisc::compress jobs of the repeated sets. Averaging each job kind's
  // own percentile instead read near-maximal jobs.
  std::vector<double> All;
  for (unsigned I = 0; I != NumInputs; ++I)
    for (unsigned J = 0; J != NumJobs; ++J) {
      double Ms = 0, N = 0;
      for (size_t K = 0; K != P.JobMs.size(); ++K)
        if (P.PassSet[K] == I && P.JobMs[K][J] > 0) {
          Ms += P.JobMs[K][J];
          ++N;
        }
      if (N)
        All.push_back(Ms / N);
    }
  std::sort(All.begin(), All.end());
  Out.setPercentile("op_ms_p50", All, 0.50);
  Out.setPercentile("op_ms_p90", All, 0.90);
  Out.Attempted += L.Attempted;
  Out.Failed += L.Failed;
}

/// Traced against untraced pass time, in percent. Input sets differ in
/// cost, so each traced pass is compared with the untraced passes over
/// its own set (the untraced region covers every set).
double overheadPct(const Passes &Untraced, const Passes &Traced) {
  double Sum = 0;
  for (size_t I = 0; I != Traced.PassMs.size(); ++I) {
    double Base = 0, N = 0;
    for (size_t J = 0; J != Untraced.PassMs.size(); ++J)
      if (Untraced.PassSet[J] == Traced.PassSet[I]) {
        Base += Untraced.PassMs[J];
        ++N;
      }
    Sum += Traced.PassMs[I] / (Base / N) - 1.0;
  }
  return Sum / double(Traced.PassMs.size()) * 100.0;
}

} // namespace

Outcome perfbench::runBuild(const Config &C) {
  Outcome Out;
  std::vector<Inputs> Ins;
  timeSetup(
      [&] {
        Ins.clear();
        for (unsigned I = 0; I != NumInputs; ++I)
          Ins.push_back(makeInputs(C.Seed, I));
      },
      Out);

  unsigned NextPass = 0;
  uint64_t NextOp = 0;
  SetOutputs Sets;
  double Untraced = C.Trace ? C.Seconds / 2 : C.Seconds;
  // The untraced region covers every input set, so compressed_ratio does
  // not depend on how many passes fit in the run.
  Passes A =
      runPasses(Ins, C.Jobs, Untraced, NumInputs, NextPass, NextOp, Sets);
  reportPasses(A, Ins, Sets, Out);

  if (C.Trace) {
    CodecSnapshot Before = snapshotCodecs();
    Tracer::setEnabled(true);
    Passes B = runPasses(Ins, C.Jobs, C.Seconds / 2, 1, NextPass, NextOp, Sets);
    Tracer::setEnabled(false);
    CodecSnapshot After = snapshotCodecs();
    Out.Attempted += B.Jobs.Attempted;
    Out.Failed += B.Jobs.Failed;
    reportCodecs(Before, After, B.Count, Out);
    reportSpans(B.Count, Out);
    Out.set("brisc.output_bytes", Sets.meanBytes(0));
    Out.set("wire.output_bytes", Sets.meanBytes(3));
    Out.ExactNames = {"brisc.output_bytes", "wire.output_bytes"};
    Out.set("trace.overhead_pct", overheadPct(A, B), B.Count);
  }

  if (!Sets.Repeats)
    Out.problem("job outputs (and so compressed_ratio) differ between passes "
                "over one input set");
  // Every pass over a set produced the same bytes, so a failed round trip
  // fails that job in each of those passes.
  uint64_t Bad = 0;
  for (unsigned I = 0; I != NumInputs; ++I)
    if (Sets.Runs[I])
      Bad += uint64_t(verify(Ins[I], Sets.Out[I], Out)) * Sets.Runs[I];
  Out.Failed = std::min(Out.Attempted, Out.Failed + Bad);
  return Out;
}
