//===- tests/test_remote_store.cpp - Flaky-transport store robustness ----------===//
//
// Part of the ccomp project (PLDI'97 "Code Compression" reproduction).
//
//===----------------------------------------------------------------------===//
//
// The remote-fetch promises: store-backed execution is byte-for-byte
// identical to eager decode through every FrameSource backend (memory,
// file, simulated remote) for every per-function chain, at any cache
// budget, over any link preset — including links that drop, truncate,
// or corrupt one fetch attempt in ten (retries mask transients). When
// the transport fails permanently, every faulting call returns a typed
// error: no abort, no hang, and concurrent single-flight waiters all
// observe the leader's outcome. The tsan preset runs the soak with full
// happens-before checking.
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "pipeline/Pipeline.h"
#include "store/CodeStore.h"
#include "store/FrameSource.h"
#include "store/Resolver.h"
#include "support/PRNG.h"

#include "gtest/gtest.h"

#include <atomic>
#include <chrono>
#include <fstream>
#include <set>
#include <thread>

using namespace ccomp;
using namespace ccomp::store;
using namespace ccomp::test;

namespace {

const char *const PerFunctionChains[] = {"flate", "vm-compact", "brisc",
                                         "brisc+flate", "vm-compact+flate"};

std::vector<uint8_t> buildImage(const vm::VMProgram &P,
                                const std::string &Chain) {
  std::string Err;
  std::unique_ptr<CodeStore> S =
      CodeStore::build(P, Chain, StoreOptions(), Err);
  EXPECT_NE(S, nullptr) << Chain << ": " << Err;
  return S->save();
}

/// Writes \p Bytes to a fresh file under gtest's temp dir.
std::string writeTemp(const std::string &Name,
                      const std::vector<uint8_t> &Bytes) {
  std::string Path = testing::TempDir() + "ccomp_" + Name;
  std::ofstream Out(Path, std::ios::binary | std::ios::trunc);
  Out.write(reinterpret_cast<const char *>(Bytes.data()),
            static_cast<std::streamsize>(Bytes.size()));
  EXPECT_TRUE(Out.good()) << Path;
  return Path;
}

std::unique_ptr<FrameSource> mustLocal(const std::vector<uint8_t> &Image) {
  Result<std::unique_ptr<LocalFrameSource>> S =
      LocalFrameSource::fromContainerBytes(Image);
  EXPECT_TRUE(S.ok()) << (S.ok() ? "" : S.error().message());
  return S.ok() ? S.take() : nullptr;
}

std::unique_ptr<FrameSource> mustFile(const std::string &Path) {
  Result<std::unique_ptr<FileFrameSource>> S = FileFrameSource::open(Path);
  EXPECT_TRUE(S.ok()) << (S.ok() ? "" : S.error().message());
  return S.ok() ? S.take() : nullptr;
}

/// A source whose frames never arrive (permanent outage modeled as
/// endless transient timeouts) while the manifest stays reachable, so a
/// store can be constructed and then watched failing every fault.
class OutageFrames final : public FrameSource {
public:
  OutageFrames(std::unique_ptr<FrameSource> Origin, unsigned SleepMillis = 0)
      : Origin(std::move(Origin)), SleepMillis(SleepMillis) {}

  const char *kind() const override { return "outage"; }
  const std::string &chainSpec() const override { return Origin->chainSpec(); }
  uint32_t functionFrameCount() const override {
    return Origin->functionFrameCount();
  }
  size_t frameBytes() const override { return Origin->frameBytes(); }

  FetchResult fetchFrame(uint32_t Id) override {
    ++FrameFetches;
    if (SleepMillis) // Widen the single-flight race window.
      std::this_thread::sleep_for(std::chrono::milliseconds(SleepMillis));
    return FetchResult::failure(FetchErrorKind::Timeout,
                                "outage: frame " + std::to_string(Id),
                                0.01);
  }
  FetchResult fetchManifest() override { return Origin->fetchManifest(); }

  std::atomic<unsigned> FrameFetches{0};

private:
  std::unique_ptr<FrameSource> Origin;
  unsigned SleepMillis;
};

//===----------------------------------------------------------------------===//
// Retry policy
//===----------------------------------------------------------------------===//

TEST(RemoteStore, BackoffIsBoundedDeterministicAndJittered) {
  RetryPolicy P;
  for (uint32_t Frame : {0u, 7u, 123u}) {
    for (unsigned A = 0; A != 12; ++A) {
      double B = P.backoffSeconds(Frame, A);
      double Ideal = P.BaseBackoffSeconds;
      for (unsigned I = 0; I != A; ++I)
        Ideal = std::min(Ideal * P.BackoffMultiplier, P.MaxBackoffSeconds);
      EXPECT_GE(B, Ideal * (1.0 - P.JitterFraction) - 1e-12);
      EXPECT_LE(B, Ideal * (1.0 + P.JitterFraction) + 1e-12);
      EXPECT_EQ(B, P.backoffSeconds(Frame, A)) << "pure function";
    }
    EXPECT_LE(P.backoffSeconds(Frame, 30),
              P.MaxBackoffSeconds * (1.0 + P.JitterFraction))
        << "clamped at the cap";
  }
  // Different frames draw different jitter (that is the point of
  // seeding by frame: concurrent retries must not synchronize).
  EXPECT_NE(P.backoffSeconds(0, 3), P.backoffSeconds(1, 3));
}

// Regression: the old loop-based growth ran Attempt iterations, so a
// multiplier <= 1.0 never reached the cap and a huge Attempt (a
// corrupted counter, or a policy driven by an external retry budget)
// spun for minutes. The closed form must return instantly and clamped
// for any input.
TEST(RemoteStore, BackoffTerminatesAndClampsForDegenerateInputs) {
  for (double Mult : {1.0, 0.5, 0.0}) {
    RetryPolicy P;
    P.BackoffMultiplier = Mult;
    for (unsigned A : {0u, 1u, 7u, 1u << 31, ~0u}) {
      double B = P.backoffSeconds(3, A);
      // No growth: every attempt waits the jittered base.
      EXPECT_GE(B, P.BaseBackoffSeconds * (1.0 - P.JitterFraction) - 1e-12)
          << "mult=" << Mult << " attempt=" << A;
      EXPECT_LE(B, P.BaseBackoffSeconds * (1.0 + P.JitterFraction) + 1e-12)
          << "mult=" << Mult << " attempt=" << A;
    }
  }
  // Growing policy, astronomically large attempt: pow overflows to inf,
  // which must clamp to exactly the cap, not NaN or a hang.
  RetryPolicy P;
  EXPECT_EQ(P.backoffSeconds(0, ~0u), P.MaxBackoffSeconds);
  EXPECT_EQ(P.backoffSeconds(0, 1u << 31), P.MaxBackoffSeconds);
  // A non-positive cap still terminates and never goes negative.
  RetryPolicy Z;
  Z.MaxBackoffSeconds = 0.0;
  EXPECT_EQ(Z.backoffSeconds(0, 50), 0.0);
  Z.MaxBackoffSeconds = -1.0;
  EXPECT_GE(Z.backoffSeconds(0, 50), 0.0);
}

// Regression: the clamped backoff sequence must be monotone
// non-decreasing in Attempt for the default policy — jitter may wiggle
// a single draw but never below the previous attempt's draw, and once
// the cap is reached every later attempt returns exactly the cap.
TEST(RemoteStore, BackoffIsMonotoneNonDecreasing) {
  RetryPolicy P;
  for (uint32_t Frame : {0u, 7u, 123u, 4096u}) {
    double Prev = -1.0;
    for (unsigned A = 0; A != 64; ++A) {
      double B = P.backoffSeconds(Frame, A);
      EXPECT_GE(B, Prev - 1e-12)
          << "frame " << Frame << ": backoff shrank at attempt " << A;
      Prev = B;
    }
    EXPECT_EQ(Prev, P.MaxBackoffSeconds) << "saturates at the cap";
  }
}

// The unified jitter/fault draw: purposes must not alias (the old code
// XORed Frame<<32 with Attempt<<33, so (frame, attempt) pairs could
// collide across the two draw sites), and distinct inputs must draw
// distinct keys.
TEST(RemoteStore, DrawKeySeparatesPurposesAndInputs) {
  const uint64_t Seed = 0x1234;
  std::set<uint64_t> Keys;
  unsigned Total = 0;
  for (uint32_t Frame : {0u, 1u, 2u, 77u}) {
    for (unsigned A = 0; A != 8; ++A) {
      for (DrawPurpose Pu :
           {DrawPurpose::BackoffJitter, DrawPurpose::TransportFault}) {
        Keys.insert(drawKey(Seed, Frame, A, Pu));
        ++Total;
      }
    }
  }
  EXPECT_EQ(Keys.size(), Total) << "drawKey collided on distinct inputs";
  // The historical collision class: (Frame, Attempt) vs (Frame', Attempt')
  // where Frame<<32 == Attempt'<<33 style packings overlapped. The
  // injective pack keys (1,0) and (0, 1<<31)-like pairs apart too.
  EXPECT_NE(drawKey(Seed, 1, 0, DrawPurpose::BackoffJitter),
            drawKey(Seed, 0, 1u << 31, DrawPurpose::BackoffJitter));
  // Purpose matters even for identical (seed, frame, attempt).
  EXPECT_NE(drawKey(Seed, 5, 2, DrawPurpose::BackoffJitter),
            drawKey(Seed, 5, 2, DrawPurpose::TransportFault));
}

TEST(RemoteStore, ErrorTaxonomy) {
  EXPECT_TRUE(isTransient(FetchErrorKind::Timeout));
  EXPECT_TRUE(isTransient(FetchErrorKind::ShortRead));
  EXPECT_TRUE(isTransient(FetchErrorKind::Corrupt));
  EXPECT_FALSE(isTransient(FetchErrorKind::NotFound));
  EXPECT_FALSE(isTransient(FetchErrorKind::Io));
  EXPECT_STREQ(fetchErrorKindName(FetchErrorKind::Timeout), "timeout");
  EXPECT_STREQ(fetchErrorKindName(FetchErrorKind::NotFound), "not-found");
}

TEST(RemoteStore, RetryMasksTransientsAndChargesVirtualTime) {
  vm::VMProgram P = buildVM(syntheticSource(6));
  std::vector<uint8_t> Image = buildImage(P, "flate");
  std::unique_ptr<FrameSource> Clean = mustLocal(Image);
  ASSERT_NE(Clean, nullptr);

  RemoteOptions RO;
  RO.Link = sim::modem28k();
  RO.TransientFailureRate = 0.5;
  RO.FaultSeed = 7;
  SimulatedRemoteFrameSource Remote(mustLocal(Image), RO);

  RetryPolicy Policy;
  Policy.MaxAttempts = 32; // At 50% per attempt, failure odds ~2^-32.
  FetchMetrics Total;
  for (uint32_t I = 0; I != Remote.functionFrameCount(); ++I) {
    FetchMetrics M;
    FetchResult R = fetchWithRetry(Remote, I, Policy, M);
    ASSERT_TRUE(R.Ok) << "frame " << I << ": " << R.Msg;
    EXPECT_EQ(R.Bytes, Clean->fetchFrame(I).Bytes)
        << "retries must deliver the origin bytes untouched";
    EXPECT_GT(R.VirtualSeconds, 0.0);
    EXPECT_EQ(R.VirtualSeconds, M.VirtualSeconds);
    Total.Attempts += M.Attempts;
    Total.TransientFailures += M.TransientFailures;
  }
  EXPECT_GT(Total.TransientFailures, 0u)
      << "a 50% fault rate must actually inject failures";
  EXPECT_EQ(Total.Attempts,
            Remote.functionFrameCount() + Total.TransientFailures);
}

TEST(RemoteStore, PermanentErrorsSkipTheRetryBudget) {
  vm::VMProgram P = buildVM(syntheticSource(3));
  std::vector<uint8_t> Image = buildImage(P, "flate");
  std::unique_ptr<FrameSource> Src = mustLocal(Image);
  ASSERT_NE(Src, nullptr);

  FetchMetrics M;
  FetchResult R =
      fetchWithRetry(*Src, Src->functionFrameCount() + 5, RetryPolicy(), M);
  ASSERT_FALSE(R.Ok);
  EXPECT_EQ(R.Err, FetchErrorKind::NotFound);
  EXPECT_EQ(M.Attempts, 1u) << "NotFound will not improve; do not retry";
}

TEST(RemoteStore, DeadlineBoundsARetryStorm) {
  vm::VMProgram P = buildVM(syntheticSource(3));
  std::vector<uint8_t> Image = buildImage(P, "flate");
  RemoteOptions RO;
  RO.Link = sim::modem28k();
  RO.TransientFailureRate = 1.0;
  SimulatedRemoteFrameSource Remote(mustLocal(Image), RO);

  RetryPolicy Policy;
  Policy.MaxAttempts = 1u << 30; // The deadline, not the count, must stop it.
  Policy.DeadlineSeconds = 5.0;  // Virtual seconds: the test runs instantly.
  FetchMetrics M;
  FetchResult R = fetchWithRetry(Remote, 0, Policy, M);
  ASSERT_FALSE(R.Ok);
  EXPECT_EQ(R.Err, FetchErrorKind::Timeout);
  EXPECT_NE(R.Msg.find("deadline"), std::string::npos) << R.Msg;
  EXPECT_GT(M.VirtualSeconds, Policy.DeadlineSeconds);
  EXPECT_LT(M.Attempts, 1u << 10) << "bounded by virtual time, not wall time";
}

//===----------------------------------------------------------------------===//
// Source parity
//===----------------------------------------------------------------------===//

TEST(RemoteStore, AllSourcesServeIdenticalBytes) {
  vm::VMProgram P = buildVM(syntheticSource(6));
  for (const char *Chain : PerFunctionChains) {
    std::vector<uint8_t> Image = buildImage(P, Chain);
    std::string Path = writeTemp(std::string("parity_") + Chain + ".ccpk",
                                 Image);
    std::unique_ptr<FrameSource> Local = mustLocal(Image);
    std::unique_ptr<FrameSource> File = mustFile(Path);
    ASSERT_NE(Local, nullptr);
    ASSERT_NE(File, nullptr);
    RemoteOptions RO; // Clean link: remote must be a transparent proxy.
    SimulatedRemoteFrameSource Remote(mustLocal(Image), RO);

    EXPECT_EQ(Local->chainSpec(), Chain);
    EXPECT_EQ(File->chainSpec(), Chain);
    EXPECT_EQ(Remote.chainSpec(), Chain);
    ASSERT_EQ(File->functionFrameCount(), Local->functionFrameCount());
    ASSERT_EQ(Remote.functionFrameCount(), Local->functionFrameCount());
    EXPECT_EQ(File->frameBytes(), Local->frameBytes());

    FetchResult M0 = Local->fetchManifest();
    FetchResult M1 = File->fetchManifest();
    FetchResult M2 = Remote.fetchManifest();
    ASSERT_TRUE(M0.Ok && M1.Ok && M2.Ok);
    EXPECT_EQ(M1.Bytes, M0.Bytes);
    EXPECT_EQ(M2.Bytes, M0.Bytes);
    EXPECT_GT(M2.VirtualSeconds, 0.0) << "remote charges link time";

    for (uint32_t I = 0; I != Local->functionFrameCount(); ++I) {
      FetchResult A = Local->fetchFrame(I);
      FetchResult B = File->fetchFrame(I);
      FetchResult C = Remote.fetchFrame(I);
      ASSERT_TRUE(A.Ok && B.Ok && C.Ok) << Chain << " frame " << I;
      EXPECT_EQ(B.Bytes, A.Bytes) << Chain << " frame " << I;
      EXPECT_EQ(C.Bytes, A.Bytes) << Chain << " frame " << I;
    }
  }
}

TEST(RemoteStore, OpeningAMissingFileFailsTyped) {
  Result<std::unique_ptr<FileFrameSource>> S =
      FileFrameSource::open(testing::TempDir() + "ccomp_does_not_exist.ccpk");
  ASSERT_FALSE(S.ok());
  EXPECT_NE(S.error().message().find("cannot open"), std::string::npos);
}

// A bare codec archive (compressor_tool without --store) shares the
// container format with store images but has no manifest at frame 0;
// both sources must refuse it up front with a message that names the
// problem, instead of serving a function payload as the "manifest" and
// failing much later at the client's decode.
TEST(RemoteStore, ContainerWithoutAManifestIsRefusedUpFront) {
  std::vector<std::vector<uint8_t>> Frames = {{1, 2, 3, 4, 5}, {6, 7, 8}};
  std::vector<uint8_t> Archive = pipeline::packContainer("flate", Frames);

  Result<std::unique_ptr<LocalFrameSource>> L =
      LocalFrameSource::fromContainerBytes(Archive);
  ASSERT_FALSE(L.ok());
  EXPECT_NE(L.error().message().find("not a store manifest"),
            std::string::npos)
      << L.error().message();

  std::string Path = writeTemp("no_manifest.ccpk", Archive);
  Result<std::unique_ptr<FileFrameSource>> F = FileFrameSource::open(Path);
  ASSERT_FALSE(F.ok());
  EXPECT_NE(F.error().message().find("no store manifest"), std::string::npos)
      << F.error().message();
}

//===----------------------------------------------------------------------===//
// Differential execution
//===----------------------------------------------------------------------===//

// The acceptance bar: store-backed execution out of every backend —
// including a remote link injecting transient faults into 10% of fetch
// attempts — is byte-identical to the eager run, for every chain, at a
// generous and at a 1-byte cache budget (the latter refetches every
// frame on every fault, multiplying the transport's chances to betray
// us).
TEST(RemoteStore, ExecutionMatchesEagerThroughEveryBackend) {
  vm::VMProgram P = buildVM(syntheticSource(8));
  vm::RunResult Eager = vm::runProgram(P);
  ASSERT_TRUE(Eager.Ok) << Eager.Trap;

  const sim::Link Links[] = {sim::modem28k(), sim::isdn128k(),
                             sim::ethernet10M(), sim::fast100M()};
  for (const char *Chain : PerFunctionChains) {
    std::vector<uint8_t> Image = buildImage(P, Chain);
    std::string Path = writeTemp(std::string("diff_") + Chain + ".ccpk",
                                 Image);
    for (size_t Budget : {size_t(1), size_t(16) << 20}) {
      StoreOptions Opts;
      Opts.CacheBudgetBytes = Budget;
      Opts.Retry.MaxAttempts = 8; // 10% fault rate -> ~1e-8 residual odds.

      std::vector<std::unique_ptr<FrameSource>> Sources;
      Sources.push_back(mustLocal(Image));
      Sources.push_back(mustFile(Path));
      for (size_t LinkIdx = 0; LinkIdx != 4; ++LinkIdx) {
        RemoteOptions RO;
        RO.Link = Links[LinkIdx];
        RO.TransientFailureRate = 0.10;
        RO.FaultSeed = 0xC0DE + LinkIdx + Budget;
        // Flaky remotes over both in-memory and file origins.
        Sources.push_back(std::make_unique<SimulatedRemoteFrameSource>(
            LinkIdx % 2 ? mustFile(Path) : mustLocal(Image), RO));
      }

      for (std::unique_ptr<FrameSource> &Src : Sources) {
        ASSERT_NE(Src, nullptr);
        std::string Kind = Src->kind();
        Result<std::unique_ptr<CodeStore>> L =
            CodeStore::tryFromSource(std::move(Src), Opts);
        ASSERT_TRUE(L.ok()) << Chain << " " << Kind << " budget=" << Budget
                            << ": " << L.error().message();
        std::unique_ptr<CodeStore> S = L.take();

        vm::RunResult R = runFromStore(*S);
        EXPECT_TRUE(R.Ok) << Chain << " " << Kind << " budget=" << Budget
                          << ": " << R.Trap;
        EXPECT_EQ(R.ExitCode, Eager.ExitCode) << Chain << " " << Kind;
        EXPECT_EQ(R.Output, Eager.Output) << Chain << " " << Kind;
        EXPECT_EQ(R.Steps, Eager.Steps) << Chain << " " << Kind;

        StoreStats St = S->stats();
        EXPECT_EQ(St.DecodeErrors, 0u) << Chain << " " << Kind;
        EXPECT_EQ(St.FetchFailures, 0u)
            << Chain << " " << Kind << ": transients must be masked";
        if (Kind == std::string("sim-remote")) {
          EXPECT_GT(St.FetchVirtualNanos, 0u) << Chain;
          EXPECT_GE(St.FetchAttempts,
                    St.Misses + 1 /*manifest*/ + St.FetchRetries);
        }
      }
    }
  }
}

// The same flaky run replays bit-identically: fault draws, retries, and
// the virtual clock are pure functions of the seed, not of timing.
TEST(RemoteStore, FlakyTransportIsDeterministic) {
  vm::VMProgram P = buildVM(syntheticSource(6));
  std::vector<uint8_t> Image = buildImage(P, "brisc+flate");

  auto RunOnce = [&](uint64_t Seed) {
    RemoteOptions RO;
    RO.Link = sim::isdn128k();
    RO.TransientFailureRate = 0.25;
    RO.FaultSeed = Seed;
    StoreOptions Opts;
    Opts.CacheBudgetBytes = 1; // Evict everything: maximum refetching.
    Opts.Retry.MaxAttempts = 16;
    Result<std::unique_ptr<CodeStore>> L = CodeStore::tryFromSource(
        std::make_unique<SimulatedRemoteFrameSource>(mustLocal(Image), RO),
        Opts);
    EXPECT_TRUE(L.ok()) << L.error().message();
    std::unique_ptr<CodeStore> S = L.take();
    vm::RunResult R = runFromStore(*S);
    EXPECT_TRUE(R.Ok) << R.Trap;
    return S->stats();
  };

  StoreStats A = RunOnce(42), B = RunOnce(42), C = RunOnce(43);
  EXPECT_EQ(A.FetchAttempts, B.FetchAttempts);
  EXPECT_EQ(A.FetchRetries, B.FetchRetries);
  EXPECT_EQ(A.FetchedBytes, B.FetchedBytes);
  EXPECT_EQ(A.FetchVirtualNanos, B.FetchVirtualNanos);
  EXPECT_GT(A.FetchRetries, 0u) << "25% fault rate must inject something";
  EXPECT_NE(A.FetchVirtualNanos, C.FetchVirtualNanos)
      << "a different seed draws a different history";
}

//===----------------------------------------------------------------------===//
// Permanent failure: typed errors, no aborts, no hangs
//===----------------------------------------------------------------------===//

TEST(RemoteStore, TotalOutageFailsConstructionTyped) {
  vm::VMProgram P = buildVM(syntheticSource(3));
  std::vector<uint8_t> Image = buildImage(P, "flate");
  RemoteOptions RO;
  RO.TransientFailureRate = 1.0; // Every attempt fails: retries exhaust.
  StoreOptions Opts;
  Opts.Retry.MaxAttempts = 4;
  Result<std::unique_ptr<CodeStore>> L = CodeStore::tryFromSource(
      std::make_unique<SimulatedRemoteFrameSource>(mustLocal(Image), RO),
      Opts);
  ASSERT_FALSE(L.ok());
  EXPECT_NE(L.error().message().find("fetch manifest"), std::string::npos)
      << L.error().message();
}

TEST(RemoteStore, FrameOutageFailsEveryFaultTyped) {
  vm::VMProgram P = buildVM(syntheticSource(4));
  std::vector<uint8_t> Image = buildImage(P, "flate");
  StoreOptions Opts;
  Opts.Retry.MaxAttempts = 3;
  auto Src = std::make_unique<OutageFrames>(mustLocal(Image));
  OutageFrames *Raw = Src.get();
  Result<std::unique_ptr<CodeStore>> L =
      CodeStore::tryFromSource(std::move(Src), Opts);
  ASSERT_TRUE(L.ok()) << L.error().message();
  std::unique_ptr<CodeStore> S = L.take();

  for (uint32_t I = 0; I != S->functionCount(); ++I) {
    Result<std::shared_ptr<const vm::VMFunction>> R = S->fault(I);
    ASSERT_FALSE(R.ok()) << I;
    EXPECT_NE(R.error().message().find("fetch frame"), std::string::npos);
    EXPECT_NE(R.error().message().find("timeout"), std::string::npos);
    EXPECT_FALSE(S->isResident(I));
  }
  EXPECT_EQ(Raw->FrameFetches.load(),
            S->functionCount() * Opts.Retry.MaxAttempts)
      << "each fault retries exactly MaxAttempts times";

  StoreStats St = S->stats();
  EXPECT_EQ(St.FetchFailures, S->functionCount());
  EXPECT_EQ(St.DecodeErrors, S->functionCount());
  EXPECT_EQ(St.Decodes, 0u) << "no bytes ever arrived, nothing decoded";

  // Executing through the resolver traps recoverably; no abort.
  vm::RunResult R = runFromStore(*S);
  EXPECT_FALSE(R.Ok);
  EXPECT_NE(R.Trap.find("resolve function"), std::string::npos) << R.Trap;
}

// Eight threads faulting one dead function: the single-flight leader's
// failure must wake every waiter with that same typed error — no thread
// may hang on the future, and no thread may crash.
TEST(RemoteStore, FailedFetchWakesAllSingleFlightWaiters) {
  vm::VMProgram P = buildVM(syntheticSource(4));
  std::vector<uint8_t> Image = buildImage(P, "flate");
  StoreOptions Opts;
  Opts.Retry.MaxAttempts = 2;
  Result<std::unique_ptr<CodeStore>> L = CodeStore::tryFromSource(
      std::make_unique<OutageFrames>(mustLocal(Image), /*SleepMillis=*/20),
      Opts);
  ASSERT_TRUE(L.ok()) << L.error().message();
  std::unique_ptr<CodeStore> S = L.take();

  constexpr unsigned NumThreads = 8;
  std::atomic<unsigned> Ready{0};
  std::atomic<bool> Go{false};
  std::string Errors[NumThreads];
  std::vector<std::thread> Threads;
  for (unsigned T = 0; T != NumThreads; ++T)
    Threads.emplace_back([&, T] {
      ++Ready;
      while (!Go.load())
        std::this_thread::yield();
      Result<std::shared_ptr<const vm::VMFunction>> R = S->fault(0);
      Errors[T] = R.ok() ? std::string() : R.error().message();
    });
  while (Ready.load() != NumThreads)
    std::this_thread::yield();
  Go.store(true);
  for (std::thread &T : Threads)
    T.join();

  for (unsigned T = 0; T != NumThreads; ++T) {
    EXPECT_FALSE(Errors[T].empty()) << "thread " << T << " must see the error";
    EXPECT_NE(Errors[T].find("outage"), std::string::npos) << Errors[T];
  }
  StoreStats St = S->stats();
  EXPECT_EQ(St.Misses, uint64_t(NumThreads));
  EXPECT_EQ(St.SingleFlightWaits + St.FetchFailures, uint64_t(NumThreads))
      << "every miss either led a failed fetch or waited on one";
}

//===----------------------------------------------------------------------===//
// Concurrency soak (tsan)
//===----------------------------------------------------------------------===//

// Eight threads hammering a flaky remote store with a tiny budget, all
// contending on the cache's one lock: constant faulting, refetching,
// eviction, injected failures, and single-flight collisions. Every outcome must be either the right
// decoded function or a typed error, and the stats must stay coherent.
TEST(RemoteStore, ConcurrentSoakOverFlakyLink) {
  vm::VMProgram P = buildVM(syntheticSource(8));
  std::vector<uint8_t> Image = buildImage(P, "vm-compact");

  RemoteOptions RO;
  RO.Link = sim::fast100M();
  RO.TransientFailureRate = 0.30;
  RO.FaultSeed = 99;
  StoreOptions Opts;
  Opts.CacheBudgetBytes = 4096; // Small: constant eviction + refetch.
  Opts.Retry.MaxAttempts = 12;
  Result<std::unique_ptr<CodeStore>> L = CodeStore::tryFromSource(
      std::make_unique<SimulatedRemoteFrameSource>(mustLocal(Image), RO),
      Opts);
  ASSERT_TRUE(L.ok()) << L.error().message();
  std::unique_ptr<CodeStore> S = L.take();
  const uint32_t N = S->functionCount();

  constexpr unsigned NumThreads = 8;
  constexpr unsigned Iters = 300;
  std::atomic<unsigned> TypedErrors{0};
  std::atomic<unsigned> WrongBodies{0};
  std::vector<std::thread> Threads;
  for (unsigned T = 0; T != NumThreads; ++T)
    Threads.emplace_back([&, T] {
      PRNG Rng(0x50A4'0000ull + T);
      for (unsigned I = 0; I != Iters; ++I) {
        uint32_t Id = static_cast<uint32_t>(Rng.below(N));
        Result<std::shared_ptr<const vm::VMFunction>> R = S->fault(Id);
        if (!R.ok())
          ++TypedErrors;
        else if (R.value()->Name != S->functionName(Id))
          ++WrongBodies;
      }
    });
  for (std::thread &T : Threads)
    T.join();

  EXPECT_EQ(WrongBodies.load(), 0u);
  // MaxAttempts=12 at 30%: per-fetch failure odds ~5e-7; with ~2400
  // faults the expected count is ~0.001, so flakes would mean a bug.
  EXPECT_EQ(TypedErrors.load(), 0u);

  StoreStats St = S->stats();
  EXPECT_EQ(St.Hits + St.Misses, uint64_t(NumThreads) * Iters);
  EXPECT_LE(St.SingleFlightWaits, St.Misses);
  EXPECT_GT(St.FetchRetries, 0u) << "the link must actually have flaked";
  EXPECT_EQ(St.FetchFailures, 0u);
  EXPECT_GT(St.Evictions, 0u) << "the budget must actually have evicted";
}

//===----------------------------------------------------------------------===//
// Virtual-clock accounting
//===----------------------------------------------------------------------===//

TEST(RemoteStore, BatchedLatencyChargesSetupOnce) {
  vm::VMProgram P = buildVM(syntheticSource(6));
  std::vector<uint8_t> Image = buildImage(P, "flate");
  const sim::Link Modem = sim::modem28k();

  auto TotalSeconds = [&](LatencyMode Mode) {
    RemoteOptions RO;
    RO.Link = Modem;
    RO.Latency = Mode;
    SimulatedRemoteFrameSource Remote(mustLocal(Image), RO);
    double Total = 0;
    FetchResult M = Remote.fetchManifest();
    EXPECT_TRUE(M.Ok);
    Total += M.VirtualSeconds;
    for (uint32_t I = 0; I != Remote.functionFrameCount(); ++I) {
      FetchResult R = Remote.fetchFrame(I);
      EXPECT_TRUE(R.Ok);
      Total += R.VirtualSeconds;
    }
    return Total;
  };

  std::unique_ptr<FrameSource> Src = mustLocal(Image);
  size_t PayloadBytes = Src->frameBytes() + Src->fetchManifest().Bytes.size();
  size_t Transfers = Src->functionFrameCount() + 1;

  double PerFetch = TotalSeconds(LatencyMode::PerFetch);
  double Batched = TotalSeconds(LatencyMode::Batched);
  EXPECT_NEAR(PerFetch,
              Modem.LatencySeconds * Transfers +
                  Modem.streamSeconds(PayloadBytes),
              1e-9);
  EXPECT_NEAR(Batched,
              Modem.LatencySeconds + Modem.streamSeconds(PayloadBytes),
              1e-9);
  EXPECT_LT(Batched, PerFetch)
      << "one session must beat per-frame modem redials";
}

} // namespace
