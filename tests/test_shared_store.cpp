//===- tests/test_shared_store.cpp - Process-wide frame registry ---------------===//
//
// Part of the ccomp project (PLDI'97 "Code Compression" reproduction).
//
//===----------------------------------------------------------------------===//
//
// The multi-tenant contract: N CodeStore views over one shared
// FrameRegistry decode each frame exactly once process-wide and produce
// byte-identical execution to private stores at every chain, page
// granularity, and budget; tenants of different modules never share
// frames; one budget holds every tenant's frames; stats stay per tenant;
// and a doctored content-hash claim is refused at the shared-registry
// door while private loads stay permissive (frame corruption surfaces at
// fault, as ever).
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "corpus/Corpus.h"
#include "pipeline/Codec.h"
#include "pipeline/Pipeline.h"
#include "store/CodeStore.h"
#include "store/FrameRegistry.h"
#include "store/Resolver.h"

#include "gtest/gtest.h"

#include <atomic>
#include <chrono>
#include <fstream>
#include <thread>

using namespace ccomp;
using namespace ccomp::store;
using namespace ccomp::test;

namespace {

std::unique_ptr<CodeStore> mustBuildStore(const vm::VMProgram &P,
                                          const std::string &Chain,
                                          StoreOptions Opts) {
  std::string Err;
  std::unique_ptr<CodeStore> S = CodeStore::build(P, Chain, Opts, Err);
  EXPECT_NE(S, nullptr) << Chain << ": " << Err;
  return S;
}

std::unique_ptr<CodeStore> mustLoadTenant(const std::vector<uint8_t> &Image,
                                          std::shared_ptr<FrameRegistry> Reg) {
  StoreOptions Opts;
  Opts.SharedRegistry = std::move(Reg);
  Result<std::unique_ptr<CodeStore>> R = CodeStore::tryLoad(Image, Opts);
  EXPECT_TRUE(R.ok()) << (R.ok() ? "" : R.error().message());
  return R.ok() ? R.take() : nullptr;
}

// A registered passthrough codec whose decode can be slowed on demand,
// to widen the cross-tenant single-flight race window.
std::atomic<bool> SlowDecode{false};

class SlowRawCodec final : public pipeline::Codec {
public:
  const char *name() const override { return "slow-raw"; }
  const char *description() const override {
    return "test passthrough with a switchable decode delay";
  }
  pipeline::PayloadKind payloadKind() const override {
    return pipeline::PayloadKind::Raw;
  }

protected:
  std::vector<uint8_t> compressImpl(ByteSpan P) const override {
    return P.toVector();
  }
  Result<std::vector<uint8_t>> tryDecompressImpl(ByteSpan F) const override {
    if (SlowDecode.load(std::memory_order_relaxed))
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    return F.toVector();
  }
};

void ensureSlowRawRegistered() {
  static bool Done = [] {
    pipeline::Registry::instance().add(std::make_unique<SlowRawCodec>());
    return true;
  }();
  (void)Done;
}

const char *const PerFunctionChains[] = {"flate", "vm-compact", "brisc",
                                         "brisc+flate", "vm-compact+flate"};

/// Returns \p Image with byte range [6, 14) of its *manifest frame*
/// (the fixed offset of the v3 content-hash claim) XORed, then
/// repacked. Only the claim changes; the function frames — and thus
/// the recomputable content hash — stay intact.
std::vector<uint8_t> doctorHashClaim(const std::vector<uint8_t> &Image) {
  Result<pipeline::Container> C = pipeline::tryUnpackContainer(Image);
  EXPECT_TRUE(C.ok());
  pipeline::Container Box = C.take();
  EXPECT_GE(Box.Frames[0].size(), 15u);
  for (size_t I = 6; I != 14; ++I)
    Box.Frames[0][I] ^= 0xA5;
  return pipeline::packContainer(Box.ChainSpec, Box.Frames);
}

vm::RunResult mustRun(CodeStore &S) {
  vm::RunResult R = runFromStore(S);
  EXPECT_TRUE(R.Ok) << R.Trap;
  return R;
}

} // namespace

//===----------------------------------------------------------------------===//
// Sharing: one decode process-wide
//===----------------------------------------------------------------------===//

// 8 threads spread over 4 tenant views of one container fault every
// frame concurrently; the registry's single-flight must decode each
// frame exactly once across all tenants and threads. The slow codec
// widens the race window; run under tsan this is also the data-race
// certificate for the registry fault path.
TEST(SharedStore, ConcurrentTenantsDecodeEachFrameOnce) {
  ensureSlowRawRegistered();
  vm::VMProgram P = buildVM(syntheticSource(6));
  StoreOptions BO;
  BO.PageTargetBytes = 256; // Page granularity: more frames, more races.
  std::unique_ptr<CodeStore> Built = mustBuildStore(P, "slow-raw", BO);
  ASSERT_NE(Built, nullptr);
  std::vector<uint8_t> Image = Built->save();

  RegistryOptions RO;
  RO.CacheBudgetBytes = 64u << 20; // No eviction: decode counts are exact.
  auto Reg = std::make_shared<FrameRegistry>(RO);
  constexpr unsigned NumTenants = 4;
  constexpr unsigned NumThreads = 8;
  std::vector<std::unique_ptr<CodeStore>> Tenants;
  for (unsigned I = 0; I != NumTenants; ++I) {
    Tenants.push_back(mustLoadTenant(Image, Reg));
    ASSERT_NE(Tenants.back(), nullptr);
  }
  const uint32_t Funcs = Tenants[0]->functionCount();

  SlowDecode.store(true, std::memory_order_relaxed);
  std::atomic<unsigned> Failures{0};
  {
    std::vector<std::thread> Threads;
    for (unsigned T = 0; T != NumThreads; ++T)
      Threads.emplace_back([&, T] {
        CodeStore &S = *Tenants[T % NumTenants];
        for (uint32_t Fn = 0; Fn != Funcs; ++Fn)
          if (!S.fault(Fn).ok())
            Failures.fetch_add(1, std::memory_order_relaxed);
      });
    for (std::thread &T : Threads)
      T.join();
  }
  SlowDecode.store(false, std::memory_order_relaxed);

  EXPECT_EQ(Failures.load(), 0u);
  RegistryStats RS = Reg->stats();
  EXPECT_EQ(RS.Decodes, Tenants[0]->frameCount())
      << "a shared frame decoded more than once process-wide";
  EXPECT_EQ(RS.DecodeErrors, 0u);
  EXPECT_EQ(RS.Modules, 1u);

  // Traffic adds up per tenant: every fault was a hit, a miss, or a
  // single-flight wait, and only frameCount of them across the whole
  // process were misses that led decodes.
  uint64_t Misses = 0;
  for (auto &S : Tenants)
    Misses += S->stats().Misses;
  EXPECT_GE(Misses, Tenants[0]->frameCount());
}

//===----------------------------------------------------------------------===//
// Differential: shared == private, byte for byte
//===----------------------------------------------------------------------===//

// Every per-function chain x page granularity x budget extreme, run by
// 2 shared tenants and checked against the eager interpretation. A
// 1-byte budget makes the registry thrash (every fault re-decodes under
// contention); a huge one makes the first tenant decode for everybody.
TEST(SharedStore, SharedMatchesPrivateEverywhere) {
  vm::VMProgram P = buildVM(syntheticSource(6));
  vm::RunResult Eager = vm::runProgram(P);
  ASSERT_TRUE(Eager.Ok) << Eager.Trap;

  for (const char *Chain : PerFunctionChains) {
    for (size_t Target : {size_t(0), size_t(256)}) {
      for (size_t Budget : {size_t(1), size_t(64) << 20}) {
        StoreOptions BO;
        BO.PageTargetBytes = Target;
        std::unique_ptr<CodeStore> Built = mustBuildStore(P, Chain, BO);
        ASSERT_NE(Built, nullptr);
        std::vector<uint8_t> Image = Built->save();

        RegistryOptions RO;
        RO.CacheBudgetBytes = Budget;
        auto Reg = std::make_shared<FrameRegistry>(RO);
        std::unique_ptr<CodeStore> A = mustLoadTenant(Image, Reg);
        std::unique_ptr<CodeStore> B = mustLoadTenant(Image, Reg);
        ASSERT_NE(A, nullptr);
        ASSERT_NE(B, nullptr);
        for (CodeStore *S : {A.get(), B.get()}) {
          vm::RunResult R = mustRun(*S);
          EXPECT_EQ(R.Output, Eager.Output)
              << Chain << " target=" << Target << " budget=" << Budget;
          EXPECT_EQ(R.ExitCode, Eager.ExitCode);
          EXPECT_EQ(R.Steps, Eager.Steps);
        }
      }
    }
  }
}

// The economics claim, asserted at test granularity: under a budget
// that holds the whole module, the registry decode count after N
// tenants run is the same as after one — not N times it.
TEST(SharedStore, DecodeBillIndependentOfTenantCount) {
  vm::VMProgram P = buildVM(syntheticSource(6));
  std::unique_ptr<CodeStore> Built =
      mustBuildStore(P, "brisc+flate", StoreOptions());
  ASSERT_NE(Built, nullptr);
  std::vector<uint8_t> Image = Built->save();

  uint64_t OneTenant = 0;
  for (unsigned N : {1u, 2u, 8u}) {
    RegistryOptions RO;
    RO.CacheBudgetBytes = 64u << 20;
    auto Reg = std::make_shared<FrameRegistry>(RO);
    std::vector<std::unique_ptr<CodeStore>> Tenants;
    for (unsigned I = 0; I != N; ++I) {
      Tenants.push_back(mustLoadTenant(Image, Reg));
      ASSERT_NE(Tenants.back(), nullptr);
      mustRun(*Tenants.back());
    }
    uint64_t Decodes = Reg->stats().Decodes;
    if (N == 1)
      OneTenant = Decodes;
    else
      EXPECT_EQ(Decodes, OneTenant) << N << " tenants";
    // Later tenants ride entirely on the first one's decodes.
    if (N > 1) {
      EXPECT_EQ(Tenants.back()->stats().Misses, 0u);
    }
  }
}

//===----------------------------------------------------------------------===//
// Isolation
//===----------------------------------------------------------------------===//

// Two different modules in one registry share the budget, never the
// frames: same frame ids, different container hashes, distinct decodes
// and distinct bodies.
TEST(SharedStore, DifferentModulesNeverShareFrames) {
  vm::VMProgram P1 = buildVM(syntheticSource(3));
  vm::VMProgram P2 = buildVM(syntheticSource(4));
  std::unique_ptr<CodeStore> B1 =
      mustBuildStore(P1, "brisc+flate", StoreOptions());
  std::unique_ptr<CodeStore> B2 =
      mustBuildStore(P2, "brisc+flate", StoreOptions());
  ASSERT_NE(B1, nullptr);
  ASSERT_NE(B2, nullptr);
  ASSERT_NE(B1->containerHash(), B2->containerHash());

  auto Reg = std::make_shared<FrameRegistry>();
  std::unique_ptr<CodeStore> A = mustLoadTenant(B1->save(), Reg);
  std::unique_ptr<CodeStore> B = mustLoadTenant(B2->save(), Reg);
  ASSERT_NE(A, nullptr);
  ASSERT_NE(B, nullptr);
  EXPECT_EQ(Reg->stats().Modules, 2u);

  Result<std::shared_ptr<const vm::VMFunction>> FA = A->fault(0);
  Result<std::shared_ptr<const vm::VMFunction>> FB = B->fault(0);
  ASSERT_TRUE(FA.ok());
  ASSERT_TRUE(FB.ok());
  // Same frame id, two decodes: the keys cannot collide across hashes.
  EXPECT_EQ(Reg->stats().Decodes, 2u);
  EXPECT_NE(FA.value().get(), FB.value().get());
}

// A same-hash registration with a different shape is a forged or
// corrupt manifest; the registry refuses it typed.
TEST(SharedStore, HashCollisionWithDifferentShapeRefused) {
  FrameRegistry Reg;
  ModuleIdent A;
  A.ChainSpec = "flate";
  A.FrameCount = 4;
  A.FuncCount = 4;
  Result<std::shared_ptr<ModuleHeat>> First = Reg.registerModule(0xBEEF, A);
  ASSERT_TRUE(First.ok());

  // Idempotent for the same shape — every tenant of a module registers.
  Result<std::shared_ptr<ModuleHeat>> Again = Reg.registerModule(0xBEEF, A);
  ASSERT_TRUE(Again.ok());
  EXPECT_EQ(First.value().get(), Again.value().get());

  ModuleIdent B = A;
  B.FrameCount = 5;
  Result<std::shared_ptr<ModuleHeat>> Bad = Reg.registerModule(0xBEEF, B);
  ASSERT_FALSE(Bad.ok());
  EXPECT_NE(Bad.error().message().find("collision"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// Trust: the manifest's hash claim
//===----------------------------------------------------------------------===//

// A doctored v3 hash claim must not key into a shared registry (where
// it could alias another module), but a private store still loads and
// runs — its registry serves only itself, and the frames are intact.
TEST(SharedStore, DoctoredHashClaimRefusedSharedAcceptedPrivate) {
  vm::VMProgram P = buildVM(syntheticSource(4));
  std::unique_ptr<CodeStore> Built =
      mustBuildStore(P, "brisc+flate", StoreOptions());
  ASSERT_NE(Built, nullptr);
  std::vector<uint8_t> Doctored = doctorHashClaim(Built->save());

  StoreOptions Shared;
  Shared.SharedRegistry = std::make_shared<FrameRegistry>();
  Result<std::unique_ptr<CodeStore>> R = CodeStore::tryLoad(Doctored, Shared);
  ASSERT_FALSE(R.ok()) << "forged claim joined a shared registry";
  EXPECT_NE(R.error().message().find("hash"), std::string::npos);

  Result<std::unique_ptr<CodeStore>> Priv =
      CodeStore::tryLoad(Doctored, StoreOptions());
  ASSERT_TRUE(Priv.ok()) << Priv.error().message();
  vm::RunResult Run = mustRun(*Priv.value());
  EXPECT_EQ(Run.ExitCode, vm::runProgram(P).ExitCode);
}

// A source that cannot be re-hashed — an on-demand file — joins on the
// manifest's (trusted) claim, landing on the same identity as the
// in-memory load, whose hash is recomputed from the frames.
TEST(SharedStore, FileContainerJoinsOnItsClaim) {
  vm::VMProgram P = buildVM(syntheticSource(4));
  std::unique_ptr<CodeStore> Built =
      mustBuildStore(P, "brisc+flate", StoreOptions());
  ASSERT_NE(Built, nullptr);
  std::vector<uint8_t> V3 = Built->save();
  const std::string V3Path = testing::TempDir() + "ccomp_v3_store.ccpk";
  {
    std::ofstream Out(V3Path, std::ios::binary | std::ios::trunc);
    Out.write(reinterpret_cast<const char *>(V3.data()),
              static_cast<std::streamsize>(V3.size()));
  }

  StoreOptions Shared;
  Shared.SharedRegistry = std::make_shared<FrameRegistry>();
  Result<std::unique_ptr<CodeStore>> Mem = CodeStore::tryLoad(V3, Shared);
  ASSERT_TRUE(Mem.ok()) << Mem.error().message();
  mustRun(*Mem.value());
  uint64_t Decodes = Shared.SharedRegistry->stats().Decodes;
  ASSERT_GT(Decodes, 0u);

  Result<std::unique_ptr<CodeStore>> FromFile =
      CodeStore::tryOpenFile(V3Path, Shared);
  ASSERT_TRUE(FromFile.ok()) << FromFile.error().message();
  EXPECT_EQ(FromFile.value()->containerHash(), Built->containerHash());
  // Same identity, same frames: the file tenant decodes nothing new.
  mustRun(*FromFile.value());
  EXPECT_EQ(Shared.SharedRegistry->stats().Decodes, Decodes);
}

//===----------------------------------------------------------------------===//
// Stats attribution
//===----------------------------------------------------------------------===//

// Traffic is the tenant's; decodes are the registry's; one tenant's
// resetStats touches neither the other tenant nor the shared registry
// nor the pooled heat tables.
TEST(SharedStore, StatsAttributionAndResetIsolation) {
  vm::VMProgram P = buildVM(syntheticSource(4));
  std::unique_ptr<CodeStore> Built =
      mustBuildStore(P, "brisc+flate", StoreOptions());
  ASSERT_NE(Built, nullptr);
  std::vector<uint8_t> Image = Built->save();

  auto Reg = std::make_shared<FrameRegistry>();
  std::unique_ptr<CodeStore> A = mustLoadTenant(Image, Reg);
  std::unique_ptr<CodeStore> B = mustLoadTenant(Image, Reg);
  ASSERT_NE(A, nullptr);
  ASSERT_NE(B, nullptr);
  EXPECT_TRUE(A->sharesRegistry());
  EXPECT_EQ(&A->registry(), Reg.get());

  ASSERT_TRUE(A->fault(0).ok()); // A leads the decode...
  ASSERT_TRUE(B->fault(0).ok()); // ...B rides it.
  EXPECT_EQ(A->stats().Misses, 1u);
  EXPECT_EQ(A->stats().Hits, 0u);
  EXPECT_EQ(B->stats().Misses, 0u);
  EXPECT_EQ(B->stats().Hits, 1u);
  EXPECT_EQ(Reg->stats().Decodes, 1u);
  // Both tenants see the same registry-global decode/gauge side.
  EXPECT_EQ(A->stats().Decodes, 1u);
  EXPECT_EQ(B->stats().Decodes, 1u);
  EXPECT_EQ(A->stats().ResidentBytes, B->stats().ResidentBytes);
  // Heat pools across tenants: one demand touch each.
  EXPECT_EQ(A->frameHeat(0), 2u);
  EXPECT_EQ(B->frameHeat(0), 2u);

  A->resetStats();
  EXPECT_EQ(A->stats().Misses, 0u);
  EXPECT_EQ(B->stats().Hits, 1u) << "A's reset erased B's counters";
  EXPECT_EQ(Reg->stats().Decodes, 1u)
      << "a tenant reset cleared the shared registry";
  EXPECT_EQ(B->frameHeat(0), 2u) << "a tenant reset cooled shared heat";

  // The registry's own reset zeroes the decode bill but not the heat
  // tables or the gauges.
  Reg->resetStats();
  EXPECT_EQ(Reg->stats().Decodes, 0u);
  EXPECT_GT(Reg->stats().ResidentBytes, 0u);
  EXPECT_EQ(A->frameHeat(0), 2u);
  // And never a tenant's counters.
  EXPECT_EQ(B->stats().Hits, 1u);
}

//===----------------------------------------------------------------------===//
// Configuration plumbing
//===----------------------------------------------------------------------===//

// A shared tenant reports the registry's budget, not its own (ignored)
// StoreOptions budget; a private store keeps the old contract. The
// registry's budget is one LRU over every tenant: at 1 byte, one
// tenant's fault evicts the frame another tenant brought in, and a
// departed tenant leaves the others serving.
TEST(SharedStore, BudgetComesFromTheRegistry) {
  vm::VMProgram P = buildVM(syntheticSource(3));
  std::unique_ptr<CodeStore> Built =
      mustBuildStore(P, "flate", StoreOptions());
  ASSERT_NE(Built, nullptr);
  std::vector<uint8_t> Image = Built->save();

  RegistryOptions RO;
  RO.CacheBudgetBytes = 12345;
  auto Reg = std::make_shared<FrameRegistry>(RO);
  StoreOptions Opts;
  Opts.CacheBudgetBytes = 999; // Ignored when shared.
  Opts.SharedRegistry = Reg;
  Result<std::unique_ptr<CodeStore>> S = CodeStore::tryLoad(Image, Opts);
  ASSERT_TRUE(S.ok());
  EXPECT_EQ(S.value()->cacheBudgetBytes(), 12345u);
  EXPECT_EQ(Reg->cacheBudgetBytes(), 12345u);

  StoreOptions Priv;
  Priv.CacheBudgetBytes = 777;
  Result<std::unique_ptr<CodeStore>> PS = CodeStore::tryLoad(Image, Priv);
  ASSERT_TRUE(PS.ok());
  EXPECT_FALSE(PS.value()->sharesRegistry());
  EXPECT_EQ(PS.value()->cacheBudgetBytes(), 777u);

  RegistryOptions Tiny;
  Tiny.CacheBudgetBytes = 1;
  auto TinyReg = std::make_shared<FrameRegistry>(Tiny);
  std::unique_ptr<CodeStore> A = mustLoadTenant(Image, TinyReg);
  std::unique_ptr<CodeStore> B = mustLoadTenant(Image, TinyReg);
  ASSERT_NE(A, nullptr);
  ASSERT_NE(B, nullptr);
  ASSERT_GE(A->functionCount(), 2u);
  ASSERT_TRUE(A->fault(0).ok());
  ASSERT_TRUE(B->fault(1).ok());
  EXPECT_FALSE(A->isResident(0)) << "B's fault evicts A's frame";
  EXPECT_TRUE(A->isResident(1)) << "A sees the frame B brought in";
  EXPECT_EQ(TinyReg->stats().ResidentFrames, 1u);
  A.reset();
  ASSERT_TRUE(B->fault(0).ok());
  EXPECT_TRUE(B->isResident(0));
  EXPECT_FALSE(B->isResident(1));
  EXPECT_EQ(TinyReg->stats().Evictions, 2u);
}

// build() can also join a shared registry directly, and two builds of
// the same program over the same chain land on the same content hash —
// rebuild-level dedup.
TEST(SharedStore, BuildJoinsRegistryAndRebuildsShareIdentity) {
  vm::VMProgram P = buildVM(syntheticSource(4));
  auto Reg = std::make_shared<FrameRegistry>();
  StoreOptions Opts;
  Opts.SharedRegistry = Reg;
  std::unique_ptr<CodeStore> A = mustBuildStore(P, "brisc+flate", Opts);
  std::unique_ptr<CodeStore> B = mustBuildStore(P, "brisc+flate", Opts);
  ASSERT_NE(A, nullptr);
  ASSERT_NE(B, nullptr);
  EXPECT_EQ(A->containerHash(), B->containerHash());
  EXPECT_EQ(Reg->stats().Modules, 1u);

  ASSERT_TRUE(A->fault(0).ok());
  ASSERT_TRUE(B->fault(0).ok());
  EXPECT_EQ(Reg->stats().Decodes, 1u) << "rebuilt twins did not share";
}
