//===- tests/test_perpage_store.cpp - Per-frame codec selection ----------------===//
//
// Part of the ccomp project (PLDI'97 "Code Compression" reproduction).
//
//===----------------------------------------------------------------------===//
//
// The per-page selection promises: a store built with candidate chains
// never produces more compressed bytes than any of its chains used
// globally; the selection is deterministic; a non-uniform outcome
// round-trips through a manifest v4 image that executes byte-identically
// to eager; a uniform outcome (duplicate candidates) normalizes to a
// container bit-identical to a plain single-chain build; crafted v4
// manifests fail typed; and concurrent faults through mixed per-frame
// chains decode correctly under the thread sanitizer.
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "pipeline/Codec.h"
#include "pipeline/Pipeline.h"
#include "store/CodeStore.h"
#include "store/Resolver.h"

#include "gtest/gtest.h"

#include <thread>

using namespace ccomp;
using namespace ccomp::store;
using namespace ccomp::test;

namespace {

// Primary first; the rest are the --chains candidates. All of one body
// kind family (Raw/FixedCode payloads are the same bytes).
const char *const Primary = "vm-compact";
const std::vector<std::string> Candidates = {"vm-compact+flate", "bwt-dict",
                                             "brisc-ctx"};

std::unique_ptr<CodeStore> mustBuildStore(const vm::VMProgram &P,
                                          const std::string &Chain,
                                          StoreOptions Opts) {
  std::string Err;
  std::unique_ptr<CodeStore> S = CodeStore::build(P, Chain, Opts, Err);
  EXPECT_NE(S, nullptr) << Chain << ": " << Err;
  return S;
}

StoreOptions perPageOpts(size_t PageTarget) {
  StoreOptions Opts;
  Opts.PageTargetBytes = PageTarget;
  Opts.CacheBudgetBytes = 64u << 20;
  Opts.CandidateChains = Candidates;
  return Opts;
}

/// The version byte of a container's store manifest (frame 0).
uint8_t manifestVersion(const std::vector<uint8_t> &Image) {
  Result<pipeline::Container> C = pipeline::tryUnpackContainer(Image);
  EXPECT_TRUE(C.ok());
  EXPECT_GE(C.value().Frames[0].size(), size_t(5));
  return C.value().Frames[0][4];
}

/// Repacks \p Image with its manifest replaced by \p Manifest.
std::vector<uint8_t> withManifest(const std::vector<uint8_t> &Image,
                                  std::vector<uint8_t> Manifest) {
  Result<pipeline::Container> C = pipeline::tryUnpackContainer(Image);
  EXPECT_TRUE(C.ok());
  pipeline::Container Cont = C.take();
  Cont.Frames[0] = std::move(Manifest);
  return pipeline::packContainer(Cont.ChainSpec, Cont.Frames);
}

void expectLoadFails(const std::vector<uint8_t> &Image,
                     const std::string &Needle) {
  Result<std::unique_ptr<CodeStore>> L =
      CodeStore::tryLoad(Image, StoreOptions());
  ASSERT_FALSE(L.ok()) << "expected a typed reject: " << Needle;
  EXPECT_NE(L.error().message().find(Needle), std::string::npos)
      << L.error().message();
}

TEST(PerPageStore, SelectionNeverWorseAndExecutesIdentically) {
  vm::VMProgram P = buildVM(syntheticSource(10));
  vm::RunResult Eager = vm::runProgram(P);
  ASSERT_TRUE(Eager.Ok) << Eager.Trap;

  for (size_t Target : {size_t(64), size_t(256), size_t(0)}) {
    StoreOptions Single;
    Single.PageTargetBytes = Target;
    Single.CacheBudgetBytes = 64u << 20;
    size_t MinSingle = ~size_t(0);
    std::vector<std::string> All{Primary};
    All.insert(All.end(), Candidates.begin(), Candidates.end());
    for (const std::string &CS : All) {
      std::unique_ptr<CodeStore> S = mustBuildStore(P, CS, Single);
      ASSERT_NE(S, nullptr);
      MinSingle = std::min(MinSingle, S->frameBytes());
    }

    std::unique_ptr<CodeStore> Sel =
        mustBuildStore(P, Primary, perPageOpts(Target));
    ASSERT_NE(Sel, nullptr);
    // Per-frame minimum over the same chains can never lose to any one
    // chain applied globally.
    EXPECT_LE(Sel->frameBytes(), MinSingle) << "page target " << Target;

    vm::RunResult R = runFromStore(*Sel);
    ASSERT_TRUE(R.Ok) << R.Trap;
    EXPECT_EQ(R.Output, Eager.Output);
    EXPECT_EQ(R.ExitCode, Eager.ExitCode);
    EXPECT_EQ(R.Steps, Eager.Steps);
  }
}

TEST(PerPageStore, SelectionIsDeterministic) {
  vm::VMProgram P = buildVM(syntheticSource(8));
  std::unique_ptr<CodeStore> A = mustBuildStore(P, Primary, perPageOpts(64));
  ASSERT_NE(A, nullptr);
  StoreOptions Parallel = perPageOpts(64);
  Parallel.BuildJobs = 4;
  std::unique_ptr<CodeStore> B = mustBuildStore(P, Primary, Parallel);
  ASSERT_NE(B, nullptr);
  // Budget 0 makes the selection a pure size comparison, so serial and
  // 4-job builds must produce bit-identical containers.
  EXPECT_EQ(A->save(), B->save());
}

TEST(PerPageStore, NonUniformSelectionRoundTripsAsManifestV4) {
  vm::VMProgram P = buildVM(syntheticSource(10));
  vm::RunResult Eager = vm::runProgram(P);
  ASSERT_TRUE(Eager.Ok) << Eager.Trap;

  std::unique_ptr<CodeStore> Sel = mustBuildStore(P, Primary, perPageOpts(64));
  ASSERT_NE(Sel, nullptr);
  // This corpus/chain set is known to split across chains; the build is
  // deterministic, so this cannot flake.
  ASSERT_TRUE(Sel->perPageChains());
  EXPECT_EQ(Sel->chainSpec(), Primary);

  std::vector<uint8_t> Image = Sel->save();
  EXPECT_EQ(manifestVersion(Image), 4);

  Result<std::unique_ptr<CodeStore>> L =
      CodeStore::tryLoad(Image, StoreOptions());
  ASSERT_TRUE(L.ok()) << L.error().message();
  CodeStore &Re = *L.value();
  EXPECT_TRUE(Re.perPageChains());
  EXPECT_EQ(Re.chainSpec(), Primary);
  EXPECT_EQ(Re.frameBytes(), Sel->frameBytes());
  // Every frame's chain survived the round trip.
  for (uint32_t I = 0; I != Re.frameCount(); ++I)
    EXPECT_EQ(Re.frameChainSpec(I), Sel->frameChainSpec(I)) << "frame " << I;
  // Re-saving the loaded store reproduces the image bit for bit.
  EXPECT_EQ(Re.save(), Image);

  vm::RunResult R = runFromStore(Re);
  ASSERT_TRUE(R.Ok) << R.Trap;
  EXPECT_EQ(R.Output, Eager.Output);
  EXPECT_EQ(R.ExitCode, Eager.ExitCode);
  EXPECT_EQ(R.Steps, Eager.Steps);
}

TEST(PerPageStore, UniformOutcomesNormalizeToV3) {
  vm::VMProgram P = buildVM(syntheticSource(8));
  StoreOptions Plain;
  Plain.PageTargetBytes = 64;
  std::unique_ptr<CodeStore> Base = mustBuildStore(P, Primary, Plain);
  ASSERT_NE(Base, nullptr);
  std::vector<uint8_t> BaseImage = Base->save();
  EXPECT_EQ(manifestVersion(BaseImage), 3);

  // Candidates that duplicate the primary collapse to a single chain.
  StoreOptions Dup = Plain;
  Dup.CandidateChains = {Primary, Primary};
  std::unique_ptr<CodeStore> D = mustBuildStore(P, Primary, Dup);
  ASSERT_NE(D, nullptr);
  EXPECT_FALSE(D->perPageChains());
  EXPECT_EQ(D->save(), BaseImage);
}

TEST(PerPageStore, RejectsCandidateOfDifferentBodyKind) {
  vm::VMProgram P = buildVM(syntheticSource(4));
  StoreOptions Opts;
  Opts.CandidateChains = {"brisc"}; // FuncImage vs vm-compact's FixedCode.
  std::string Err;
  std::unique_ptr<CodeStore> S = CodeStore::build(P, Primary, Opts, Err);
  EXPECT_EQ(S, nullptr);
  EXPECT_NE(Err.find("different frame body kind"), std::string::npos) << Err;

  Opts.CandidateChains = {"no-such-codec"};
  S = CodeStore::build(P, Primary, Opts, Err);
  EXPECT_EQ(S, nullptr);
}

TEST(PerPageStore, CraftedV4ManifestsFailTyped) {
  vm::VMProgram P = buildVM(syntheticSource(10));
  std::unique_ptr<CodeStore> Sel = mustBuildStore(P, Primary, perPageOpts(64));
  ASSERT_NE(Sel, nullptr);
  ASSERT_TRUE(Sel->perPageChains());
  std::vector<uint8_t> Image = Sel->save();
  Result<pipeline::Container> C = pipeline::tryUnpackContainer(Image);
  ASSERT_TRUE(C.ok());
  const std::vector<uint8_t> &M = C.value().Frames[0];
  // v4 layout: magic(4) version(1) flags(1) hash(8) bodyTag(1), then
  // varU NumChains at 15, then the chain-spec strings.
  ASSERT_EQ(M[4], 4);
  const size_t ChainCountOff = 15;
  ASSERT_LT(M[ChainCountOff], 128) << "chain count varU is one byte";

  { // Chain count below the v4 minimum.
    std::vector<uint8_t> X = M;
    X[ChainCountOff] = 1;
    expectLoadFails(withManifest(Image, X), "chain count out of range");
  }
  { // Chain count above the cap.
    std::vector<uint8_t> X = M;
    X[ChainCountOff] = 65;
    expectLoadFails(withManifest(Image, X), "chain count out of range");
  }
  { // Table head rerouted away from the container spec.
    std::vector<uint8_t> X = M;
    X[ChainCountOff + 2] ^= 0x01; // First byte of the head spec string.
    expectLoadFails(withManifest(Image, X),
                    "chain table head does not match");
  }
  { // A candidate spec mangled into an unknown codec.
    std::vector<uint8_t> X = M;
    size_t HeadLen = M[ChainCountOff + 1];
    size_t Spec1 = ChainCountOff + 2 + HeadLen; // varU len of spec 1.
    X[Spec1 + 1] ^= 0x01;
    expectLoadFails(withManifest(Image, X), "per-page chain");
  }
  { // A per-frame index past the chain table (the indices are the last
    // bytes of the manifest, one single-byte varU per frame).
    std::vector<uint8_t> X = M;
    X.back() = 63;
    expectLoadFails(withManifest(Image, X), "chain index out of range");
  }
}

// The tsan-preset hammer: many threads fault every function of a
// mixed-chain store concurrently, under a budget small enough to force
// eviction and re-decode, and every body must match the eager decode.
TEST(PerPageStore, ConcurrentMixedChainFaultsMatchEager) {
  vm::VMProgram P = buildVM(syntheticSource(10));
  StoreOptions Opts = perPageOpts(64);
  Opts.CacheBudgetBytes = 4096; // Thrash: decode, evict, decode again.
  std::unique_ptr<CodeStore> S = mustBuildStore(P, Primary, Opts);
  ASSERT_NE(S, nullptr);
  ASSERT_TRUE(S->perPageChains());

  std::atomic<int> Failures{0};
  std::vector<std::thread> Threads;
  for (int T = 0; T != 8; ++T)
    Threads.emplace_back([&] {
      for (int Round = 0; Round != 4; ++Round)
        for (uint32_t Fn = 0; Fn != S->functionCount(); ++Fn) {
          Result<std::shared_ptr<const vm::VMFunction>> R = S->fault(Fn);
          if (!R.ok() || R.value()->Code.size() != P.Functions[Fn].Code.size())
            Failures.fetch_add(1, std::memory_order_relaxed);
        }
    });
  for (std::thread &T : Threads)
    T.join();
  EXPECT_EQ(Failures.load(), 0);
}

} // namespace
