//===- bench/bench_paging.cpp - The paging scenario (section 1) ----------------===//
//
// Part of the ccomp project (PLDI'97 "Code Compression" reproduction).
//
//===----------------------------------------------------------------------===//
//
// Reproduces the introduction's motivating measurement: "we have seen
// the CPU idle for most of the time during paging, so compressing pages
// can increase total performance even though the CPU must decompress or
// interpret the page contents."
//
// We replay each engine's code-page reference string through an LRU
// demand-paging simulator at several resident-set sizes, convert faults
// to time with a period-accurate disk model, add measured CPU time, and
// find the crossover where interpreting compressed code wins on total
// time.
//
// Eight acts, selectable with --act=N[,N...] (default: all):
//   1  intro paging table (native vs interpreted, LRU simulator)
//   2  decode-on-fault store vs simulator prediction
//   3  sub-function page-size sweep
//   4  hot-loop residency payoff (asserted)
//   5  tiered native execution of the hot set (asserted speedup)
//   6  multi-tenant shared frame registry vs private stores (asserted)
//   7  profile-guided page layout vs source order (asserted)
//   8  per-page codec selection vs best single chain (asserted)
//
//===----------------------------------------------------------------------===//

#include "../bench/BenchUtil.h"

#include "brisc/Brisc.h"
#include "brisc/Interp.h"
#include "native/Threaded.h"
#include "pipeline/Payload.h"
#include "sim/Paging.h"
#include "store/CodeStore.h"
#include "store/Resolver.h"
#include "store/Tiered.h"
#include "store/Trace.h"
#include "vm/Encode.h"

#include <set>

using namespace ccomp;
using namespace ccomp::bench;

namespace {

/// A layout that maps every instruction of function I to "page" I, so a
/// PageSize=1 run records a function-granularity reference string — the
/// trace the store's per-function cache actually sees.
vm::CodeLayout functionLayout(const vm::VMProgram &P) {
  vm::CodeLayout L;
  L.FuncBase.reserve(P.Functions.size());
  L.InstrOff.reserve(P.Functions.size());
  for (size_t I = 0; I != P.Functions.size(); ++I) {
    L.FuncBase.push_back(static_cast<uint32_t>(I));
    L.InstrOff.emplace_back(P.Functions[I].Code.size(), 0u);
  }
  L.TotalBytes = static_cast<uint32_t>(P.Functions.size());
  return L;
}

/// Parses --act=N[,N...]; no argument selects every act.
std::set<int> parseActs(int Argc, char **Argv) {
  std::set<int> Acts;
  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    if (Arg.rfind("--act=", 0) != 0)
      reportFatal("usage: bench_paging [--act=N[,N...]]  (acts 1-8)");
    std::string List = Arg.substr(6);
    size_t Pos = 0;
    while (Pos < List.size()) {
      size_t Comma = List.find(',', Pos);
      std::string Tok = List.substr(
          Pos, Comma == std::string::npos ? std::string::npos : Comma - Pos);
      if (Tok.empty() || Tok.find_first_not_of("0123456789") !=
                             std::string::npos)
        reportFatal("bench_paging: bad act '" + Tok + "'");
      int N = std::atoi(Tok.c_str());
      if (N < 1 || N > 8)
        reportFatal("bench_paging: act out of range: " + Tok);
      Acts.insert(N);
      Pos = Comma == std::string::npos ? List.size() : Comma + 1;
    }
  }
  if (Acts.empty())
    Acts = {1, 2, 3, 4, 5, 6, 7, 8};
  return Acts;
}

} // namespace

int main(int Argc, char **Argv) {
  std::set<int> Acts = parseActs(Argc, Argv);
  auto runAct = [&](int N) { return Acts.count(N) != 0; };

  const uint32_t PageSize = 512;
  sim::DiskModel Disk; // 12ms per fault.

  // A program with a large code footprint relative to its running time:
  // the synthetic icc class (calls a spread of its functions once).
  std::string Src = corpus::sizeClassSource("icc");
  vm::VMProgram P = mustBuild(Src);
  const char *ChainSpec = "brisc+flate";

  // The reference result every store-backed act must reproduce.
  vm::RunResult Eager = vm::runProgram(P);
  if (!Eager.Ok)
    reportFatal("eager baseline run failed: " + Eager.Trap);

  size_t DecodedBytes = 0;
  for (const vm::VMFunction &F : P.Functions)
    DecodedBytes += store::decodedCostBytes(F);

  if (runAct(1)) {
    vm::CodeLayout L = vm::nativeLayout(P);
    vm::RunOptions NOpts;
    NOpts.Layout = &L;
    NOpts.PageSize = PageSize;
    vm::RunResult NR = vm::runProgram(P, NOpts);

    brisc::BriscProgram B = brisc::compress(P);
    vm::RunOptions BOpts;
    BOpts.PageSize = PageSize;
    vm::RunResult BR = brisc::interpret(B, BOpts);
    if (!NR.Ok || !BR.Ok)
      reportFatal("paging bench run failed");

    // CPU seconds, measured on the wall clock (native = threaded code).
    native::NProgram N = native::generate(P);
    double NativeCpu = timeStable([&] { native::run(N); }, 0.1);
    double InterpCpu = timeStable([&] { brisc::interpret(B); }, 0.1);

    std::printf("Paging scenario (intro): total time = CPU + fault service\n");
    std::printf("(page %u B, fault %.0f ms; interp CPU %.1fx native)\n\n",
                PageSize, Disk.FaultSeconds * 1000, InterpCpu / NativeCpu);
    // Distinct pages = compulsory (cold-start) faults; the warm columns
    // exclude them (steady-state behaviour once the program has loaded).
    uint64_t NDistinct = NR.PagesTouched, BDistinct = BR.PagesTouched;

    std::printf("%8s | %10s %10s | %10s %10s | %10s %10s\n", "resident",
                "nat cold s", "int cold s", "nat warm s", "int warm s",
                "cold win", "warm win");
    hr();
    for (unsigned Resident :
         {4u, 8u, 16u, 32u, 64u, 128u, 256u, 512u, 1024u}) {
      sim::PagingResult PN = sim::simulateLRU(NR.PageTrace, Resident);
      sim::PagingResult PB = sim::simulateLRU(BR.PageTrace, Resident);
      sim::TotalTime TN = sim::totalTime({NativeCpu, PN.Faults}, Disk);
      sim::TotalTime TB = sim::totalTime({InterpCpu, PB.Faults}, Disk);
      auto warm = [](uint64_t Faults, uint64_t Distinct) -> uint64_t {
        return Faults > Distinct ? Faults - Distinct : 0;
      };
      double NWarm =
          sim::totalTime({NativeCpu, warm(PN.Faults, NDistinct)}, Disk)
              .total();
      double BWarm =
          sim::totalTime({InterpCpu, warm(PB.Faults, BDistinct)}, Disk)
              .total();
      std::printf("%8u | %10.3f %10.3f | %10.3f %10.3f | %10s %10s\n",
                  Resident, TN.total(), TB.total(), NWarm, BWarm,
                  TB.total() < TN.total() ? "compressed" : "native",
                  BWarm < NWarm ? "compressed" : "native");
    }
    hr();
    std::printf("\nexpected shape: under memory pressure the compressed "
                "form wins (fewer, denser\npages to fault); with ample "
                "memory and a warm cache native wins (only the\n"
                "interpretation overhead remains)\n");
    // The intro act's machine-readable summary; the CI smoke step runs
    // only this act and fails on a malformed line.
    char Json[512];
    std::snprintf(Json, sizeof(Json),
                  "{\"bench\":\"paging_intro\",\"page_bytes\":%u,"
                  "\"fault_ms\":%.1f,\"native_cpu_s\":%.4f,"
                  "\"interp_cpu_s\":%.4f,\"cpu_ratio\":%.2f,"
                  "\"native_pages\":%llu,\"interp_pages\":%llu}",
                  PageSize, Disk.FaultSeconds * 1000, NativeCpu, InterpCpu,
                  InterpCpu / NativeCpu, (unsigned long long)NDistinct,
                  (unsigned long long)BDistinct);
    emitStats(Json);
  }

  // Second act: the simulator's prediction against the real thing. The
  // decode-on-fault CodeStore executes the same program with function
  // bodies faulted in from compressed frames under a byte budget; the
  // simulator replays a function-granularity reference string through a
  // uniform-slot LRU. Store misses should track predicted faults, with
  // the gap owed to unequal function sizes.
  if (runAct(2)) {
    std::string Err;
    std::unique_ptr<store::CodeStore> Built =
        store::CodeStore::build(P, ChainSpec, store::StoreOptions(), Err);
    if (!Built)
      reportFatal("store build failed: " + Err);
    std::vector<uint8_t> Image = Built->save();

    vm::CodeLayout FL = functionLayout(P);
    vm::RunOptions FOpts;
    FOpts.Layout = &FL;
    FOpts.PageSize = 1;
    vm::RunResult FR = vm::runProgram(P, FOpts);
    if (!FR.Ok)
      reportFatal("function-trace run failed");

    size_t MeanCost = DecodedBytes / P.Functions.size();

    std::printf("\nDecode-on-fault store vs simulator (chain %s, %zu funcs, "
                "%zu -> %zu bytes)\n",
                ChainSpec, P.Functions.size(), DecodedBytes,
                Built->frameBytes());
    std::printf("%8s %12s | %10s %10s | %10s %10s %12s\n", "resident",
                "budget B", "sim fault", "real miss", "hit rate", "decode ms",
                "est total s");
    hr();
    for (unsigned Resident : {2u, 4u, 8u, 16u, 32u, 64u}) {
      if (Resident > P.Functions.size())
        break;
      uint64_t SimFaults = sim::simulateLRU(FR.PageTrace, Resident).Faults;

      store::StoreOptions SO;
      SO.CacheBudgetBytes = Resident * MeanCost;
      Result<std::unique_ptr<store::CodeStore>> L =
          store::CodeStore::tryLoad(Image, SO);
      if (!L.ok())
        reportFatal("store load failed: " + L.error().message());
      std::unique_ptr<store::CodeStore> S = L.take();

      vm::RunResult R;
      double Cpu = timeIt([&] { R = store::runFromStore(*S); });
      if (!R.Ok || R.Output != Eager.Output || R.ExitCode != Eager.ExitCode)
        reportFatal("store-backed run diverged: " + R.Trap);
      store::StoreStats St = S->stats();
      // Cpu already contains every decode: runFromStore decodes inline.
      sim::TotalTime T = sim::totalTime({Cpu, St.Misses}, Disk);
      std::printf("%8u %12zu | %10llu %10llu | %9.1f%% %10.2f %12.3f\n",
                  Resident, SO.CacheBudgetBytes,
                  (unsigned long long)SimFaults, (unsigned long long)St.Misses,
                  St.hitRate() * 100, double(St.DecodeNanos) / 1e6, T.total());
      // One machine-readable line per configuration for harness scripts;
      // emitStats validates the JSON so the format stays locked.
      char Json[512];
      std::snprintf(Json, sizeof(Json),
                    "{\"bench\":\"paging_store\",\"chain\":\"%s\","
                    "\"resident_funcs\":%u,\"budget_bytes\":%zu,\"faults\":%llu,"
                    "\"hits\":%llu,\"hit_rate\":%.4f,\"decodes\":%llu,"
                    "\"evictions\":%llu,\"decode_ms\":%.3f,\"cpu_s\":%.4f,"
                    "\"est_total_s\":%.4f,\"sim_faults\":%llu}",
                    jsonEscape(ChainSpec).c_str(), Resident,
                    SO.CacheBudgetBytes, (unsigned long long)St.Misses,
                    (unsigned long long)St.Hits, St.hitRate(),
                    (unsigned long long)St.Decodes,
                    (unsigned long long)St.Evictions,
                    double(St.DecodeNanos) / 1e6, Cpu, T.total(),
                    (unsigned long long)SimFaults);
      emitStats(Json);
    }
    hr();
  }

  // Third act: sub-function fault granularity. The same program pages at
  // several page-size targets under one constrained budget; smaller
  // pages fault more often but each fault fetches and decodes less, and
  // the resident set tracks the hot *blocks* instead of whole
  // functions. The time model charges a seek per fault plus transfer
  // for the compressed bytes actually fetched.
  if (runAct(3)) {
    std::string Err;
    size_t SweepBudget = DecodedBytes / 8;
    std::printf("\nPage-size sweep (chain %s, budget %zu B)\n", ChainSpec,
                SweepBudget);
    std::printf("%10s | %7s %12s | %10s %10s | %10s %12s\n", "page B",
                "frames", "frame B", "miss", "hit rate", "decode ms",
                "est total s");
    hr();
    for (size_t Target : {size_t(64), size_t(256), size_t(4096), size_t(0)}) {
      store::StoreOptions SO;
      SO.CacheBudgetBytes = SweepBudget;
      SO.PageTargetBytes = Target;
      std::unique_ptr<store::CodeStore> S =
          store::CodeStore::build(P, ChainSpec, SO, Err);
      if (!S)
        reportFatal("paged store build failed: " + Err);
      vm::RunResult R;
      double Cpu = timeIt([&] { R = store::runFromStore(*S); });
      if (!R.Ok || R.Output != Eager.Output || R.ExitCode != Eager.ExitCode)
        reportFatal("paged store run diverged: " + R.Trap);
      store::StoreStats St = S->stats();
      sim::TotalTime T = sim::totalTime(
          {.CpuSeconds = Cpu, .Faults = St.Misses,
           .FetchedBytes = St.FetchedBytes},
          Disk);
      std::printf("%10zu | %7u %12zu | %10llu %9.1f%% | %10.2f %12.3f\n",
                  Target, S->frameCount(), S->frameBytes(),
                  (unsigned long long)St.Misses, St.hitRate() * 100,
                  double(St.DecodeNanos) / 1e6, T.total());
      char Json[512];
      std::snprintf(Json, sizeof(Json),
                    "{\"bench\":\"paging_page_sweep\",\"chain\":\"%s\","
                    "\"page_target\":%zu,\"budget_bytes\":%zu,\"frames\":%u,"
                    "\"frame_bytes\":%zu,\"decoded_bytes\":%zu,"
                    "\"faults\":%llu,\"hit_rate\":%.4f,\"fetched_bytes\":%llu,"
                    "\"decode_ms\":%.3f,\"cpu_s\":%.4f,\"est_total_s\":%.4f}",
                    jsonEscape(ChainSpec).c_str(), Target, SweepBudget,
                    S->frameCount(), S->frameBytes(), DecodedBytes,
                    (unsigned long long)St.Misses, St.hitRate(),
                    (unsigned long long)St.FetchedBytes,
                    double(St.DecodeNanos) / 1e6, Cpu, T.total());
      emitStats(Json);
    }
    hr();
  }

  // Fourth act (the granularity payoff, asserted): a function bigger
  // than one page executes its hot loop with strictly fewer decoded
  // bytes resident than function-granularity faulting under the same
  // budget, because only the loop's page needs to stay in. The wep
  // class is used here: its largest function (main) exceeds one 4 KiB
  // page.
  if (runAct(4)) {
    std::string Err;
    const size_t PageTarget = 4096;
    vm::VMProgram WP = mustBuild(corpus::sizeClassSource("wep"));
    size_t BigId = 0, BigFixed = 0;
    for (size_t I = 0; I != WP.Functions.size(); ++I) {
      size_t Bytes = 0;
      for (const vm::Instr &In : WP.Functions[I].Code)
        Bytes += vm::encodedSize(In);
      if (Bytes > BigFixed) {
        BigFixed = Bytes;
        BigId = I;
      }
    }
    const vm::VMFunction &Big = WP.Functions[BigId];
    // The hot loop lives in the largest basic-block page; resolving any
    // instruction inside it faults exactly that page.
    std::vector<pipeline::PageChunk> Chunks =
        pipeline::splitFunctionPages(Big, PageTarget);
    size_t HotPage = 0;
    for (size_t K = 0; K != Chunks.size(); ++K)
      if (Chunks[K].Code.size() > Chunks[HotPage].Code.size())
        HotPage = K;
    uint32_t LoopIdx = Chunks[HotPage].FirstInstr;

    size_t Budget = store::decodedCostBytes(Big);
    auto residentAfterHotLoop = [&](size_t Target) -> uint64_t {
      store::StoreOptions SO;
      SO.CacheBudgetBytes = Budget;
      SO.PageTargetBytes = Target;
      std::unique_ptr<store::CodeStore> S =
          store::CodeStore::build(WP, ChainSpec, SO, Err);
      if (!S)
        reportFatal("hot-loop store build failed: " + Err);
      for (int Iter = 0; Iter != 64; ++Iter) {
        Result<vm::CodeSpan> Sp = S->faultSpan(
            static_cast<uint32_t>(BigId), LoopIdx);
        if (!Sp.ok())
          reportFatal("hot-loop faultSpan failed: " + Sp.error().message());
      }
      return S->stats().ResidentBytes;
    };
    uint64_t PagedResident = residentAfterHotLoop(PageTarget);
    uint64_t WholeResident = residentAfterHotLoop(0);
    std::printf("\nHot-loop residency (wep largest fn '%s', %zu fixed B, "
                "%zu pages @ %zu B target, budget %zu B)\n",
                Big.Name.c_str(), BigFixed, Chunks.size(), PageTarget,
                Budget);
    std::printf("  page-granular resident: %llu B, function-granular "
                "resident: %llu B\n",
                (unsigned long long)PagedResident,
                (unsigned long long)WholeResident);
    char Json[512];
    std::snprintf(Json, sizeof(Json),
                  "{\"bench\":\"paging_hot_loop\",\"chain\":\"%s\","
                  "\"fn\":\"%s\",\"fn_fixed_bytes\":%zu,\"page_target\":%zu,"
                  "\"pages\":%zu,\"budget_bytes\":%zu,"
                  "\"resident_paged\":%llu,\"resident_whole\":%llu}",
                  jsonEscape(ChainSpec).c_str(),
                  jsonEscape(Big.Name).c_str(), BigFixed, PageTarget,
                  Chunks.size(), Budget,
                  (unsigned long long)PagedResident,
                  (unsigned long long)WholeResident);
    emitStats(Json);
    if (Chunks.size() < 2)
      reportFatal("hot-loop act: largest function fits one page; the "
                  "granularity claim is vacuous");
    if (PagedResident >= WholeResident)
      reportFatal("hot-loop act: page-granular residency is not strictly "
                  "below function-granular residency");
  }

  // Fifth act (the tier payoff, asserted): on the hot-loop workload a
  // persistent TieredResolver — warm heat counters, compiled units kept
  // across reps, fresh Machine per rep, exactly how a resident runtime
  // would serve repeated requests — must beat interpret-only execution
  // out of the same store on the wall clock, and must produce the
  // byte-identical RunResult it promises.
  if (runAct(5)) {
    std::string Err;
    vm::VMProgram WP = mustBuild(corpus::sizeClassSource("wep"));
    vm::RunResult WEager = vm::runProgram(WP);
    if (!WEager.Ok)
      reportFatal("tiered act: eager wep run failed: " + WEager.Trap);

    // Two stores from one image so the tier's heat/stats cannot bleed
    // into the interpret-only baseline.
    std::unique_ptr<store::CodeStore> Built =
        store::CodeStore::build(WP, ChainSpec, store::StoreOptions(), Err);
    if (!Built)
      reportFatal("tiered act: store build failed: " + Err);
    std::vector<uint8_t> Image = Built->save();
    auto loadStore = [&]() {
      Result<std::unique_ptr<store::CodeStore>> L =
          store::CodeStore::tryLoad(Image, store::StoreOptions());
      if (!L.ok())
        reportFatal("tiered act: store load failed: " + L.error().message());
      return L.take();
    };
    std::unique_ptr<store::CodeStore> SInterp = loadStore();
    std::unique_ptr<store::CodeStore> STier = loadStore();

    store::TierOptions TO;
    TO.HotThreshold = 4;
    store::TieredResolver Rv(*STier, TO);
    auto tieredOnce = [&]() {
      vm::RunOptions O;
      O.Resolver = &Rv;
      vm::Machine M(STier->skeleton(), O);
      return M.run();
    };

    // Correctness before speed: the tiered result must equal eager
    // interpretation bit for bit, including the step count.
    vm::RunResult TR = tieredOnce();
    if (!TR.Ok || TR.Output != WEager.Output ||
        TR.ExitCode != WEager.ExitCode || TR.Steps != WEager.Steps)
      reportFatal("tiered act: tiered run diverged from eager: " + TR.Trap);

    double InterpS =
        timeStable([&] { store::runFromStore(*SInterp); }, 0.2);
    double TieredS = timeStable([&] { tieredOnce(); }, 0.2);

    store::TierStats TS = Rv.tierStats();
    double Speedup = InterpS / TieredS;
    store::StoreStats St = STier->stats();
    // The timed runs are warm, so their decodes happened before the
    // timer and are added back here.
    sim::TotalTime T = sim::totalTime(
        {.CpuSeconds = TieredS,
         .Faults = St.Misses,
         .FetchedBytes = St.FetchedBytes,
         .DecodeNanos = St.DecodeNanos,
         .CompiledBytes = TS.CompiledBytesTotal},
        Disk);
    std::printf("\nTiered execution (wep, chain %s, hot threshold %llu)\n",
                ChainSpec, (unsigned long long)TO.HotThreshold);
    std::printf("  interpret-only: %.4f s/run, tiered: %.4f s/run "
                "(%.2fx), %llu compiles, %llu native steps\n",
                InterpS, TieredS, Speedup,
                (unsigned long long)TS.Compiles,
                (unsigned long long)TS.NativeSteps);
    char Json[512];
    std::snprintf(Json, sizeof(Json),
                  "{\"bench\":\"paging_tiered\",\"chain\":\"%s\","
                  "\"hot_threshold\":%llu,\"interp_s\":%.5f,"
                  "\"tiered_s\":%.5f,\"speedup\":%.3f,\"compiles\":%llu,"
                  "\"compiled_bytes\":%llu,\"native_steps\":%llu,"
                  "\"tier_transfers\":%llu,\"est_total_s\":%.4f}",
                  jsonEscape(ChainSpec).c_str(),
                  (unsigned long long)TO.HotThreshold, InterpS, TieredS,
                  Speedup, (unsigned long long)TS.Compiles,
                  (unsigned long long)TS.CompiledBytesTotal,
                  (unsigned long long)TS.NativeSteps,
                  (unsigned long long)TS.TierTransfers, T.total());
    emitStats(Json);
    if (TS.Compiles == 0)
      reportFatal("tiered act: nothing compiled; the tier never engaged");
    if (TieredS >= InterpS)
      reportFatal("tiered act: tiered wall time is not strictly below "
                  "interpret-only");
  }

  // Sixth act (multi-tenant sharing, asserted): N CodeStore views over
  // one shared FrameRegistry serve the same program as N private
  // stores, but the registry decodes each frame once process-wide and
  // keeps one resident copy. Under a budget that holds the whole
  // module, the shared decode count must equal the single-tenant count
  // — independent of N — and shared resident bytes must stay strictly
  // below N times the private figure for every N >= 2. A tight budget
  // sweeps the other end: tenants contend for one small cache instead
  // of each owning a small cache.
  if (runAct(6)) {
    std::string Err;
    std::unique_ptr<store::CodeStore> Built =
        store::CodeStore::build(P, ChainSpec, store::StoreOptions(), Err);
    if (!Built)
      reportFatal("shared act: store build failed: " + Err);
    std::vector<uint8_t> Image = Built->save();

    const size_t HugeBudget = DecodedBytes * 2;
    const size_t TightBudget = DecodedBytes / 8;
    uint64_t OneTenantDecodes = 0; // Huge-budget N=1 reference.

    std::printf("\nMulti-tenant shared registry (chain %s, %zu decoded B)\n",
                ChainSpec, DecodedBytes);
    std::printf("%7s %10s | %10s %12s | %10s %12s\n", "tenants", "budget B",
                "shr decode", "shr res B", "prv decode", "prv res B");
    hr();
    for (size_t Budget : {HugeBudget, TightBudget}) {
      for (unsigned N : {1u, 2u, 8u}) {
        store::RegistryOptions RO;
        RO.CacheBudgetBytes = Budget;
        auto Reg = std::make_shared<store::FrameRegistry>(RO);
        std::vector<std::unique_ptr<store::CodeStore>> Tenants;
        for (unsigned I = 0; I != N; ++I) {
          store::StoreOptions SO;
          SO.SharedRegistry = Reg;
          Result<std::unique_ptr<store::CodeStore>> L =
              store::CodeStore::tryLoad(Image, SO);
          if (!L.ok())
            reportFatal("shared act: tenant load failed: " +
                        L.error().message());
          Tenants.push_back(L.take());
        }
        double Cpu = timeIt([&] {
          for (auto &S : Tenants) {
            vm::RunResult R = store::runFromStore(*S);
            if (!R.Ok || R.Output != Eager.Output ||
                R.ExitCode != Eager.ExitCode || R.Steps != Eager.Steps)
              reportFatal("shared act: tenant run diverged: " + R.Trap);
          }
        });
        store::RegistryStats RS = Reg->stats();

        // The private control: the same N runs, each store owning a
        // cache of the same budget.
        uint64_t PrivDecodes = 0, PrivResident = 0;
        for (unsigned I = 0; I != N; ++I) {
          store::StoreOptions SO;
          SO.CacheBudgetBytes = Budget;
          Result<std::unique_ptr<store::CodeStore>> L =
              store::CodeStore::tryLoad(Image, SO);
          if (!L.ok())
            reportFatal("shared act: private load failed: " +
                        L.error().message());
          std::unique_ptr<store::CodeStore> S = L.take();
          vm::RunResult R = store::runFromStore(*S);
          if (!R.Ok || R.Output != Eager.Output)
            reportFatal("shared act: private run diverged: " + R.Trap);
          store::StoreStats St = S->stats();
          PrivDecodes += St.Decodes;
          PrivResident += St.ResidentBytes;
        }

        // Registry decodes are the fault bill: each ran once for every
        // tenant. Cpu already contains them.
        sim::TotalTime T = sim::totalTime({Cpu, RS.Decodes}, Disk);
        std::printf("%7u %10zu | %10llu %12llu | %10llu %12llu\n", N, Budget,
                    (unsigned long long)RS.Decodes,
                    (unsigned long long)RS.ResidentBytes,
                    (unsigned long long)PrivDecodes,
                    (unsigned long long)PrivResident);
        char Json[512];
        std::snprintf(Json, sizeof(Json),
                      "{\"bench\":\"paging_shared\",\"chain\":\"%s\","
                      "\"tenants\":%u,\"budget_bytes\":%zu,"
                      "\"shared_decodes\":%llu,\"shared_resident\":%llu,"
                      "\"private_decodes\":%llu,\"private_resident\":%llu,"
                      "\"cpu_s\":%.4f,\"est_total_s\":%.4f}",
                      jsonEscape(ChainSpec).c_str(), N, Budget,
                      (unsigned long long)RS.Decodes,
                      (unsigned long long)RS.ResidentBytes,
                      (unsigned long long)PrivDecodes,
                      (unsigned long long)PrivResident, Cpu, T.total());
        emitStats(Json);

        if (Budget == HugeBudget) {
          if (N == 1)
            OneTenantDecodes = RS.Decodes;
          else if (RS.Decodes != OneTenantDecodes)
            reportFatal("shared act: shared decode count scaled with "
                        "tenants under a full-module budget");
        }
        if (N >= 2 && RS.ResidentBytes >= PrivResident)
          reportFatal("shared act: shared resident bytes are not strictly "
                      "below N private stores'");
      }
    }
    hr();
  }

  // Seventh act (profile-guided layout, asserted): record one
  // block-granular trace of the program, rebuild the paged store with
  // the trace driving splitFunctionPages, and replay the same workload.
  // Clustering co-hot blocks must strictly reduce BOTH demand faults
  // and the decoded bytes left resident, against the source-order
  // layout at the same page target and budget — the Ozturk et al.
  // claim, measured on this corpus.
  if (runAct(7)) {
    std::string Err;
    const size_t LayoutTarget = 96;
    store::TraceRunResult Recorded = store::recordTrace(P);
    if (!Recorded.Run.Ok)
      reportFatal("layout act: profiling run failed: " + Recorded.Run.Trap);
    if (Recorded.Run.Output != Eager.Output ||
        Recorded.Run.ExitCode != Eager.ExitCode)
      reportFatal("layout act: profiling run diverged from eager");

    auto measure = [&](const pipeline::ExecutionTrace *Profile, uint64_t &Misses,
                       uint64_t &Resident) {
      store::StoreOptions SO;
      // A budget that holds everything: Misses counts each distinct
      // page's compulsory fault and ResidentBytes counts every decoded
      // byte the run ever needed — the layout signal, undiluted by
      // eviction luck.
      SO.CacheBudgetBytes = DecodedBytes * 2;
      SO.PageTargetBytes = LayoutTarget;
      SO.Profile = Profile;
      std::unique_ptr<store::CodeStore> S =
          store::CodeStore::build(P, ChainSpec, SO, Err);
      if (!S)
        reportFatal("layout act: store build failed: " + Err);
      vm::RunResult R = store::runFromStore(*S);
      if (!R.Ok || R.Output != Eager.Output ||
          R.ExitCode != Eager.ExitCode || R.Steps != Eager.Steps)
        reportFatal("layout act: store-backed run diverged: " + R.Trap);
      store::StoreStats St = S->stats();
      Misses = St.Misses;
      Resident = St.ResidentBytes;
      return S->frameCount();
    };
    uint64_t SrcMisses = 0, SrcResident = 0, ProfMisses = 0, ProfResident = 0;
    uint32_t SrcFrames = measure(nullptr, SrcMisses, SrcResident);
    uint32_t ProfFrames =
        measure(&Recorded.Trace, ProfMisses, ProfResident);

    std::printf("\nProfile-guided layout (icc, chain %s, %zu B pages, "
                "%zu trace events)\n",
                ChainSpec, LayoutTarget, Recorded.Trace.Events.size());
    std::printf("  source order: %llu faults, %llu resident B (%u frames)\n"
                "  trace-guided: %llu faults, %llu resident B (%u frames)\n",
                (unsigned long long)SrcMisses,
                (unsigned long long)SrcResident, SrcFrames,
                (unsigned long long)ProfMisses,
                (unsigned long long)ProfResident, ProfFrames);
    char Json[512];
    std::snprintf(Json, sizeof(Json),
                  "{\"bench\":\"paging_layout\",\"chain\":\"%s\","
                  "\"page_target\":%zu,\"trace_events\":%zu,"
                  "\"src_faults\":%llu,\"src_resident\":%llu,"
                  "\"src_frames\":%u,\"prof_faults\":%llu,"
                  "\"prof_resident\":%llu,\"prof_frames\":%u}",
                  jsonEscape(ChainSpec).c_str(), LayoutTarget,
                  Recorded.Trace.Events.size(),
                  (unsigned long long)SrcMisses,
                  (unsigned long long)SrcResident, SrcFrames,
                  (unsigned long long)ProfMisses,
                  (unsigned long long)ProfResident, ProfFrames);
    emitStats(Json);
    if (ProfMisses >= SrcMisses)
      reportFatal("layout act: trace-guided faults are not strictly below "
                  "source order");
    if (ProfResident >= SrcResident)
      reportFatal("layout act: trace-guided resident bytes are not "
                  "strictly below source order");
  }

  // Eighth act (per-page codec selection, asserted): build the paged
  // store once per candidate chain used globally, then once with
  // per-frame selection over the whole candidate set (pure size,
  // deterministic). The selected container's frame bytes
  // must come in strictly below the best single chain — the win only a
  // per-frame manifest can record — and both the selected store and its
  // saved/reloaded v4 image must execute byte-identically to eager.
  if (runAct(8)) {
    std::string Err;
    const size_t SelTarget = 256;
    const std::vector<std::string> Candidates = {
        "vm-compact",      "vm-compact+flate", "flate",
        "bwt-dict",        "brisc-ctx",        "brisc-ctx+flate"};

    std::printf("\nPer-page codec selection (icc, %zu B pages)\n", SelTarget);
    std::printf("%-18s %7s %12s\n", "chain", "frames", "frame B");
    hr();
    size_t BestSingle = ~size_t(0);
    std::string BestSpec;
    for (const std::string &CS : Candidates) {
      store::StoreOptions SO;
      SO.PageTargetBytes = SelTarget;
      SO.CacheBudgetBytes = DecodedBytes * 2;
      std::unique_ptr<store::CodeStore> S =
          store::CodeStore::build(P, CS, SO, Err);
      if (!S)
        reportFatal("selection act: build with '" + CS + "' failed: " + Err);
      vm::RunResult R = store::runFromStore(*S);
      if (!R.Ok || R.Output != Eager.Output || R.ExitCode != Eager.ExitCode ||
          R.Steps != Eager.Steps)
        reportFatal("selection act: run with '" + CS + "' diverged: " +
                    R.Trap);
      std::printf("%-18s %7u %12zu\n", CS.c_str(), S->frameCount(),
                  S->frameBytes());
      if (S->frameBytes() < BestSingle) {
        BestSingle = S->frameBytes();
        BestSpec = CS;
      }
    }

    store::StoreOptions SO;
    SO.PageTargetBytes = SelTarget;
    SO.CacheBudgetBytes = DecodedBytes * 2;
    SO.CandidateChains.assign(Candidates.begin() + 1, Candidates.end());
    std::unique_ptr<store::CodeStore> Sel =
        store::CodeStore::build(P, Candidates[0], SO, Err);
    if (!Sel)
      reportFatal("selection act: per-page build failed: " + Err);
    vm::RunResult SelR = store::runFromStore(*Sel);
    if (!SelR.Ok || SelR.Output != Eager.Output ||
        SelR.ExitCode != Eager.ExitCode || SelR.Steps != Eager.Steps)
      reportFatal("selection act: per-page run diverged: " + SelR.Trap);
    // The saved v4 image must reload and execute identically too.
    std::vector<uint8_t> Image = Sel->save();
    Result<std::unique_ptr<store::CodeStore>> Re =
        store::CodeStore::tryLoad(Image, store::StoreOptions());
    if (!Re.ok())
      reportFatal("selection act: v4 reload failed: " + Re.error().message());
    vm::RunResult ReR = store::runFromStore(*Re.value());
    if (!ReR.Ok || ReR.Output != Eager.Output ||
        ReR.ExitCode != Eager.ExitCode || ReR.Steps != Eager.Steps)
      reportFatal("selection act: reloaded v4 run diverged: " + ReR.Trap);
    std::printf("%-18s %7u %12zu  (best single: %s, %zu B)\n", "per-page",
                Sel->frameCount(), Sel->frameBytes(), BestSpec.c_str(),
                BestSingle);
    hr();
    char Json[512];
    std::snprintf(Json, sizeof(Json),
                  "{\"bench\":\"paging_perpage\",\"page_target\":%zu,"
                  "\"chains\":%zu,\"best_single_chain\":\"%s\","
                  "\"best_single_bytes\":%zu,\"perpage_bytes\":%zu,"
                  "\"perpage\":%s,\"frames\":%u}",
                  SelTarget, Candidates.size(),
                  jsonEscape(BestSpec).c_str(), BestSingle,
                  Sel->frameBytes(),
                  Sel->perPageChains() ? "true" : "false",
                  Sel->frameCount());
    emitStats(Json);
    if (!Sel->perPageChains())
      reportFatal("selection act: selection was uniform; nothing to show");
    if (Sel->frameBytes() >= BestSingle)
      reportFatal("selection act: per-page frame bytes are not strictly "
                  "below the best single chain");
  }
  return 0;
}
