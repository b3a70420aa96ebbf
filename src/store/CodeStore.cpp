//===- store/CodeStore.cpp - Demand-paged compressed-code store -----------===//
//
// Part of the ccomp project (PLDI'97 "Code Compression" reproduction).
//
//===----------------------------------------------------------------------===//

#include "store/CodeStore.h"

#include "pipeline/Payload.h"
#include "pipeline/Pipeline.h"
#include "pipeline/Profile.h"
#include "support/ByteIO.h"
#include "support/Support.h"
#include "support/ThreadPool.h"
#include "vm/Encode.h"

#include <algorithm>
#include <unordered_map>

using namespace ccomp;
using namespace ccomp::store;
using pipeline::PayloadKind;

namespace {

constexpr uint32_t ManifestMagic = 0x4D534343; // "CCSM".
constexpr uint8_t ManifestVersionHashed = 3;  // Flags + content-hash claim.
constexpr uint8_t ManifestVersionPerPage = 4; // v3 + per-frame chain table.

constexpr uint8_t ManifestFlagPaged = 1; // Flags bit 0.

/// v4 chain-table bounds: a per-frame table needs at least one
/// alternative beside the primary, and a container naming dozens of
/// chains is a lie (the registry holds a handful of codecs).
constexpr uint64_t MinPerPageChains = 2;
constexpr uint64_t MaxPerPageChains = 64;

/// Manifest tag for what the decompressed frame body holds.
uint8_t bodyTag(PayloadKind K) {
  return K == PayloadKind::FuncImage ? 0 : 1; // 1 = fixed-width code only.
}

/// Digest of a per-frame chain assignment, folded into the module
/// identity's chain-spec string: two tenants whose containers hash
/// equal (the hash covers frames, not the manifest) but disagree on
/// which chain decodes which frame must not share decoded bodies.
uint64_t perPageDigest(const std::vector<std::string> &Specs,
                       const std::vector<uint32_t> &FrameChain) {
  ByteWriter W;
  W.writeVarU(Specs.size());
  for (const std::string &S : Specs)
    W.writeStr(S);
  W.writeVarU(FrameChain.size());
  for (uint32_t C : FrameChain)
    W.writeVarU(C);
  return pipeline::hashContainerFrames("store-perpage", {W.take()});
}

} // namespace

size_t store::decodedCostBytes(const vm::VMFunction &F) {
  return sizeof(vm::VMFunction) + F.Code.size() * sizeof(vm::Instr) +
         F.LabelPos.size() * sizeof(uint32_t) + F.Name.size();
}

bool store::isStoreManifest(ByteSpan Frame) {
  return Frame.size() >= 4 &&
         (uint32_t(Frame[0]) | uint32_t(Frame[1]) << 8 |
          uint32_t(Frame[2]) << 16 | uint32_t(Frame[3]) << 24) == ManifestMagic;
}

//===----------------------------------------------------------------------===//
// Build / save / load
//===----------------------------------------------------------------------===//

Result<bool> CodeStore::initRuntime(StoreOptions O) {
  Opts = O;
  if (O.SharedRegistry) {
    Reg = O.SharedRegistry;
    PrivateReg = false;
  } else {
    RegistryOptions RO;
    RO.CacheBudgetBytes = O.CacheBudgetBytes;
    Reg = std::make_shared<FrameRegistry>(RO);
    PrivateReg = true;
  }
  ModuleIdent Id;
  Id.ChainSpec = Spec;
  if (!FrameChain.empty())
    Id.ChainSpec += "#perpage-" +
                    std::to_string(perPageDigest(ChainSpecs, FrameChain));
  Id.FrameCount = frameCount();
  Id.FuncCount = functionCount();
  Id.Paged = Paged;
  Result<std::shared_ptr<ModuleHeat>> H = Reg->registerModule(Hash, Id);
  if (!H.ok())
    return H.error();
  Heat = H.take();
  Warming = std::make_unique<std::atomic<uint8_t>[]>(frameCount());
  for (uint32_t I = 0; I != frameCount(); ++I)
    Warming[I].store(0, std::memory_order_relaxed);
  return true;
}

void CodeStore::indexPages() {
  FrameFunc.clear();
  if (!Paged)
    return;
  FrameFunc.reserve(TotalPages);
  for (uint32_t F = 0; F != Funcs.size(); ++F)
    for (size_t K = 0; K != Funcs[F].Pages.size(); ++K)
      FrameFunc.push_back(F);
}

std::unique_ptr<CodeStore> CodeStore::build(const vm::VMProgram &P,
                                            const std::string &ChainSpec,
                                            StoreOptions Opts,
                                            std::string &Error) {
  std::vector<const pipeline::Codec *> Chain =
      pipeline::parseChain(ChainSpec, Error);
  if (Chain.empty())
    return nullptr;
  if (Chain.front()->payloadKind() == PayloadKind::Module) {
    Error = std::string("store: codec '") + Chain.front()->name() +
            "' compresses whole modules; the store needs per-function frames";
    return nullptr;
  }
  if (P.Functions.empty()) {
    Error = "store: program has no functions";
    return nullptr;
  }
  if (P.Entry >= P.Functions.size()) {
    Error = "store: entry function out of range";
    return nullptr;
  }

  std::unique_ptr<CodeStore> S(new CodeStore());
  S->Spec = ChainSpec;
  S->Chain = std::move(Chain);
  S->Kind = S->Chain.front()->payloadKind();
  S->Skel.Entry = P.Entry;
  S->Skel.Globals = P.Globals;
  S->Skel.GlobalBase = P.GlobalBase;
  S->Skel.GlobalEnd = P.GlobalEnd;
  S->Paged = Opts.PageTargetBytes > 0;

  // Per-function (or per-page) payloads, matching makePayloads' contract
  // per kind.
  std::vector<std::vector<uint8_t>> Payloads;
  if (!S->Paged) {
    Payloads.reserve(P.Functions.size());
    for (const vm::VMFunction &F : P.Functions)
      Payloads.push_back(S->Kind == PayloadKind::FuncImage
                             ? pipeline::encodeFuncImage(F)
                             : vm::encodeFunction(F));
    S->Funcs.reserve(P.Functions.size());
    for (size_t I = 0; I != P.Functions.size(); ++I) {
      FuncRecord Rec;
      Rec.Name = P.Functions[I].Name;
      Rec.FrameSize = P.Functions[I].FrameSize;
      // The function image carries its own label table; code-only bodies
      // need the manifest to preserve it.
      if (S->Kind != PayloadKind::FuncImage)
        Rec.LabelPos = P.Functions[I].LabelPos;
      S->Funcs.push_back(std::move(Rec));
    }
  } else {
    // Digest the access profile (when given) into per-function layout
    // signals. Shapes come from the original functions: image
    // canonicalization only sorts/dedups the label table, and blockCuts
    // canonicalizes the same way, so block identity is unchanged.
    std::vector<pipeline::FunctionProfile> Profiles;
    if (Opts.Profile && !Opts.Profile->Events.empty()) {
      std::vector<pipeline::FunctionShape> Shapes;
      Shapes.reserve(P.Functions.size());
      for (const vm::VMFunction &F : P.Functions)
        Shapes.push_back(pipeline::FunctionShape{
            F.LabelPos, static_cast<uint32_t>(F.Code.size())});
      Profiles = pipeline::digestTrace(*Opts.Profile, Shapes);
    }
    S->Funcs.reserve(P.Functions.size());
    for (size_t FnIdx = 0; FnIdx != P.Functions.size(); ++FnIdx) {
      const vm::VMFunction &F = P.Functions[FnIdx];
      const vm::VMFunction *Use = &F;
      vm::VMFunction Canon;
      if (S->Kind == PayloadKind::FuncImage) {
        // Canonicalize through the image round trip first (sorted,
        // deduplicated label table), so the pages' label references,
        // the manifest's label table, and what an unpaged store would
        // decode all agree — fault() reassembles a byte-identical body.
        Result<vm::VMFunction> C =
            pipeline::tryDecodeFuncImage(pipeline::encodeFuncImage(F));
        if (!C.ok()) {
          Error = "store: function '" + F.Name +
                  "' does not round-trip as an image: " + C.error().message();
          return nullptr;
        }
        Canon = C.take();
        Use = &Canon;
      }
      FuncRecord Rec;
      Rec.Name = Use->Name;
      Rec.FrameSize = Use->FrameSize;
      Rec.LabelPos = Use->LabelPos;
      Rec.CodeLen = static_cast<uint32_t>(Use->Code.size());
      Rec.FirstPage = S->TotalPages;
      std::vector<pipeline::PageChunk> Chunks = pipeline::splitFunctionPages(
          *Use, Opts.PageTargetBytes,
          Profiles.empty() ? nullptr : &Profiles[FnIdx]);
      for (pipeline::PageChunk &C : Chunks) {
        PageRec PR;
        PR.FirstInstr = C.FirstInstr;
        PR.InstrCount = static_cast<uint32_t>(C.Code.size());
        Payloads.push_back(pipeline::encodePagePayload(
            S->Kind, C.Code,
            S->Kind == PayloadKind::FuncImage ? &PR.Labels : nullptr));
        Rec.Pages.push_back(std::move(PR));
      }
      S->TotalPages += static_cast<uint32_t>(Chunks.size());
      S->Funcs.push_back(std::move(Rec));
    }
  }
  // Candidate chains for per-frame selection: the primary chain first,
  // then every distinct candidate that parses and serves the same
  // manifest body kind (Raw and FixedCode payloads are the same bytes;
  // FuncImage is its own family).
  std::vector<std::string> CandSpecs{ChainSpec};
  std::vector<std::vector<const pipeline::Codec *>> CandChains{S->Chain};
  for (const std::string &CS : Opts.CandidateChains) {
    if (std::find(CandSpecs.begin(), CandSpecs.end(), CS) != CandSpecs.end())
      continue;
    std::vector<const pipeline::Codec *> C = pipeline::parseChain(CS, Error);
    if (C.empty())
      return nullptr;
    if (bodyTag(C.front()->payloadKind()) != bodyTag(S->Kind)) {
      Error = "store: candidate chain '" + CS +
              "' decodes to a different frame body kind than '" + ChainSpec +
              "'";
      return nullptr;
    }
    if (CandSpecs.size() == MaxPerPageChains) {
      Error = "store: more than " + std::to_string(MaxPerPageChains - 1) +
              " candidate chains";
      return nullptr;
    }
    CandSpecs.push_back(CS);
    CandChains.push_back(std::move(C));
  }

  std::vector<std::vector<uint8_t>> Frames;
  if (CandSpecs.size() > 1) {
    pipeline::ChainSelection Sel = pipeline::selectChainsPerItem(
        CandChains, Payloads, Opts.BuildJobs);
    Frames = std::move(Sel.Frames);
    // A uniform outcome (every frame picked the primary) normalizes to
    // a plain single-chain store: the frames are exactly what
    // compressAll would have produced, so the container stays manifest
    // v3, bit-identical to a build without candidates.
    if (!Sel.Uniform) {
      S->ChainSpecs = std::move(CandSpecs);
      S->Chains = std::move(CandChains);
      S->FrameChain = std::move(Sel.ChainIdx);
    }
  } else {
    Frames = pipeline::compressAll(S->Chain, Payloads, Opts.BuildJobs);
  }

  // The content identity under which the registry knows this module:
  // rebuilds of the same program through the same chain produce the
  // same frames, so they land on the same key and share.
  S->Hash = pipeline::hashContainerFrames(ChainSpec, Frames);
  S->indexPages();
  S->Source =
      std::make_unique<LocalFrameSource>(ChainSpec, std::move(Frames));
  Result<bool> Init = S->initRuntime(Opts);
  if (!Init.ok()) {
    Error = Init.error().message();
    return nullptr;
  }
  S->initStaticSuccessors(&P);
  if (Opts.Profile && !Opts.Profile->Events.empty())
    S->applyAccessProfile(*Opts.Profile);
  // The profile was consumed above; the stored options must not dangle
  // on a caller-owned trace.
  S->Opts.Profile = nullptr;
  return S;
}

Result<std::vector<uint8_t>> CodeStore::trySave() {
  const bool PerPage = !FrameChain.empty();
  ByteWriter W;
  W.writeU32(ManifestMagic);
  W.writeU8(PerPage ? ManifestVersionPerPage : ManifestVersionHashed);
  W.writeU8(Paged ? ManifestFlagPaged : 0);
  // The claim a loader checks against the frames it can hash itself,
  // and trusts when it cannot. Written at a fixed offset (6) right
  // after magic/version/flags, so fault-injection tests can target it.
  W.writeU64(Hash);
  W.writeU8(bodyTag(Kind));
  if (PerPage) {
    // The chain table, primary first (entry 0 must match the container
    // spec); the per-frame indices follow the function records.
    W.writeVarU(ChainSpecs.size());
    for (const std::string &CS : ChainSpecs)
      W.writeStr(CS);
  }
  W.writeVarU(Skel.Entry);
  W.writeVarU(Skel.GlobalBase);
  W.writeVarU(Skel.GlobalEnd);
  W.writeVarU(Skel.Globals.size());
  for (const vm::VMGlobal &G : Skel.Globals) {
    W.writeStr(G.Name);
    W.writeVarU(G.Addr);
    W.writeVarU(G.Size);
    W.writeVarU(G.Init.size());
    W.writeBytes(G.Init);
  }
  W.writeVarU(Funcs.size());
  for (const FuncRecord &Rec : Funcs) {
    W.writeStr(Rec.Name);
    W.writeVarU(Rec.FrameSize);
    if (Paged)
      W.writeVarU(Rec.CodeLen);
    W.writeVarU(Rec.LabelPos.size());
    for (uint32_t L : Rec.LabelPos)
      W.writeVarU(L);
    if (Paged) {
      W.writeVarU(Rec.Pages.size());
      for (const PageRec &PR : Rec.Pages) {
        W.writeVarU(PR.InstrCount);
        if (Kind == PayloadKind::FuncImage) {
          W.writeVarU(PR.Labels.size());
          for (uint32_t L : PR.Labels)
            W.writeVarU(L);
        }
      }
    }
  }
  if (PerPage)
    for (uint32_t C : FrameChain)
      W.writeVarU(C);

  std::vector<std::vector<uint8_t>> Items;
  Items.reserve(frameCount() + 1);
  Items.push_back(W.take());
  for (uint32_t I = 0; I != frameCount(); ++I) {
    FetchMetrics M;
    FetchResult R = fetchWithRetry(*Source, I, Opts.Retry, M);
    if (!R.Ok) {
      const std::string &Name = Funcs[Paged ? FrameFunc[I] : I].Name;
      return DecodeError("store: save: fetch frame of '" + Name +
                         "' failed [" + fetchErrorKindName(R.Err) +
                         "]: " + R.Msg);
    }
    Items.push_back(std::move(R.Bytes));
  }
  return pipeline::packContainer(Spec, Items);
}

std::vector<uint8_t> CodeStore::save() {
  Result<std::vector<uint8_t>> R = trySave();
  if (!R.ok())
    reportFatal(R.error().message());
  return R.take();
}

Result<std::unique_ptr<CodeStore>> CodeStore::tryLoad(ByteSpan Bytes,
                                                      StoreOptions Opts) {
  Result<std::unique_ptr<LocalFrameSource>> Src =
      LocalFrameSource::fromContainerBytes(Bytes);
  if (!Src.ok())
    return Src.error();
  return tryFromSource(Src.take(), Opts);
}

Result<std::unique_ptr<CodeStore>>
CodeStore::tryOpenFile(const std::string &Path, StoreOptions Opts) {
  Result<std::unique_ptr<FileFrameSource>> Src = FileFrameSource::open(Path);
  if (!Src.ok())
    return Src.error();
  return tryFromSource(Src.take(), Opts);
}

Result<std::unique_ptr<CodeStore>>
CodeStore::tryFromSource(std::unique_ptr<FrameSource> Src, StoreOptions Opts) {
  std::string ChainError;
  std::vector<const pipeline::Codec *> Chain =
      pipeline::parseChain(Src->chainSpec(), ChainError);
  if (Chain.empty())
    return DecodeError("store: " + ChainError);
  if (Chain.front()->payloadKind() == PayloadKind::Module)
    return DecodeError(std::string("store: codec '") + Chain.front()->name() +
                       "' cannot serve per-function frames");

  // The manifest rides the same (possibly flaky) transport as frames.
  FetchMetrics MM;
  FetchResult MR = fetchWithRetry(*Src, ManifestFrameId, Opts.Retry, MM);
  if (!MR.Ok)
    return DecodeError("store: fetch manifest failed [" +
                       std::string(fetchErrorKindName(MR.Err)) +
                       "]: " + MR.Msg);

  return tryDecode([&] {
    std::unique_ptr<CodeStore> S(new CodeStore());
    S->Spec = Src->chainSpec();
    S->Chain = Chain;
    S->Kind = Chain.front()->payloadKind();

    const std::vector<uint8_t> &Manifest = MR.Bytes;
    ByteReader R(Manifest);
    if (R.readU32() != ManifestMagic)
      decodeFail("store: bad manifest magic");
    uint8_t Version = R.readU8();
    if (Version != ManifestVersionHashed && Version != ManifestVersionPerPage)
      decodeFail("store: unsupported manifest version");
    const bool PerPage = Version == ManifestVersionPerPage;
    uint8_t Flags = R.readU8();
    if (Flags & ~uint8_t(ManifestFlagPaged))
      decodeFail("store: unknown manifest flags");
    S->Paged = (Flags & ManifestFlagPaged) != 0;
    const uint64_t Claim = R.readU64();
    if (R.readU8() != bodyTag(S->Kind))
      decodeFail("store: manifest payload kind does not match codec chain");
    if (PerPage) {
      // The v4 chain table. Entry 0 must restate the container spec —
      // the manifest cannot quietly reroute the primary chain — and
      // every entry must name a registered chain of the same frame
      // body kind.
      uint64_t NumChains = R.readVarU();
      if (NumChains < MinPerPageChains || NumChains > MaxPerPageChains)
        decodeFail("store: per-page chain count out of range");
      for (uint64_t I = 0; I != NumChains; ++I) {
        std::string CS = R.readStr();
        if (I == 0) {
          if (CS != S->Spec)
            decodeFail("store: per-page chain table head does not match "
                       "the container spec");
          S->ChainSpecs.push_back(std::move(CS));
          S->Chains.push_back(S->Chain);
          continue;
        }
        std::string CE;
        std::vector<const pipeline::Codec *> C = pipeline::parseChain(CS, CE);
        if (C.empty())
          decodeFail("store: per-page chain '" + CS + "': " + CE);
        if (bodyTag(C.front()->payloadKind()) != bodyTag(S->Kind))
          decodeFail("store: per-page chain '" + CS +
                     "' decodes to a different frame body kind");
        S->ChainSpecs.push_back(std::move(CS));
        S->Chains.push_back(std::move(C));
      }
    }
    S->Skel.Entry = static_cast<uint32_t>(R.readVarU());
    S->Skel.GlobalBase = static_cast<uint32_t>(R.readVarU());
    S->Skel.GlobalEnd = static_cast<uint32_t>(R.readVarU());
    size_t NumGlobals = R.readVarU();
    if (NumGlobals > Manifest.size())
      decodeFail("store: inflated global count");
    for (size_t I = 0; I != NumGlobals; ++I) {
      vm::VMGlobal G;
      G.Name = R.readStr();
      G.Addr = static_cast<uint32_t>(R.readVarU());
      G.Size = static_cast<uint32_t>(R.readVarU());
      G.Init = R.readBytes(R.readVarU());
      S->Skel.Globals.push_back(std::move(G));
    }
    size_t NumFuncs = R.readVarU();
    if (NumFuncs > Manifest.size())
      decodeFail("store: inflated function count");
    for (size_t I = 0; I != NumFuncs; ++I) {
      FuncRecord Rec;
      Rec.Name = R.readStr();
      Rec.FrameSize = static_cast<uint32_t>(R.readVarU());
      if (S->Paged)
        Rec.CodeLen = static_cast<uint32_t>(R.readVarU());
      size_t NumLabels = R.readVarU();
      if (NumLabels > Manifest.size())
        decodeFail("store: inflated label count");
      Rec.LabelPos.reserve(NumLabels);
      for (size_t L = 0; L != NumLabels; ++L)
        Rec.LabelPos.push_back(static_cast<uint32_t>(R.readVarU()));
      if (S->Paged) {
        // The interpreter branches through this table before the page
        // holding the target is decoded, so validate it here: every
        // label must land inside the function (== CodeLen means a
        // branch to the end, which traps cleanly).
        for (uint32_t L : Rec.LabelPos)
          if (L > Rec.CodeLen)
            decodeFail("store: label past the end of '" + Rec.Name + "'");
        size_t NumPages = R.readVarU();
        if (NumPages == 0)
          decodeFail("store: function '" + Rec.Name + "' has no pages");
        if (NumPages > Manifest.size())
          decodeFail("store: inflated page count");
        Rec.FirstPage = S->TotalPages;
        uint64_t Covered = 0;
        Rec.Pages.reserve(NumPages);
        for (size_t Pg = 0; Pg != NumPages; ++Pg) {
          PageRec PR;
          PR.FirstInstr = static_cast<uint32_t>(Covered);
          PR.InstrCount = static_cast<uint32_t>(R.readVarU());
          if (PR.InstrCount == 0 && Rec.CodeLen != 0)
            decodeFail("store: empty page in '" + Rec.Name + "'");
          Covered += PR.InstrCount;
          if (Covered > Rec.CodeLen)
            decodeFail("store: page table of '" + Rec.Name +
                       "' overruns the function");
          if (S->Kind == PayloadKind::FuncImage) {
            size_t NumPageLabels = R.readVarU();
            if (NumPageLabels > Manifest.size())
              decodeFail("store: inflated page label count");
            PR.Labels.reserve(NumPageLabels);
            for (size_t PL = 0; PL != NumPageLabels; ++PL) {
              uint32_t L = static_cast<uint32_t>(R.readVarU());
              // Page labels index the function label table and must be
              // strictly increasing (they are ranks' targets).
              if (L >= NumLabels)
                decodeFail("store: page label out of range in '" +
                           Rec.Name + "'");
              if (!PR.Labels.empty() && L <= PR.Labels.back())
                decodeFail("store: unsorted page labels in '" + Rec.Name +
                           "'");
              PR.Labels.push_back(L);
            }
          }
          Rec.Pages.push_back(std::move(PR));
        }
        if (Covered != Rec.CodeLen)
          decodeFail("store: page table of '" + Rec.Name +
                     "' does not cover the function");
        uint64_t Total = uint64_t(S->TotalPages) + NumPages;
        if (Total > Src->functionFrameCount())
          decodeFail("store: manifest page count does not match frames");
        S->TotalPages = static_cast<uint32_t>(Total);
      }
      S->Funcs.push_back(std::move(Rec));
    }
    if (PerPage) {
      // One chain index per frame, in frame order, after the function
      // records (the frame count is only known once those are parsed).
      size_t NFrames = S->Paged ? S->TotalPages : S->Funcs.size();
      S->FrameChain.reserve(NFrames);
      for (size_t I = 0; I != NFrames; ++I) {
        uint64_t C = R.readVarU();
        if (C >= S->Chains.size())
          decodeFail("store: per-page chain index out of range");
        S->FrameChain.push_back(static_cast<uint32_t>(C));
      }
    }
    if (!R.atEnd())
      decodeFail("store: trailing manifest bytes");
    if (S->Funcs.empty())
      decodeFail("store: container holds no functions");
    if (S->Skel.Entry >= S->Funcs.size())
      decodeFail("store: entry function out of range");
    size_t WantFrames = S->Paged ? S->TotalPages : S->Funcs.size();
    if (WantFrames != Src->functionFrameCount())
      decodeFail("store: manifest frame count does not match container");

    // Resolve the module's content identity. Recomputing from the
    // frames is the ground truth; the manifest claim is checked against
    // it before this store may join a *shared* registry (a forged or
    // corrupt claim must not key into another tenant's frames), and
    // trusted only when the source cannot be hashed (on-demand files).
    // A private store tolerates a mismatched claim — its registry
    // serves only itself, and a corrupt frame still fails its fault
    // typed.
    uint64_t Computed = 0;
    bool HaveComputed = Src->contentHash(Computed);
    if (Opts.SharedRegistry && HaveComputed && Claim != Computed)
      decodeFail("store: manifest container hash does not match the "
                 "frames; refusing to join the shared registry");
    S->Hash = HaveComputed ? Computed : Claim;

    S->indexPages();
    S->Source = std::move(Src);
    Result<bool> Init = S->initRuntime(Opts);
    if (!Init.ok())
      decodeFail(Init.error().message());
    // No code to scan for call edges at load time: the static graph is
    // next-page fall-through only (a caller may applyAccessProfile a
    // recorded trace for the full picture).
    S->initStaticSuccessors(nullptr);
    // Charge the manifest's transport cost to this tenant so stats()
    // shows the whole session's fetch bill.
    S->Cnt.FetchAttempts.fetch_add(MM.Attempts, std::memory_order_relaxed);
    S->Cnt.FetchRetries.fetch_add(MM.TransientFailures,
                                  std::memory_order_relaxed);
    S->Cnt.FetchedBytes.fetch_add(MM.FetchedBytes, std::memory_order_relaxed);
    S->Cnt.FetchVirtualNanos.fetch_add(
        static_cast<uint64_t>(MM.VirtualSeconds * 1e9),
        std::memory_order_relaxed);
    return S;
  });
}

//===----------------------------------------------------------------------===//
// Fault path
//===----------------------------------------------------------------------===//

CodeStore::FaultOutcome CodeStore::decodeFrame(uint32_t Id, FetchMetrics &M) {
  const FuncRecord &Rec = Funcs[Paged ? FrameFunc[Id] : Id];
  FetchResult Fetched = fetchWithRetry(*Source, Id, Opts.Retry, M);
  if (!Fetched.Ok)
    return DecodeError("store: fetch frame of '" + Rec.Name + "' failed [" +
                       fetchErrorKindName(Fetched.Err) + "]: " + Fetched.Msg);
  std::vector<uint8_t> Cur = std::move(Fetched.Bytes);
  // Manifest v4 stores route each frame through its own chain; everyone
  // else decodes through the container's single chain.
  const std::vector<const pipeline::Codec *> &Decode =
      FrameChain.empty() ? Chain : Chains[FrameChain[Id]];
  for (auto It = Decode.rbegin(); It != Decode.rend(); ++It) {
    Result<std::vector<uint8_t>> R = (*It)->tryDecompress(Cur);
    if (!R.ok())
      return R.error();
    Cur = R.take();
  }
  std::shared_ptr<vm::VMFunction> F;
  if (Paged) {
    const PageRec &PR = Rec.Pages[Id - Rec.FirstPage];
    Result<std::vector<vm::Instr>> Code =
        pipeline::tryDecodePagePayload(Kind, Cur, PR.Labels);
    if (!Code.ok())
      return Code.error();
    F = std::make_shared<vm::VMFunction>();
    F->Code = Code.take();
    if (F->Code.size() != PR.InstrCount)
      return DecodeError("store: page of '" + Rec.Name +
                         "' decoded to the wrong instruction count");
    // The interpreter indexes the *function* label table unchecked.
    for (const vm::Instr &In : F->Code)
      if (vm::isBranch(In.Op) && In.Target >= Rec.LabelPos.size())
        return DecodeError("store: branch to a missing label in '" +
                           Rec.Name + "'");
    return std::shared_ptr<const vm::VMFunction>(std::move(F));
  }
  if (Kind == PayloadKind::FuncImage) {
    Result<vm::VMFunction> Img = pipeline::tryDecodeFuncImage(Cur);
    if (!Img.ok())
      return Img.error();
    F = std::make_shared<vm::VMFunction>(Img.take());
  } else {
    Result<std::vector<vm::Instr>> Code = vm::tryDecodeFunction(Cur);
    if (!Code.ok())
      return Code.error();
    F = std::make_shared<vm::VMFunction>();
    F->Name = Rec.Name;
    F->FrameSize = Rec.FrameSize;
    F->LabelPos = Rec.LabelPos;
    F->Code = Code.take();
  }
  // The interpreter indexes LabelPos[Target] unchecked; make malformed
  // frames a typed error here, never UB there.
  for (const vm::Instr &In : F->Code)
    if (vm::isBranch(In.Op) && In.Target >= F->LabelPos.size())
      return DecodeError("store: branch to a missing label in '" + Rec.Name +
                         "'");
  for (uint32_t L : F->LabelPos)
    if (L > F->Code.size())
      return DecodeError("store: label past the end of '" + Rec.Name + "'");
  return std::shared_ptr<const vm::VMFunction>(std::move(F));
}

CodeStore::FaultOutcome CodeStore::faultImpl(uint32_t Id, bool Prefetch) {
  if (Id >= frameCount())
    return DecodeError("store: frame id " + std::to_string(Id) +
                       " out of range");
  if (!Prefetch)
    // Heat accrues on every demand touch — hit or miss — so the signal
    // tracks the access pattern, not the cache's current luck.
    Heat->touch(Id, Paged ? FrameFunc[Id] : Id);

  FrameRegistry::Info I;
  FaultOutcome Out = Reg->fault(
      keyOf(Id), Prefetch,
      [&](bool &DecoderRan) -> FaultOutcome {
        FetchMetrics M;
        FaultOutcome R = [&]() -> FaultOutcome {
          try {
            return decodeFrame(Id, M);
          } catch (const std::bad_alloc &) {
            return DecodeError("store: allocation failed while decoding");
          }
        }();
        Cnt.FetchAttempts.fetch_add(M.Attempts, std::memory_order_relaxed);
        Cnt.FetchRetries.fetch_add(M.TransientFailures,
                                   std::memory_order_relaxed);
        Cnt.FetchedBytes.fetch_add(M.FetchedBytes, std::memory_order_relaxed);
        Cnt.FetchVirtualNanos.fetch_add(
            static_cast<uint64_t>(M.VirtualSeconds * 1e9),
            std::memory_order_relaxed);
        // A failed fetch delivers no bytes, so no decode ran; a decode
        // failure comes after a successful (byte-delivering) fetch.
        if (M.Attempts > 0 && M.FetchedBytes == 0)
          Cnt.FetchFailures.fetch_add(1, std::memory_order_relaxed);
        else
          DecoderRan = true;
        return R;
      },
      I);
  if (!Prefetch) {
    Cnt.Hits.fetch_add(I.Hits, std::memory_order_relaxed);
    Cnt.Misses.fetch_add(I.Misses, std::memory_order_relaxed);
    Cnt.SingleFlightWaits.fetch_add(I.Waits, std::memory_order_relaxed);
  }
  if (I.Led && !Out.ok())
    Cnt.DecodeErrors.fetch_add(1, std::memory_order_relaxed);
  return Out;
}

CodeStore::FaultOutcome CodeStore::assembleFunction(uint32_t Fn) {
  const FuncRecord &Rec = Funcs[Fn];
  auto F = std::make_shared<vm::VMFunction>();
  F->Name = Rec.Name;
  F->FrameSize = Rec.FrameSize;
  F->LabelPos = Rec.LabelPos;
  // A hostile manifest can claim any CodeLen it likes as long as its
  // page table sums to it; growth past this cap is paid for by actual
  // decoded pages, so a reserve bomb never allocates ahead of content.
  F->Code.reserve(std::min<size_t>(Rec.CodeLen, size_t(1) << 20));
  for (uint32_t K = 0; K != Rec.Pages.size(); ++K) {
    FaultOutcome R = faultImpl(Rec.FirstPage + K, /*Prefetch=*/false);
    if (!R.ok())
      return R.error();
    const std::shared_ptr<const vm::VMFunction> &Body = R.value();
    F->Code.insert(F->Code.end(), Body->Code.begin(), Body->Code.end());
  }
  return std::shared_ptr<const vm::VMFunction>(std::move(F));
}

Result<std::shared_ptr<const vm::VMFunction>> CodeStore::fault(uint32_t Id) {
  if (Id >= Funcs.size())
    return DecodeError("store: function id " + std::to_string(Id) +
                       " out of range");
  if (!Paged)
    return faultImpl(Id, /*Prefetch=*/false);
  return assembleFunction(Id);
}

Result<vm::CodeSpan> CodeStore::faultSpan(uint32_t Fn, uint32_t Idx) {
  if (Fn >= Funcs.size())
    return DecodeError("store: function id " + std::to_string(Fn) +
                       " out of range");
  vm::CodeSpan S;
  if (!Paged) {
    FaultOutcome R = faultImpl(Fn, /*Prefetch=*/false);
    if (!R.ok())
      return R.error();
    std::shared_ptr<const vm::VMFunction> B = R.take();
    S.Code = B->Code.data();
    S.Begin = 0;
    S.End = static_cast<uint32_t>(B->Code.size());
    S.FuncLen = S.End;
    S.Labels = &B->LabelPos;
    S.Name = &B->Name;
    S.Keep = std::move(B);
    return S;
  }
  const FuncRecord &Rec = Funcs[Fn];
  uint32_t K = pageIndexOf(Rec, Idx);
  FaultOutcome R = faultImpl(Rec.FirstPage + K, /*Prefetch=*/false);
  if (!R.ok())
    return R.error();
  std::shared_ptr<const vm::VMFunction> B = R.take();
  const PageRec &PR = Rec.Pages[K];
  S.Code = B->Code.data();
  S.Begin = PR.FirstInstr;
  S.End = PR.FirstInstr + PR.InstrCount;
  S.FuncLen = Rec.CodeLen;
  S.Labels = &Rec.LabelPos;
  S.Name = &Rec.Name;
  S.Keep = std::move(B);
  return S;
}

void CodeStore::warmFrames(const std::vector<uint32_t> &Frames,
                           ThreadPool &Pool) {
  // One advisory hint up front, naming every frame this wave will
  // fault, so a transport with per-request overhead (a socket) can
  // coalesce the whole wave into a single round trip and stage the
  // bytes; the pool jobs below then fetch from the staging area. For
  // local/file/simulated sources this is a no-op. Hint and warms cover
  // the *same* set — hinting what will not be warmed would fetch bytes
  // nobody admits, and warming what was not hinted would break the
  // transport's one-round-trip coalescing.
  if (Frames.empty())
    return;
  for (uint32_t Id : Frames)
    Warming[Id].store(1, std::memory_order_relaxed);
  Source->prefetchHint(Frames);
  for (uint32_t Id : Frames)
    Pool.submit([this, Id] {
      try {
        (void)faultImpl(Id, /*Prefetch=*/true);
      } catch (...) {
        // Pool jobs must not throw; failures are already counted in
        // DecodeErrors by the fault path.
      }
      // Released only after the frame landed, so warmedOrResident never
      // sees a warmed frame as neither.
      Warming[Id].store(0, std::memory_order_release);
    });
}

void CodeStore::prefetch(const std::vector<uint32_t> &Ids, ThreadPool &Pool) {
  std::vector<uint32_t> Want;
  for (uint32_t Id : Ids) {
    if (Id >= Funcs.size())
      continue;
    if (!Paged) {
      if (!warmedOrResident(Id))
        Want.push_back(Id);
      continue;
    }
    const FuncRecord &Rec = Funcs[Id];
    for (uint32_t K = 0; K != Rec.Pages.size(); ++K)
      if (!warmedOrResident(Rec.FirstPage + K))
        Want.push_back(Rec.FirstPage + K);
  }
  warmFrames(clampToAdmission(std::move(Want)), Pool);
}

uint32_t CodeStore::pageIndexOf(const FuncRecord &Rec, uint32_t Idx) {
  // Clamp an out-of-range Idx to the last page: the interpreter checks
  // the Pc against the function length itself and traps with the
  // function's name.
  uint32_t I = Idx;
  if (Rec.CodeLen == 0)
    I = 0;
  else if (I >= Rec.CodeLen)
    I = Rec.CodeLen - 1;
  auto It = std::upper_bound(
      Rec.Pages.begin(), Rec.Pages.end(), I,
      [](uint32_t V, const PageRec &P) { return V < P.FirstInstr; });
  return static_cast<uint32_t>(It - Rec.Pages.begin()) - 1;
}

uint32_t CodeStore::frameOf(uint32_t Fn, uint32_t Idx) const {
  if (!Paged)
    return Fn;
  const FuncRecord &Rec = Funcs[Fn];
  return Rec.FirstPage + pageIndexOf(Rec, Idx);
}

size_t CodeStore::estimatedDecodedCost(uint32_t FrameId) const {
  if (Paged) {
    // Exact: a decoded page body is bare code (decodeFrame leaves
    // Name/LabelPos empty; the function-level tables live in Funcs).
    const FuncRecord &Rec = Funcs[FrameFunc[FrameId]];
    const PageRec &PR = Rec.Pages[FrameId - Rec.FirstPage];
    return sizeof(vm::VMFunction) + size_t(PR.InstrCount) * sizeof(vm::Instr);
  }
  // Floor: the manifest records no code length for unpaged frames.
  const FuncRecord &Rec = Funcs[FrameId];
  return sizeof(vm::VMFunction) + Rec.Name.size() +
         Rec.LabelPos.size() * sizeof(uint32_t);
}

std::vector<uint32_t>
CodeStore::clampToAdmission(std::vector<uint32_t> Frames) const {
  const size_t Budget = cacheBudgetBytes();
  size_t Cost = 0, Keep = 0;
  for (uint32_t Id : Frames) {
    Cost += estimatedDecodedCost(Id);
    // The first frame always passes: the most-recently-faulted entry is
    // never evicted, so admission accepts at least one frame whatever
    // the budget.
    if (Keep && Cost > Budget)
      break;
    ++Keep;
  }
  Frames.resize(Keep);
  return Frames;
}

void CodeStore::initStaticSuccessors(const vm::VMProgram *P) {
  auto G = std::make_shared<SuccessorGraph>();
  G->Next.resize(frameCount());
  auto AddEdge = [&](uint32_t From, uint32_t To) {
    std::vector<uint32_t> &N = G->Next[From];
    if (std::find(N.begin(), N.end(), To) == N.end())
      N.push_back(To);
  };
  for (uint32_t Fn = 0; Fn != Funcs.size(); ++Fn) {
    const FuncRecord &Rec = Funcs[Fn];
    if (Paged)
      // Fall-through: after page K the likely next fault is page K+1.
      for (uint32_t K = 0; K + 1 < Rec.Pages.size(); ++K)
        AddEdge(Rec.FirstPage + K, Rec.FirstPage + K + 1);
    if (!P)
      continue;
    // Call edges from the code we are packing: the frame holding a CALL
    // predicts the callee's entry frame.
    const vm::VMFunction &F = P->Functions[Fn];
    for (uint32_t I = 0; I != F.Code.size(); ++I) {
      const vm::Instr &In = F.Code[I];
      if (In.Op != vm::VMOp::CALL || In.Target >= Funcs.size())
        continue;
      uint32_t From = Paged ? Rec.FirstPage + pageIndexOf(Rec, I) : Fn;
      uint32_t To = Paged ? Funcs[In.Target].FirstPage : In.Target;
      if (From != To)
        AddEdge(From, To);
    }
  }
  std::lock_guard<std::mutex> L(SuccMu);
  Succ = std::move(G);
}

void CodeStore::applyAccessProfile(const pipeline::ExecutionTrace &T) {
  // Count observed frame->frame transfers through this store's own page
  // tables; the trace speaks (function, instruction) so it is valid for
  // any layout of the same program.
  std::unordered_map<uint64_t, uint64_t> Edges;
  uint32_t Prev = ~0u;
  bool HavePrev = false;
  for (const pipeline::TraceEvent &E : T.Events) {
    if (E.Fn >= Funcs.size()) {
      HavePrev = false; // Advisory data: skip and break the chain.
      continue;
    }
    uint32_t Frame = frameOf(E.Fn, E.Idx);
    if (HavePrev && Frame != Prev)
      Edges[(uint64_t(Prev) << 32) | Frame]++;
    Prev = Frame;
    HavePrev = true;
  }

  auto G = std::make_shared<SuccessorGraph>();
  G->FromTrace = true;
  G->Next.resize(frameCount());
  std::vector<std::vector<std::pair<uint64_t, uint32_t>>> Ranked(frameCount());
  for (const auto &KV : Edges)
    Ranked[KV.first >> 32].push_back(
        {KV.second, static_cast<uint32_t>(KV.first)});
  constexpr size_t MaxStored = 8;
  for (uint32_t F = 0; F != Ranked.size(); ++F) {
    std::sort(Ranked[F].begin(), Ranked[F].end(),
              [](const std::pair<uint64_t, uint32_t> &A,
                 const std::pair<uint64_t, uint32_t> &B) {
                // Hotter first; ties by lower frame id for determinism.
                return A.first != B.first ? A.first > B.first
                                          : A.second < B.second;
              });
    if (Ranked[F].size() > MaxStored)
      Ranked[F].resize(MaxStored);
    for (const auto &E : Ranked[F])
      G->Next[F].push_back(E.second);
  }
  std::lock_guard<std::mutex> L(SuccMu);
  Succ = std::move(G);
}

bool CodeStore::hasAccessProfile() const {
  std::lock_guard<std::mutex> L(SuccMu);
  return Succ && Succ->FromTrace;
}

std::vector<uint32_t> CodeStore::predictedSuccessors(uint32_t Frame,
                                                     unsigned Max) const {
  std::shared_ptr<const SuccessorGraph> G;
  {
    std::lock_guard<std::mutex> L(SuccMu);
    G = Succ;
  }
  if (!G || Frame >= G->Next.size())
    return {};
  const std::vector<uint32_t> &N = G->Next[Frame];
  return std::vector<uint32_t>(N.begin(),
                               N.begin() + std::min<size_t>(Max, N.size()));
}

void CodeStore::prefetchPredicted(uint32_t Fn, uint32_t Idx,
                                  ThreadPool &Pool) {
  if (Fn >= Funcs.size())
    return;
  // Walk the whole ranked list and keep the first DefaultPredictions
  // frames that are neither resident nor already being warmed: as
  // earlier predictions land, later faults advance down the list
  // instead of re-predicting them.
  std::vector<uint32_t> Want;
  for (uint32_t Id : predictedSuccessors(frameOf(Fn, Idx), ~0u)) {
    if (warmedOrResident(Id))
      continue;
    Want.push_back(Id);
    if (Want.size() == DefaultPredictions)
      break;
  }
  warmFrames(clampToAdmission(std::move(Want)), Pool);
}

bool CodeStore::entryResident(uint32_t Id) const {
  return Reg->resident(keyOf(Id));
}

bool CodeStore::warmedOrResident(uint32_t Id) const {
  // The flag first: a warm clears it only after its frame is resident,
  // so in this order a warmed frame is always seen as one or the other.
  return Warming[Id].load(std::memory_order_acquire) || entryResident(Id);
}

bool CodeStore::isResident(uint32_t Id) const {
  if (Id >= Funcs.size())
    return false;
  if (!Paged)
    return entryResident(Id);
  const FuncRecord &Rec = Funcs[Id];
  for (uint32_t K = 0; K != Rec.Pages.size(); ++K)
    if (!entryResident(Rec.FirstPage + K))
      return false;
  return true;
}

StoreStats CodeStore::stats() const {
  StoreStats T;
  T.Hits = Cnt.Hits.load(std::memory_order_relaxed);
  T.Misses = Cnt.Misses.load(std::memory_order_relaxed);
  T.SingleFlightWaits =
      Cnt.SingleFlightWaits.load(std::memory_order_relaxed);
  T.DecodeErrors = Cnt.DecodeErrors.load(std::memory_order_relaxed);
  T.FetchAttempts = Cnt.FetchAttempts.load(std::memory_order_relaxed);
  T.FetchRetries = Cnt.FetchRetries.load(std::memory_order_relaxed);
  T.FetchFailures = Cnt.FetchFailures.load(std::memory_order_relaxed);
  T.FetchedBytes = Cnt.FetchedBytes.load(std::memory_order_relaxed);
  T.FetchVirtualNanos =
      Cnt.FetchVirtualNanos.load(std::memory_order_relaxed);
  RegistryStats R = Reg->stats();
  T.Decodes = R.Decodes;
  T.PrefetchDecodes = R.PrefetchDecodes;
  T.Evictions = R.Evictions;
  T.DecodeNanos = R.DecodeNanos;
  T.DecodedBytes = R.DecodedBytes;
  T.ResidentBytes = R.ResidentBytes;
  T.ResidentFunctions = R.ResidentFrames;
  return T;
}

void CodeStore::resetStats() {
  Cnt.Hits.store(0, std::memory_order_relaxed);
  Cnt.Misses.store(0, std::memory_order_relaxed);
  Cnt.SingleFlightWaits.store(0, std::memory_order_relaxed);
  Cnt.DecodeErrors.store(0, std::memory_order_relaxed);
  Cnt.FetchAttempts.store(0, std::memory_order_relaxed);
  Cnt.FetchRetries.store(0, std::memory_order_relaxed);
  Cnt.FetchFailures.store(0, std::memory_order_relaxed);
  Cnt.FetchedBytes.store(0, std::memory_order_relaxed);
  Cnt.FetchVirtualNanos.store(0, std::memory_order_relaxed);
  // The single-tenant contract: resetting the only view clears the
  // decode counters too. A shared registry is deliberately untouched —
  // its counters belong to every tenant.
  if (PrivateReg)
    Reg->resetStats();
}
