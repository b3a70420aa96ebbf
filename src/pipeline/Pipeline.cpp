//===- pipeline/Pipeline.cpp - Parallel compression driver ----------------===//
//
// Part of the ccomp project (PLDI'97 "Code Compression" reproduction).
//
//===----------------------------------------------------------------------===//

#include "pipeline/Pipeline.h"

#include "support/ByteIO.h"
#include "support/PRNG.h"
#include "support/Support.h"
#include "support/ThreadPool.h"

#include <optional>

using namespace ccomp;
using namespace ccomp::pipeline;

namespace {

constexpr uint32_t PackMagic = 0x4B504343; // "CCPK".

std::vector<uint8_t> compressOne(const std::vector<const Codec *> &Chain,
                                 const std::vector<uint8_t> &Payload) {
  std::vector<uint8_t> Cur = Payload;
  for (const Codec *C : Chain)
    Cur = C->compress(Cur);
  return Cur;
}

Result<std::vector<uint8_t>>
decompressOne(const std::vector<const Codec *> &Chain,
              const std::vector<uint8_t> &Frame) {
  std::vector<uint8_t> Cur = Frame;
  for (auto It = Chain.rbegin(); It != Chain.rend(); ++It) {
    Result<std::vector<uint8_t>> R = (*It)->tryDecompress(Cur);
    if (!R.ok())
      return R;
    Cur = R.take();
  }
  return Cur;
}

} // namespace

std::vector<std::vector<uint8_t>>
pipeline::compressAll(const std::vector<const Codec *> &Chain,
                      const std::vector<std::vector<uint8_t>> &Payloads,
                      unsigned Jobs) {
  if (Chain.empty())
    reportFatal("pipeline: empty codec chain");
  std::vector<std::vector<uint8_t>> Frames(Payloads.size());
  if (Jobs <= 1 || Payloads.size() <= 1) {
    for (size_t I = 0; I != Payloads.size(); ++I)
      Frames[I] = compressOne(Chain, Payloads[I]);
    return Frames;
  }
  // Each worker writes only its own pre-sized slot, so the result is
  // byte-identical to the serial loop for any job count.
  ThreadPool Pool(Jobs);
  Pool.parallelFor(Payloads.size(), [&](size_t I) {
    Frames[I] = compressOne(Chain, Payloads[I]);
  });
  return Frames;
}

Result<std::vector<std::vector<uint8_t>>>
pipeline::tryDecompressAll(const std::vector<const Codec *> &Chain,
                           const std::vector<std::vector<uint8_t>> &Frames,
                           unsigned Jobs) {
  if (Chain.empty())
    reportFatal("pipeline: empty codec chain");
  std::vector<std::vector<uint8_t>> Payloads(Frames.size());
  std::vector<std::optional<DecodeError>> Errors(Frames.size());
  auto RunOne = [&](size_t I) {
    Result<std::vector<uint8_t>> R = decompressOne(Chain, Frames[I]);
    if (R.ok())
      Payloads[I] = R.take();
    else
      Errors[I] = R.error();
  };
  if (Jobs <= 1 || Frames.size() <= 1) {
    for (size_t I = 0; I != Frames.size(); ++I)
      RunOne(I);
  } else {
    ThreadPool Pool(Jobs);
    Pool.parallelFor(Frames.size(), RunOne);
  }
  // Report the lowest-index failure so diagnostics do not depend on
  // worker scheduling.
  for (std::optional<DecodeError> &E : Errors)
    if (E)
      return *E;
  return Payloads;
}

ChainSelection pipeline::selectChainsPerItem(
    const std::vector<std::vector<const Codec *>> &Chains,
    const std::vector<std::vector<uint8_t>> &Payloads, unsigned Jobs) {
  if (Chains.empty())
    reportFatal("pipeline: no candidate chains");
  for (const std::vector<const Codec *> &C : Chains)
    if (C.empty())
      reportFatal("pipeline: empty codec chain");

  struct Trial {
    std::vector<uint8_t> Frame;
    bool Verified = false;
  };
  std::vector<std::vector<Trial>> Trials(Payloads.size(),
                                         std::vector<Trial>(Chains.size()));
  auto RunItem = [&](size_t I) {
    for (size_t C = 0; C != Chains.size(); ++C) {
      Trial &T = Trials[I][C];
      const std::vector<const Codec *> &Chain = Chains[C];
      std::vector<std::vector<uint8_t>> Inputs;
      std::vector<uint8_t> Cur = Payloads[I];
      for (const Codec *K : Chain) {
        Inputs.push_back(Cur);
        Cur = K->compress(Cur);
      }
      T.Frame = std::move(Cur);
      // Verify stage by stage: a chain only qualifies if decoding its
      // frame reproduces every intermediate payload byte-exactly.
      std::vector<uint8_t> Back = T.Frame;
      T.Verified = true;
      for (size_t J = Chain.size(); J-- > 0;) {
        Result<std::vector<uint8_t>> R = Chain[J]->tryDecompress(Back);
        if (!R.ok() || R.value() != Inputs[J]) {
          T.Verified = false;
          break;
        }
        Back = R.take();
      }
    }
  };
  if (Jobs <= 1 || Payloads.size() <= 1) {
    for (size_t I = 0; I != Payloads.size(); ++I)
      RunItem(I);
  } else {
    ThreadPool Pool(Jobs);
    Pool.parallelFor(Payloads.size(), RunItem);
  }

  ChainSelection Sel;
  Sel.Frames.resize(Payloads.size());
  Sel.ChainIdx.resize(Payloads.size());
  for (size_t I = 0; I != Payloads.size(); ++I) {
    size_t Best = 0;
    bool Have = false;
    for (size_t C = 0; C != Chains.size(); ++C) {
      const Trial &T = Trials[I][C];
      if (!T.Verified)
        continue;
      if (!Have || T.Frame.size() < Trials[I][Best].Frame.size()) {
        Best = C;
        Have = true;
      }
    }
    // No chain verified: fall back to the primary chain, which the
    // caller guarantees works (it is the container's global chain).
    Sel.ChainIdx[I] = static_cast<uint32_t>(Best);
    Sel.Frames[I] = std::move(Trials[I][Best].Frame);
    if (Best != 0)
      Sel.Uniform = false;
  }
  return Sel;
}

std::vector<uint8_t>
pipeline::packContainer(const std::string &ChainSpec,
                        const std::vector<std::vector<uint8_t>> &Frames) {
  ByteWriter W;
  W.writeU32(PackMagic);
  W.writeStr(ChainSpec);
  W.writeVarU(Frames.size());
  for (const std::vector<uint8_t> &F : Frames) {
    W.writeVarU(F.size());
    W.writeBytes(F);
  }
  return W.take();
}

Result<Container> pipeline::tryUnpackContainer(ByteSpan Bytes) {
  return tryDecode([&] {
    ByteReader R(Bytes);
    if (R.readU32() != PackMagic)
      decodeFail("container: bad magic");
    Container C;
    C.ChainSpec = R.readStr();
    size_t N = R.readVarU();
    if (N > Bytes.size())
      decodeFail("container: inflated frame count");
    for (size_t I = 0; I != N; ++I) {
      size_t Len = R.readVarU();
      C.Frames.push_back(R.readBytes(Len));
    }
    if (!R.atEnd())
      decodeFail("container: trailing bytes");
    return C;
  });
}

uint64_t
pipeline::hashContainerFrames(const std::string &ChainSpec,
                              const std::vector<std::vector<uint8_t>> &Frames) {
  // FNV-1a 64: simple, dependency-free, and byte-order independent of
  // the host. The length prefix keeps frame boundaries in the identity
  // (frames {"ab",""} and {"a","b"} must not collide structurally).
  constexpr uint64_t Offset = 0xcbf29ce484222325ull;
  constexpr uint64_t Prime = 0x100000001b3ull;
  uint64_t H = Offset;
  auto Fold = [&H](const uint8_t *P, size_t N) {
    for (size_t I = 0; I != N; ++I) {
      H ^= P[I];
      H *= Prime;
    }
  };
  auto FoldU64 = [&Fold](uint64_t V) {
    uint8_t B[8];
    for (int I = 0; I != 8; ++I)
      B[I] = static_cast<uint8_t>(V >> (8 * I));
    Fold(B, 8);
  };
  FoldU64(ChainSpec.size());
  Fold(reinterpret_cast<const uint8_t *>(ChainSpec.data()), ChainSpec.size());
  FoldU64(Frames.size());
  for (const std::vector<uint8_t> &F : Frames) {
    FoldU64(F.size());
    Fold(F.data(), F.size());
  }
  return mix64(H);
}
