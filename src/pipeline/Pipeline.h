//===- pipeline/Pipeline.h - Parallel compression driver --------*- C++ -*-===//
//
// Part of the ccomp project (PLDI'97 "Code Compression" reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The driver that fans per-item compression jobs across a fixed-size
/// thread pool. Output is deterministic: results land in slots indexed
/// by item number, so the bytes are identical to a serial run for any
/// job count, and the first (lowest-index) decode failure is the one
/// reported.
///
/// A packed container ("CCPK") bundles the chain spec and the per-item
/// frames into one self-describing blob so a tool can decompress without
/// being told which codecs produced it.
///
//===----------------------------------------------------------------------===//

#ifndef CCOMP_PIPELINE_PIPELINE_H
#define CCOMP_PIPELINE_PIPELINE_H

#include "pipeline/Codec.h"
#include "support/Error.h"
#include "support/Span.h"

#include <string>
#include <vector>

namespace ccomp {
namespace pipeline {

/// Runs every payload through \p Chain (first codec first), fanning
/// items across \p Jobs worker threads (<=1 runs serially on the caller
/// thread). Frame I is the compressed form of payload I.
std::vector<std::vector<uint8_t>>
compressAll(const std::vector<const Codec *> &Chain,
            const std::vector<std::vector<uint8_t>> &Payloads, unsigned Jobs);

/// Inverts compressAll: runs every frame through \p Chain in reverse.
/// On failure the error of the lowest-index failing frame is returned,
/// independent of scheduling.
Result<std::vector<std::vector<uint8_t>>>
tryDecompressAll(const std::vector<const Codec *> &Chain,
                 const std::vector<std::vector<uint8_t>> &Frames,
                 unsigned Jobs);

/// selectChainsPerItem's result: for every payload, the frame produced
/// by the chain that won it and the index of that chain in the
/// candidate list. Uniform means every item picked chain 0, i.e. the
/// selection degenerated to the primary chain and a caller can drop the
/// per-item table entirely (bit-identical to a plain compressAll).
struct ChainSelection {
  std::vector<std::vector<uint8_t>> Frames;
  std::vector<uint32_t> ChainIdx;
  bool Uniform = true;
};

/// Trial-encodes every payload through every candidate chain and picks,
/// per item, the chain with the smallest frame among those that
/// round-trip the payload byte-exactly. The selection is deterministic:
/// ties go to the lower chain index, and an item no chain verifies
/// falls back to chain 0. Chains must be non-empty and their first
/// codecs must accept the payloads the caller built (the caller aligns
/// payload kinds).
ChainSelection
selectChainsPerItem(const std::vector<std::vector<const Codec *>> &Chains,
                    const std::vector<std::vector<uint8_t>> &Payloads,
                    unsigned Jobs);

/// Packs a chain spec and its frames into one self-describing container.
std::vector<uint8_t> packContainer(const std::string &ChainSpec,
                                   const std::vector<std::vector<uint8_t>> &Frames);

/// A parsed container: the chain that produced it and the raw frames.
struct Container {
  std::string ChainSpec;
  std::vector<std::vector<uint8_t>> Frames;
};

/// Parses a container of unknown provenance; corrupt input yields a
/// typed DecodeError.
Result<Container> tryUnpackContainer(ByteSpan Bytes);

/// Content hash of a store container's payload: the chain spec plus
/// every compressed frame, in frame order, each frame prefixed by its
/// length so frame boundaries are part of the identity. FNV-1a over
/// the bytes, avalanched through a final mixer. Deterministic across
/// platforms and builds — two containers hash equal iff spec and
/// frames are byte-identical — so the value can serve as the
/// content-addressed key of a process-wide frame registry. The store
/// excludes its manifest frame from \p Frames: the hash rides *inside*
/// the manifest (manifest v3), so it cannot cover it.
uint64_t hashContainerFrames(const std::string &ChainSpec,
                             const std::vector<std::vector<uint8_t>> &Frames);

} // namespace pipeline
} // namespace ccomp

#endif // CCOMP_PIPELINE_PIPELINE_H
