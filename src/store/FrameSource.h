//===- store/FrameSource.h - Where compressed frames come from --*- C++ -*-===//
//
// Part of the ccomp project (PLDI'97 "Code Compression" reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The fetch seam under the CodeStore: a FrameSource produces a
/// function's compressed frame on demand, so the store no longer
/// assumes every frame is resident in memory. Three backends:
///
///   - LocalFrameSource: frames kept in memory (the original store
///     behavior); fetches are free and infallible.
///   - FileFrameSource: frames read on demand from a CCPK container
///     file through an offset table built by scanning the frame
///     headers, so opening a store costs O(frames) small reads and the
///     container body never needs to be resident.
///   - SimulatedRemoteFrameSource: wraps another source in a sim::Link.
///     Every fetch charges deterministic *virtual* transfer time and
///     can inject transient failures (timeouts, short reads, detected
///     corruption) from a seeded hash, reproducing the paper's
///     mobile-code delivery scenario — a fault costs link time plus
///     decode time — and giving the tests a flaky transport whose
///     misbehavior replays exactly.
///
/// Failures are typed (FetchError) and classified transient vs
/// permanent so the RetryPolicy can mask line noise with bounded,
/// exponentially backed-off retries while surfacing dead frames
/// immediately. By default backoff advances the same virtual clock as
/// transfer time — fetchWithRetry never sleeps, so a retry storm can
/// slow a simulated run but can never hang a real thread. Sources with
/// a *real* transport behind them (net::SocketFrameSource) set
/// RetryPolicy::RealTime, which makes the backoff an actual sleep and
/// the deadline a wall-clock bound — without it, retries against a
/// dead server would spin at CPU speed and the virtual deadline would
/// never fire on a transport that charges no virtual time.
///
//===----------------------------------------------------------------------===//

#ifndef CCOMP_STORE_FRAMESOURCE_H
#define CCOMP_STORE_FRAMESOURCE_H

#include "sim/Transport.h"
#include "support/Error.h"
#include "support/Span.h"

#include <atomic>
#include <cstdint>
#include <fstream>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace ccomp {
namespace store {

//===----------------------------------------------------------------------===//
// Fetch outcomes
//===----------------------------------------------------------------------===//

/// Why a fetch failed. The kind fixes the transient/permanent split:
/// timeouts, short reads, and checksum-detected corruption are worth
/// retrying (the transport may behave next time); a missing frame or a
/// damaged backing file will not improve.
enum class FetchErrorKind : uint8_t {
  Timeout,   ///< Transient: the deadline passed with no full frame.
  ShortRead, ///< Transient: the connection dropped mid-frame.
  Corrupt,   ///< Transient: the transfer checksum rejected the bytes.
  NotFound,  ///< Permanent: the source has no such frame.
  Io,        ///< Permanent: the backing medium failed.
};

const char *fetchErrorKindName(FetchErrorKind K);

/// True for the kinds a RetryPolicy is allowed to retry.
inline bool isTransient(FetchErrorKind K) {
  return K == FetchErrorKind::Timeout || K == FetchErrorKind::ShortRead ||
         K == FetchErrorKind::Corrupt;
}

/// One fetch attempt's result. Success carries the frame bytes; failure
/// carries a typed error. Either way VirtualSeconds is the simulated
/// wall time the attempt consumed (zero for local/file sources), so the
/// caller can charge failed attempts too.
struct FetchResult {
  bool Ok = false;
  std::vector<uint8_t> Bytes;
  FetchErrorKind Err = FetchErrorKind::Io;
  std::string Msg;
  double VirtualSeconds = 0;

  static FetchResult success(std::vector<uint8_t> B, double Seconds = 0) {
    FetchResult R;
    R.Ok = true;
    R.Bytes = std::move(B);
    R.VirtualSeconds = Seconds;
    return R;
  }
  static FetchResult failure(FetchErrorKind K, std::string Msg,
                             double Seconds = 0) {
    FetchResult R;
    R.Err = K;
    R.Msg = std::move(Msg);
    R.VirtualSeconds = Seconds;
    return R;
  }
};

//===----------------------------------------------------------------------===//
// FrameSource interface
//===----------------------------------------------------------------------===//

/// Produces compressed frames by function id. Thread-safe: the store's
/// single-flight leaders call fetchFrame concurrently.
class FrameSource {
public:
  virtual ~FrameSource();

  virtual const char *kind() const = 0;
  virtual const std::string &chainSpec() const = 0;
  virtual uint32_t functionFrameCount() const = 0;
  /// Total compressed bytes across every function frame.
  virtual size_t frameBytes() const = 0;

  /// Fetches function \p Id's compressed frame.
  virtual FetchResult fetchFrame(uint32_t Id) = 0;

  /// Fetches the store manifest, for sources whose backing medium
  /// carries one (a CCPK store container's frame 0). Sources built from
  /// an in-memory program have none.
  virtual FetchResult fetchManifest() = 0;

  /// If this source can compute its container content hash
  /// (pipeline::hashContainerFrames over chain spec + function frames)
  /// without fetching — i.e. the frames are already resident somewhere
  /// trustworthy — sets \p H and returns true. Sources that would have
  /// to pay (and trust) a fetch per frame return false; the store then
  /// falls back to the manifest's claimed hash. In-memory sources
  /// compute it; file sources decline; a simulated remote forwards to
  /// its origin (the origin's bytes *are* what the transport serves).
  virtual bool contentHash(uint64_t &H) {
    (void)H;
    return false;
  }

  /// Advisory: the caller is about to fetch these frames. A source with
  /// per-request overhead (a network round trip) may coalesce them into
  /// one transfer and stage the results for the coming fetchFrame
  /// calls. Purely an optimization — the default does nothing, failures
  /// are invisible, and every frame must still be fetchable on its own.
  virtual void prefetchHint(const std::vector<uint32_t> &FrameIds) {
    (void)FrameIds;
  }
};

//===----------------------------------------------------------------------===//
// Retry policy
//===----------------------------------------------------------------------===//

/// Bounded-retry policy for flaky transports: exponential backoff with
/// deterministic jitter and a per-fetch virtual deadline. All delays
/// advance the virtual clock only — there is no real sleeping anywhere
/// in the retry path, so a permanently failing transport degrades to a
/// typed error after at most MaxAttempts draws, never a hang.
struct RetryPolicy {
  /// Total tries per fetch, including the first. 1 disables retries.
  unsigned MaxAttempts = 4;
  double BaseBackoffSeconds = 0.05;
  double BackoffMultiplier = 2.0;
  double MaxBackoffSeconds = 2.0;
  /// Backoff is scaled by a factor drawn uniformly from
  /// [1-JitterFraction, 1+JitterFraction], hashed from (JitterSeed,
  /// frame, attempt) so it replays identically regardless of thread
  /// interleaving.
  double JitterFraction = 0.25;
  uint64_t JitterSeed = 0x1234;
  /// Virtual-seconds budget for one fetch across all its attempts and
  /// backoffs; exceeding it fails the fetch with a Timeout error. Under
  /// RealTime the same budget is measured on the wall clock instead.
  double DeadlineSeconds = 120.0;
  /// When set, backoff really sleeps and the deadline is wall-clock:
  /// elapsed real time (attempt durations + sleeps) counts against
  /// DeadlineSeconds. For sources whose fetches take real time (TCP);
  /// the default keeps simulated runs at CPU speed and is bit-for-bit
  /// the old behavior.
  bool RealTime = false;

  /// The backoff charged after failed attempt \p Attempt (0-based) of
  /// frame \p Frame. Pure function of (policy, frame, attempt).
  double backoffSeconds(uint32_t Frame, unsigned Attempt) const;
};

/// Aggregate cost of one fetchWithRetry call, for the store's stats.
struct FetchMetrics {
  unsigned Attempts = 0;
  unsigned TransientFailures = 0;
  uint64_t FetchedBytes = 0;
  double VirtualSeconds = 0; ///< Transfer + backoff, all attempts.
};

/// Fetches frame \p Id from \p Src under \p Policy: transient failures
/// are retried with backoff until MaxAttempts or the deadline runs out;
/// permanent failures surface immediately. \p Id of ~0u means the
/// manifest. The returned FetchResult's VirtualSeconds equals
/// M.VirtualSeconds (the whole call, not just the last attempt).
FetchResult fetchWithRetry(FrameSource &Src, uint32_t Id,
                           const RetryPolicy &Policy, FetchMetrics &M);

/// Which deterministic draw a key feeds. Each purpose salts the key so
/// independent random streams over the same (seed, frame, attempt)
/// never share a value even when the caller reuses one seed for both.
enum class DrawPurpose : uint64_t {
  BackoffJitter = 1,  ///< RetryPolicy::backoffSeconds' jitter factor.
  TransportFault = 2, ///< SimulatedRemoteFrameSource's failure draws.
};

/// The single key function behind every deterministic per-attempt draw
/// in the fetch stack. (Frame, Attempt) packs injectively into one
/// 64-bit word — frame in the high half, attempt in the low half — so
/// two distinct (frame, attempt) pairs can never hash the same key.
/// The old per-site packings shifted Attempt by 32 or 33 bits, which
/// collided with the frame id for large attempt counts and could alias
/// the two streams for the same (seed, frame, attempt).
uint64_t drawKey(uint64_t Seed, uint32_t Frame, unsigned Attempt,
                 DrawPurpose Purpose);

/// Sentinel id for fetchWithRetry/SimulatedRemoteFrameSource: the
/// manifest rather than a function frame.
constexpr uint32_t ManifestFrameId = ~0u;

//===----------------------------------------------------------------------===//
// LocalFrameSource
//===----------------------------------------------------------------------===//

/// Frames kept in memory; fetches are copies and never fail. This is
/// the CodeStore's original behavior, and the origin most remote
/// simulations wrap.
class LocalFrameSource final : public FrameSource {
public:
  /// From per-function frames (no manifest), as CodeStore::build makes.
  LocalFrameSource(std::string ChainSpec,
                   std::vector<std::vector<uint8_t>> FuncFrames);

  /// From a parsed CCPK store container: frame 0 is the manifest,
  /// frames 1..N the function bodies. Fails typed if \p Bytes is not a
  /// container with at least a manifest frame.
  static Result<std::unique_ptr<LocalFrameSource>>
  fromContainerBytes(ByteSpan Bytes);

  const char *kind() const override { return "local"; }
  const std::string &chainSpec() const override { return Spec; }
  uint32_t functionFrameCount() const override {
    return static_cast<uint32_t>(Frames.size());
  }
  size_t frameBytes() const override;
  FetchResult fetchFrame(uint32_t Id) override;
  FetchResult fetchManifest() override;
  bool contentHash(uint64_t &H) override;

private:
  std::string Spec;
  std::vector<std::vector<uint8_t>> Frames; ///< Function frames only.
  std::vector<uint8_t> Manifest;            ///< Empty when absent.
  bool HasManifest = false;
  /// Lazily computed content hash (guarded by HashOnce).
  std::once_flag HashOnce;
  uint64_t Hash = 0;
};

//===----------------------------------------------------------------------===//
// FileFrameSource
//===----------------------------------------------------------------------===//

/// Reads frames on demand from a CCPK store container file. open()
/// scans only the container header and the per-frame length prefixes to
/// build an offset table (validating every claimed length against the
/// real file size — a corrupt header cannot make us reserve gigabytes),
/// so memory holds the offsets, not the frames. fetchFrame seeks and
/// reads one frame.
class FileFrameSource final : public FrameSource {
public:
  static Result<std::unique_ptr<FileFrameSource>>
  open(const std::string &Path);

  const char *kind() const override { return "file"; }
  const std::string &chainSpec() const override { return Spec; }
  uint32_t functionFrameCount() const override {
    return static_cast<uint32_t>(Slots.size() ? Slots.size() - 1 : 0);
  }
  size_t frameBytes() const override;
  FetchResult fetchFrame(uint32_t Id) override;
  FetchResult fetchManifest() override;

private:
  FileFrameSource() = default;
  FetchResult readSlot(size_t Slot);

  struct FrameSlot {
    uint64_t Offset = 0;
    uint64_t Size = 0;
  };

  std::string Path;
  std::string Spec;
  std::vector<FrameSlot> Slots; ///< Slot 0 = manifest, 1..N = functions.
  std::mutex Mu;                ///< Guards In (streams are not thread-safe).
  std::ifstream In;
};

//===----------------------------------------------------------------------===//
// SimulatedRemoteFrameSource
//===----------------------------------------------------------------------===//

/// How a remote session pays the link's per-transfer setup latency.
enum class LatencyMode : uint8_t {
  PerFetch, ///< Every frame is its own transfer (latency each time).
  Batched,  ///< One session: latency once, then stream cost per frame.
};

/// Knobs for the simulated transport.
struct RemoteOptions {
  sim::Link Link = sim::ethernet10M();
  LatencyMode Latency = LatencyMode::PerFetch;
  /// Probability that any single fetch attempt fails with an injected
  /// transient fault (timeout / short read / detected corruption),
  /// drawn deterministically from (FaultSeed, frame, attempt#). 1.0
  /// makes every attempt fail, so retries exhaust and faults surface as
  /// typed errors.
  double TransientFailureRate = 0.0;
  uint64_t FaultSeed = 0;
  /// When set, transfer time is charged for what the CCPK wire protocol
  /// (net/Message.h) actually puts on the link for one fetch — request
  /// plus framed reply (net::wireSizeFetch) — rather than the bare
  /// payload bytes. Off by default: existing virtual-time baselines
  /// charge raw payloads. Turn it on to make the simulation agree
  /// byte-for-byte with a real net::FrameServer conversation.
  bool WireFraming = false;
};

/// Wraps an origin FrameSource in a simulated flaky link. Successful
/// fetches cost the link's (deterministic, virtual) transfer time;
/// injected failures cost the time wasted before the failure was
/// detected. The virtual clock is the fetch's VirtualSeconds — no real
/// time passes, so tests over a 28.8k modem run at CPU speed.
class SimulatedRemoteFrameSource final : public FrameSource {
public:
  SimulatedRemoteFrameSource(std::unique_ptr<FrameSource> Origin,
                             RemoteOptions Opts);

  const char *kind() const override { return "sim-remote"; }
  const std::string &chainSpec() const override {
    return Origin->chainSpec();
  }
  uint32_t functionFrameCount() const override {
    return Origin->functionFrameCount();
  }
  size_t frameBytes() const override { return Origin->frameBytes(); }
  FetchResult fetchFrame(uint32_t Id) override;
  FetchResult fetchManifest() override;
  /// The transport serves exactly the origin's bytes (corruption is
  /// *detected*, never delivered), so the origin's hash is this
  /// source's hash.
  bool contentHash(uint64_t &H) override { return Origin->contentHash(H); }

  const RemoteOptions &options() const { return Opts; }

private:
  FetchResult transport(uint32_t DrawId, FetchResult Origin);
  double payloadSeconds(size_t Bytes);

  std::unique_ptr<FrameSource> Origin;
  RemoteOptions Opts;
  /// Per-frame attempt counters (last slot = manifest) so failure draws
  /// are a pure function of (seed, frame, attempt#) and independent of
  /// which thread fetches when.
  std::unique_ptr<std::atomic<uint32_t>[]> Attempts;
  std::atomic<bool> SessionOpen{false}; ///< Batched: latency paid yet?
};

} // namespace store
} // namespace ccomp

#endif // CCOMP_STORE_FRAMESOURCE_H
