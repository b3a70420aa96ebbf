//===- net/FrameServer.h - Multi-threaded TCP frame server -----*- C++ -*-===//
//
// Part of the ccomp project (PLDI'97 "Code Compression" reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The serving side of the CCPK frame protocol (net/Message.h): a
/// FrameServer owns a loaded container — any store::FrameSource, so the
/// same server fronts an in-memory module, an on-disk .ccpk, or
/// whatever else implements the seam — and serves its compressed frames
/// to any number of concurrent TCP clients. One accept thread hands
/// each connection to its own handler thread; handlers run the
/// handshake (Hello -> Welcome carrying the container's manifest-v3
/// content hash), then answer GetFrame and GetBatch until the peer
/// leaves. A batch is one request message and one reply message however
/// many frames it names — the round-trip economics the client's
/// prefetch coalescing banks on.
///
/// Failure discipline mirrors the rest of the fetch stack: a frame the
/// source cannot produce becomes a typed ErrorReply (the
/// FetchErrorKind crosses the wire intact) and the connection lives
/// on; a *protocol* violation — bad magic, unknown type, malformed
/// body, an oversized length prefix — is answered with a Corrupt
/// ErrorReply when possible and the connection is closed, because the
/// framing can no longer be trusted. Nothing a client sends can make
/// the server allocate beyond MaxMessageBytes, abort, or hang: every
/// socket operation is deadline-bounded and stop() evicts every live
/// connection before returning.
///
/// Counters come in two ranks: aggregate ServerStats for the whole
/// process, and per-connection ConnectionStats (requests, batches,
/// frames, bytes, errors) for each live connection, so a load harness
/// can see the skew across hundreds of clients. A closing connection
/// folds its counters into the aggregate and is forgotten, so the
/// server's bookkeeping is bounded by its open connections however
/// many it has ever accepted.
///
//===----------------------------------------------------------------------===//

#ifndef CCOMP_NET_FRAMESERVER_H
#define CCOMP_NET_FRAMESERVER_H

#include "net/Socket.h"
#include "store/FrameSource.h"
#include "support/Error.h"

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace ccomp {
namespace net {

struct ServerOptions {
  std::string BindAddress = "127.0.0.1";
  uint16_t Port = 0; ///< 0 picks an ephemeral port (see port()).
  /// Deadline for each send/recv once a message has started moving.
  unsigned IoTimeoutMillis = 10'000;
  /// How long a connection may sit idle between requests.
  unsigned IdleTimeoutMillis = 60'000;
  /// Most ids one GetBatch may name; beyond this is a protocol error.
  size_t MaxBatchIds = 1u << 16;
  /// Open-connection cap; excess accepts are closed immediately.
  unsigned MaxConnections = 4096;
};

/// One live connection's counters so far (a snapshot).
struct ConnectionStats {
  uint64_t Id = 0;
  uint64_t Requests = 0;     ///< GetFrame + GetBatch messages.
  uint64_t Batches = 0;      ///< GetBatch messages alone.
  uint64_t FramesServed = 0; ///< Frames delivered (batch entries count each).
  uint64_t BytesIn = 0;
  uint64_t BytesOut = 0;
  uint64_t FetchErrors = 0;    ///< Typed ErrorReply / failed batch entries.
  uint64_t ProtocolErrors = 0; ///< Malformed traffic (connection dropped).
};

/// Aggregate counters across every connection, live or closed.
struct ServerStats {
  uint64_t Accepted = 0;
  uint64_t OpenConnections = 0; ///< Gauge.
  uint64_t Rejected = 0;        ///< Closed at accept (connection cap).
  uint64_t Requests = 0;        ///< GetFrame + GetBatch messages (round trips).
  uint64_t Batches = 0;
  uint64_t FramesServed = 0;
  uint64_t BytesIn = 0;
  uint64_t BytesOut = 0;
  uint64_t FetchErrors = 0;
  uint64_t ProtocolErrors = 0;
};

/// Serves one container's frames over TCP. Thread-safe throughout;
/// stop() (or destruction) evicts every connection and joins every
/// thread — a FrameServer can never outlive its threads.
class FrameServer {
public:
  /// Binds, computes the container's content hash (from the source
  /// directly when it can be hashed, else by fetching every frame once
  /// — a one-time startup scan), and starts accepting. Fails typed if
  /// the bind fails or the source cannot produce its frames.
  static Result<std::unique_ptr<FrameServer>>
  start(std::unique_ptr<store::FrameSource> Src, ServerOptions Opts);

  ~FrameServer();

  uint16_t port() const { return Listen.port(); }
  const std::string &address() const { return Listen.address(); }
  /// The hash the handshake advertises (manifest-v3 content hash).
  uint64_t contentHash() const { return Hash; }
  const store::FrameSource &source() const { return *Src; }

  ServerStats stats() const;
  /// The open connections, in accept order (closed ones live on only
  /// in stats()).
  std::vector<ConnectionStats> connectionStats() const;

  /// Stops accepting, evicts live connections (their in-flight requests
  /// fail with a socket close on the client, which maps to a transient
  /// typed error there), and joins every thread. Idempotent.
  void stop();

private:
  struct Conn;

  FrameServer() = default;
  void acceptLoop();
  void serveConnection(std::shared_ptr<Conn> C);
  bool handleMessage(Conn &C, const std::vector<uint8_t> &Payload);
  store::FetchResult fetchFor(uint32_t Id);
  bool sendOn(Conn &C, const std::vector<uint8_t> &Msg);

  std::unique_ptr<store::FrameSource> Src;
  ServerOptions Opts;
  Listener Listen;
  uint64_t Hash = 0;

  std::thread Acceptor;
  std::atomic<bool> Stopping{false};

  mutable std::mutex ConnMu; ///< Guards Conns and Totals.
  /// Live connections by id; each has exactly one running handler.
  std::map<uint64_t, std::shared_ptr<Conn>> Conns;
  /// Accept and reject counts plus the folded counters of every closed
  /// connection (OpenConnections unused).
  ServerStats Totals;
  std::condition_variable HandlersDone; ///< Signaled as Conns shrinks.
};

} // namespace net
} // namespace ccomp

#endif // CCOMP_NET_FRAMESERVER_H
