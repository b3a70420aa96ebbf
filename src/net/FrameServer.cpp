//===- net/FrameServer.cpp - Multi-threaded TCP frame server --------------===//
//
// Part of the ccomp project (PLDI'97 "Code Compression" reproduction).
//
//===----------------------------------------------------------------------===//

#include "net/FrameServer.h"

#include "net/Message.h"
#include "pipeline/Pipeline.h"

using namespace ccomp;
using namespace ccomp::net;
using namespace ccomp::store;

/// Per-connection state. The handler thread owns Sock's IO; stop()
/// only ever calls shutdownBoth() under SockMu to evict it, and the
/// descriptor is closed by the handler on exit (so a server that
/// churns thousands of connections never accumulates descriptors).
/// Only the handler thread bumps the counters; readers snapshot them.
struct FrameServer::Conn {
  uint64_t Id = 0;
  Socket Sock;
  std::mutex SockMu; ///< Serializes shutdown/close against each other.
  std::atomic<uint64_t> Requests{0};
  std::atomic<uint64_t> Batches{0};
  std::atomic<uint64_t> FramesServed{0};
  std::atomic<uint64_t> BytesIn{0};
  std::atomic<uint64_t> BytesOut{0};
  std::atomic<uint64_t> FetchErrors{0};
  std::atomic<uint64_t> ProtocolErrors{0};

  ConnectionStats snapshot() const {
    ConnectionStats S;
    S.Id = Id;
    S.Requests = Requests.load(std::memory_order_relaxed);
    S.Batches = Batches.load(std::memory_order_relaxed);
    S.FramesServed = FramesServed.load(std::memory_order_relaxed);
    S.BytesIn = BytesIn.load(std::memory_order_relaxed);
    S.BytesOut = BytesOut.load(std::memory_order_relaxed);
    S.FetchErrors = FetchErrors.load(std::memory_order_relaxed);
    S.ProtocolErrors = ProtocolErrors.load(std::memory_order_relaxed);
    return S;
  }
};

namespace {

void addTo(ServerStats &T, const ConnectionStats &C) {
  T.Requests += C.Requests;
  T.Batches += C.Batches;
  T.FramesServed += C.FramesServed;
  T.BytesIn += C.BytesIn;
  T.BytesOut += C.BytesOut;
  T.FetchErrors += C.FetchErrors;
  T.ProtocolErrors += C.ProtocolErrors;
}

/// Outcome of reading one length-prefixed message.
enum class RecvOutcome { Ok, Closed, TimedOut, Oversized, Error };

/// Reads one framed message payload (length prefix stripped). The
/// length prefix is validated against MaxMessageBytes *before* any
/// allocation.
RecvOutcome recvMessage(Socket &S, std::vector<uint8_t> &Payload,
                        unsigned FirstByteTimeoutMillis,
                        unsigned IoTimeoutMillis, uint64_t &BytesIn,
                        std::string &Err) {
  uint8_t Prefix[LengthPrefixBytes];
  IoStatus St = S.recvAll(Prefix, sizeof(Prefix), FirstByteTimeoutMillis, Err);
  if (St != IoStatus::Ok)
    return St == IoStatus::Closed    ? RecvOutcome::Closed
           : St == IoStatus::TimedOut ? RecvOutcome::TimedOut
                                      : RecvOutcome::Error;
  uint32_t Len = static_cast<uint32_t>(Prefix[0]) |
                 (static_cast<uint32_t>(Prefix[1]) << 8) |
                 (static_cast<uint32_t>(Prefix[2]) << 16) |
                 (static_cast<uint32_t>(Prefix[3]) << 24);
  if (Len == 0 || Len > MaxMessageBytes) {
    Err = "net: message length " + std::to_string(Len) +
          " outside (0, " + std::to_string(MaxMessageBytes) + "]";
    return RecvOutcome::Oversized;
  }
  Payload.resize(Len);
  St = S.recvAll(Payload.data(), Len, IoTimeoutMillis, Err);
  if (St != IoStatus::Ok)
    return St == IoStatus::Closed    ? RecvOutcome::Closed
           : St == IoStatus::TimedOut ? RecvOutcome::TimedOut
                                      : RecvOutcome::Error;
  BytesIn += LengthPrefixBytes + Len;
  return RecvOutcome::Ok;
}

} // namespace

//===----------------------------------------------------------------------===//
// Lifecycle
//===----------------------------------------------------------------------===//

Result<std::unique_ptr<FrameServer>>
FrameServer::start(std::unique_ptr<store::FrameSource> SrcIn,
                   ServerOptions Opts) {
  std::unique_ptr<FrameServer> S(new FrameServer());
  S->Src = std::move(SrcIn);
  S->Opts = Opts;

  // The handshake advertises the container's content identity. Sources
  // that can hash themselves (in-memory) answer directly; for the rest
  // (on-demand files) every frame is fetched once at startup — the
  // price of never advertising a hash the bytes don't back.
  if (!S->Src->contentHash(S->Hash)) {
    std::vector<std::vector<uint8_t>> Frames;
    uint32_t N = S->Src->functionFrameCount();
    Frames.reserve(N);
    for (uint32_t I = 0; I != N; ++I) {
      FetchResult R = S->Src->fetchFrame(I);
      if (!R.Ok)
        return DecodeError("frame server: cannot hash the container: "
                           "frame " +
                           std::to_string(I) + " unavailable [" +
                           fetchErrorKindName(R.Err) + "]: " + R.Msg);
      Frames.push_back(std::move(R.Bytes));
    }
    S->Hash = pipeline::hashContainerFrames(S->Src->chainSpec(), Frames);
  }

  Result<Listener> L =
      Listener::listenOn(Opts.BindAddress, Opts.Port, /*Backlog=*/512);
  if (!L.ok())
    return L.error();
  S->Listen = L.take();
  S->Acceptor = std::thread([Raw = S.get()] { Raw->acceptLoop(); });
  return S;
}

FrameServer::~FrameServer() { stop(); }

void FrameServer::stop() {
  bool Expected = false;
  if (!Stopping.compare_exchange_strong(Expected, true)) {
    // Another stop() ran or is running; still wait for the threads so
    // every caller returns to a quiesced server.
    if (Acceptor.joinable())
      Acceptor.join();
    std::unique_lock<std::mutex> Lk(ConnMu);
    HandlersDone.wait(Lk, [&] { return Conns.empty(); });
    return;
  }
  Listen.close(); // Unblocks the accept poll.
  if (Acceptor.joinable())
    Acceptor.join();
  std::unique_lock<std::mutex> Lk(ConnMu);
  for (const auto &[Id, C] : Conns) {
    std::lock_guard<std::mutex> SL(C->SockMu);
    C->Sock.shutdownBoth(); // Kicks the handler out of its poll.
  }
  HandlersDone.wait(Lk, [&] { return Conns.empty(); });
}

//===----------------------------------------------------------------------===//
// Accept loop
//===----------------------------------------------------------------------===//

void FrameServer::acceptLoop() {
  uint64_t NextId = 1;
  while (!Stopping.load(std::memory_order_relaxed)) {
    std::string Err;
    Socket S = Listen.accept(/*TimeoutMillis=*/100, Err);
    if (!S.valid())
      continue; // Timeout, shutdown, or a transient accept error.

    auto C = std::make_shared<Conn>();
    C->Id = NextId++;
    C->Sock = std::move(S);
    {
      std::lock_guard<std::mutex> Lk(ConnMu);
      ++Totals.Accepted;
      if (Conns.size() >= Opts.MaxConnections) {
        ++Totals.Rejected;
        continue; // C (and its socket) die here: connection refused.
      }
      Conns.emplace(C->Id, C);
    }
    std::thread([this, C] { serveConnection(C); }).detach();
  }
}

//===----------------------------------------------------------------------===//
// Per-connection service
//===----------------------------------------------------------------------===//

bool FrameServer::sendOn(Conn &C, const std::vector<uint8_t> &Msg) {
  std::string Err;
  IoStatus St = C.Sock.sendAll(Msg.data(), Msg.size(), Opts.IoTimeoutMillis,
                               Err);
  if (St != IoStatus::Ok)
    return false;
  C.BytesOut.fetch_add(Msg.size(), std::memory_order_relaxed);
  return true;
}

store::FetchResult FrameServer::fetchFor(uint32_t Id) {
  return Id == ManifestFrameId ? Src->fetchManifest() : Src->fetchFrame(Id);
}

/// Serves one parsed request message. Returns false when the
/// connection must close (protocol violation or a dead socket).
bool FrameServer::handleMessage(Conn &C, const std::vector<uint8_t> &Payload) {
  Result<Message> MR = tryParseMessage(Payload);
  if (!MR.ok()) {
    C.ProtocolErrors.fetch_add(1, std::memory_order_relaxed);
    (void)sendOn(C, encodeErrorReply(ManifestFrameId, FetchErrorKind::Corrupt,
                                     "protocol: " + MR.error().message()));
    return false; // Framing can't be trusted past a malformed body.
  }
  Message &M = MR.value();
  switch (M.Type) {
  case MsgType::GetFrame: {
    C.Requests.fetch_add(1, std::memory_order_relaxed);
    FetchResult R = fetchFor(M.Id);
    if (!R.Ok) {
      C.FetchErrors.fetch_add(1, std::memory_order_relaxed);
      return sendOn(C, encodeErrorReply(M.Id, R.Err, R.Msg));
    }
    C.FramesServed.fetch_add(1, std::memory_order_relaxed);
    return sendOn(C, encodeFrameData(M.Id, R.Bytes));
  }
  case MsgType::GetBatch: {
    C.Requests.fetch_add(1, std::memory_order_relaxed);
    C.Batches.fetch_add(1, std::memory_order_relaxed);
    if (M.Ids.size() > Opts.MaxBatchIds) {
      C.ProtocolErrors.fetch_add(1, std::memory_order_relaxed);
      (void)sendOn(C,
                   encodeErrorReply(ManifestFrameId, FetchErrorKind::Corrupt,
                                    "protocol: batch of " +
                                        std::to_string(M.Ids.size()) +
                                        " ids exceeds the server cap of " +
                                        std::to_string(Opts.MaxBatchIds)));
      return false;
    }
    std::vector<BatchEntry> Entries;
    Entries.reserve(M.Ids.size());
    // One reply message serves the whole batch, but the reply must stay
    // under MaxMessageBytes or the client would reject it: frames past
    // the budget fail soft and the client fetches them singly.
    size_t Budget = MaxMessageBytes / 2;
    for (uint32_t Id : M.Ids) {
      BatchEntry E;
      E.Id = Id;
      FetchResult R = fetchFor(Id);
      if (R.Ok && R.Bytes.size() <= Budget) {
        E.Ok = true;
        Budget -= R.Bytes.size();
        E.Bytes = std::move(R.Bytes);
        C.FramesServed.fetch_add(1, std::memory_order_relaxed);
      } else if (R.Ok) {
        E.Err = FetchErrorKind::Io;
        E.Msg = "batch reply budget exhausted; fetch singly";
        C.FetchErrors.fetch_add(1, std::memory_order_relaxed);
      } else {
        E.Err = R.Err;
        E.Msg = std::move(R.Msg);
        C.FetchErrors.fetch_add(1, std::memory_order_relaxed);
      }
      Entries.push_back(std::move(E));
    }
    return sendOn(C, encodeBatchData(Entries));
  }
  case MsgType::Hello:
    // A second Hello mid-session is harmless; re-welcome (a client
    // library reconnect path may resend it).
    return sendOn(C, encodeWelcome(Hash, Src->chainSpec(),
                                   Src->functionFrameCount(),
                                   Src->frameBytes()));
  default:
    C.ProtocolErrors.fetch_add(1, std::memory_order_relaxed);
    (void)sendOn(C, encodeErrorReply(ManifestFrameId, FetchErrorKind::Corrupt,
                                     "protocol: unexpected message type on "
                                     "the server side"));
    return false;
  }
}

void FrameServer::serveConnection(std::shared_ptr<Conn> C) {
  // The handshake: the first message must be Hello.
  std::vector<uint8_t> Payload;
  std::string Err;
  uint64_t In = 0;
  RecvOutcome RO = recvMessage(C->Sock, Payload, Opts.IdleTimeoutMillis,
                               Opts.IoTimeoutMillis, In, Err);
  bool Live = false;
  if (RO == RecvOutcome::Ok) {
    C->BytesIn.fetch_add(In, std::memory_order_relaxed);
    Result<Message> MR = tryParseMessage(Payload);
    if (MR.ok() && MR.value().Type == MsgType::Hello) {
      Live = sendOn(*C, encodeWelcome(Hash, Src->chainSpec(),
                                      Src->functionFrameCount(),
                                      Src->frameBytes()));
    } else {
      C->ProtocolErrors.fetch_add(1, std::memory_order_relaxed);
      (void)sendOn(*C,
                   encodeErrorReply(ManifestFrameId, FetchErrorKind::Corrupt,
                                    MR.ok() ? std::string(
                                                  "protocol: expected Hello")
                                            : "protocol: " +
                                                  MR.error().message()));
    }
  } else if (RO == RecvOutcome::Oversized) {
    C->ProtocolErrors.fetch_add(1, std::memory_order_relaxed);
    (void)sendOn(*C, encodeErrorReply(ManifestFrameId,
                                      FetchErrorKind::Corrupt, Err));
  }

  while (Live && !Stopping.load(std::memory_order_relaxed)) {
    In = 0;
    RO = recvMessage(C->Sock, Payload, Opts.IdleTimeoutMillis,
                     Opts.IoTimeoutMillis, In, Err);
    if (RO != RecvOutcome::Ok) {
      if (RO == RecvOutcome::Oversized) {
        C->ProtocolErrors.fetch_add(1, std::memory_order_relaxed);
        (void)sendOn(*C, encodeErrorReply(ManifestFrameId,
                                          FetchErrorKind::Corrupt, Err));
      }
      break; // Closed / idle timeout / dead socket: connection over.
    }
    C->BytesIn.fetch_add(In, std::memory_order_relaxed);
    Live = handleMessage(*C, Payload);
  }

  {
    std::lock_guard<std::mutex> SL(C->SockMu);
    C->Sock.close();
  }
  {
    // Fold this connection into the totals and forget it, so the server
    // keeps records of live connections only. Notify under the mutex:
    // stop() may destroy this server the instant its predicate holds,
    // so the condvar must not be touched after the lock is released.
    std::lock_guard<std::mutex> Lk(ConnMu);
    addTo(Totals, C->snapshot());
    Conns.erase(C->Id);
    HandlersDone.notify_all();
  }
}

//===----------------------------------------------------------------------===//
// Stats
//===----------------------------------------------------------------------===//

ServerStats FrameServer::stats() const {
  std::lock_guard<std::mutex> Lk(ConnMu);
  ServerStats S = Totals;
  S.OpenConnections = Conns.size();
  for (const auto &[Id, C] : Conns)
    addTo(S, C->snapshot());
  return S;
}

std::vector<ConnectionStats> FrameServer::connectionStats() const {
  std::lock_guard<std::mutex> Lk(ConnMu);
  std::vector<ConnectionStats> Out;
  Out.reserve(Conns.size());
  for (const auto &[Id, C] : Conns)
    Out.push_back(C->snapshot());
  return Out;
}
