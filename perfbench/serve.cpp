//===- perfbench/serve.cpp - The `serve` workload --------------------------===//
//
// Part of the ccomp project (PLDI'97 "Code Compression" reproduction).
//
//===----------------------------------------------------------------------===//
//
// Delivery over the network. Set-up starts one net::FrameServer on
// loopback serving the whole-function brisc+flate image of the
// 96-function harness::syntheticSource program (the E10 program; it is
// not seeded, see README.md), then warms the process up with a burst of
// sessions. Client threads run a closed loop; one op is one session:
// connect (with handshake), CodeStore::tryFromSource with real-time
// retry and the default 1 MiB budget, a demand-fault-only run, close.
//
//===----------------------------------------------------------------------===//

#include "bench.h"
#include "trace.h"

#include "CorpusUtil.h"
#include "net/FrameServer.h"
#include "net/SocketFrameSource.h"
#include "store/CodeStore.h"
#include "store/Resolver.h"

using namespace ccomp;
using namespace ccomp::perfbench;

namespace {

constexpr unsigned ServeFunctions = 96;
constexpr uint64_t WarmupSessions = 400;

/// Per-session client counters, summed over a region.
struct SessionCounts {
  std::mutex Mu;
  StoreCounts Store;
  uint64_t RoundTrips = 0, BytesReceived = 0;
};

} // namespace

Outcome perfbench::runServe(const Config &C) {
  Outcome Out;
  vm::VMProgram P;
  Reference Ref;
  std::unique_ptr<net::FrameServer> Server;
  SessionCounts Counts;
  ExactCheck Exact;

  auto Op = [&](unsigned, uint64_t) {
    net::SocketOptions SO;
    SO.Port = Server->port();
    Result<std::unique_ptr<net::SocketFrameSource>> Src = [&] {
      Tracer::Scope Sp(Span::Connect);
      return net::SocketFrameSource::connect(SO);
    }();
    if (!Src.ok())
      return OpStatus::Failed;
    net::SocketFrameSource *Sock = Src.value().get();
    std::unique_ptr<store::FrameSource> Source = Src.take();
    if (Tracer::enabled())
      Source = std::make_unique<TimedFrameSource>(std::move(Source));
    store::StoreOptions StO;
    StO.Retry.RealTime = true;
    Result<std::unique_ptr<store::CodeStore>> St = [&] {
      Tracer::Scope Sp(Span::StoreLoad);
      return store::CodeStore::tryFromSource(std::move(Source), StO);
    }();
    if (!St.ok())
      return OpStatus::Failed;
    store::CodeStore &S = *St.value();
    store::StoreBackedResolver Rv(S);
    TimedResolver Timed(Rv);
    vm::RunOptions RO;
    RO.Resolver = Tracer::enabled() ? static_cast<vm::FunctionResolver *>(&Timed)
                                    : &Rv;
    vm::Machine M(S.skeleton(), RO);
    vm::RunResult R = [&] {
      Tracer::Scope Sp(Span::VmRun);
      return M.run();
    }();
    StoreCounts SC = StoreCounts::of(S.stats());
    net::ClientStats CS = Sock->stats();
    {
      std::lock_guard<std::mutex> L(Counts.Mu);
      Counts.Store += SC;
      Counts.RoundTrips += CS.RoundTrips;
      Counts.BytesReceived += CS.BytesReceived;
    }
    std::vector<uint64_t> Tuple = SC.exact();
    Tuple.insert(Tuple.end(), {CS.RoundTrips, CS.BytesReceived, R.Steps});
    if (!R.Ok)
      return OpStatus::Failed;
    Exact.see(Tuple);
    return matches(R, Ref) ? OpStatus::Ok : OpStatus::Mismatch;
  };

  store::StoreOptions BuildOpts;
  BuildOpts.BuildJobs = C.Jobs;
  std::vector<double> BuildRates;
  timeSetup(
      [&] {
        if (Server)
          Server->stop();
        Server.reset();
        P = harness::mustBuild(harness::syntheticSource(ServeFunctions));
        Ref = eagerReference(P);
        std::vector<uint8_t> Image =
            setupImage(P, "brisc+flate", BuildOpts, BuildRates);
        Out.set("compressed_ratio",
                double(Image.size()) / double(fixedWidthBytes(P)));
        Result<std::unique_ptr<store::LocalFrameSource>> Src =
            store::LocalFrameSource::fromContainerBytes(Image);
        if (!Src.ok())
          reportFatal("serve: container: " + Src.error().message());
        Result<std::unique_ptr<net::FrameServer>> Srv =
            net::FrameServer::start(Src.take(), net::ServerOptions());
        if (!Srv.ok())
          reportFatal("serve: server start: " + Srv.error().message());
        Server = Srv.take();
        // Warm-up: the first sessions in a process run markedly slower.
        LoopOptions Warm;
        Warm.Threads = C.Jobs;
        Warm.Seconds = 60;
        Warm.MaxOps = WarmupSessions;
        LoopResult W = closedLoop(Warm, Op);
        if (W.Failed)
          reportFatal("serve: " + std::to_string(W.Failed) +
                      " warm-up session(s) failed");
      },
      Out);

  LoopOptions LO;
  LO.Threads = C.Jobs;
  LO.Seconds = C.Seconds;
  if (!C.Trace) {
    reportOps(closedLoop(LO, Op), Out);
  } else {
    {
      std::lock_guard<std::mutex> L(Counts.Mu);
      Counts.Store = StoreCounts();
      Counts.RoundTrips = Counts.BytesReceived = 0;
    }
    net::ServerStats Srv0 = Server->stats();
    CodecSnapshot Before = snapshotCodecs();
    TracedLoop T = tracedLoop(LO, Op, Out);
    CodecSnapshot After = snapshotCodecs();
    net::ServerStats Srv1 = Server->stats();
    double Ops = T.ops();
    reportCodecs(Before, After, Ops, Out);
    reportSpans(double(T.Traced.Attempted), Out);
    reportStore(Counts.Store, Ops, Out);
    Out.set("vm.steps", double(Ref.Steps));
    Out.set("net.round_trips", double(Counts.RoundTrips) / Ops);
    Out.set("net.bytes_received", double(Counts.BytesReceived) / Ops);
    Out.set("net.server_requests", double(Srv1.Requests - Srv0.Requests) / Ops);
    Out.ExactNames = {"net.round_trips", "net.bytes_received", "store.misses",
                      "store.decodes", "vm.steps"};
  }
  Out.set("net.server_conn_records", double(Server->connectionStats().size()));
  Server->stop();
  reportCompressRate(
      BuildRates, 1, [&](unsigned) { return P; }, "brisc+flate", BuildOpts, Out);
  if (Exact.differs())
    Out.problem("store, transport or step counts differ between sessions");
  return Out;
}
