//===- perfbench/trace.h - Spans at layer boundaries ------------*- C++ -*-===//
//
// Part of the ccomp project (PLDI'97 "Code Compression" reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The traced run's instrumentation, recorded from the benchmark's own
/// code around calls into each module's public functions: a span per
/// call (name, start, end, parent, op id), kept in per-thread memory and
/// written out when the run ends. A layer's self time is its span minus
/// the part its child spans cover; the recorder accumulates both as
/// spans close, so nothing has to be rebuilt from the log.
///
/// Two forwarding wrappers put spans on the paths the library drives
/// itself: TimedResolver sits between vm::Machine and a store resolver,
/// TimedFrameSource between a CodeStore and its frame source. Untraced
/// ops do not install them at all.
///
//===----------------------------------------------------------------------===//

#ifndef CCOMP_PERFBENCH_TRACE_H
#define CCOMP_PERFBENCH_TRACE_H

#include "store/FrameSource.h"
#include "vm/Machine.h"

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace ccomp {
namespace perfbench {

/// Span names: one per wrapped entry point.
enum class Span : uint8_t {
  Op,            ///< One benchmark op (root).
  BriscCompress, ///< brisc::compress
  WireCompress,  ///< wire::compress
  StoreBuild,    ///< store::CodeStore::build
  StoreSave,     ///< store::CodeStore::save
  StoreLoad,     ///< CodeStore::tryLoad / tryFromSource
  VmRun,         ///< vm::Machine::run
  Resolve,       ///< FunctionResolver::resolve / resolveSpan
  Native,        ///< FunctionResolver::enterNative
  Connect,       ///< net::SocketFrameSource::connect
  Fetch,         ///< FrameSource::fetchFrame
  Manifest,      ///< FrameSource::fetchManifest
  Count
};
constexpr size_t NumSpans = static_cast<size_t>(Span::Count);
const char *spanName(Span S);

/// Totals of one span name across threads.
struct SpanTotals {
  uint64_t Count = 0;
  uint64_t TotalNs = 0;
  uint64_t SelfNs = 0;
  std::vector<double> DurationsUs; ///< Resolve and Fetch only.
};

/// Span recorder. Recording is switched per thread, so each client of a
/// closed loop can trace some of its ops and not others; disabled, a scope
/// costs one thread-local load.
class Tracer {
public:
  /// Switches recording on or off for the calling thread.
  static void setEnabled(bool Enable) { On = Enable; }
  static bool enabled() { return On; }
  /// Attributes this thread's following spans to op \p Id.
  static void setOp(uint64_t Id);
  /// Merges every thread's totals recorded so far.
  static std::array<SpanTotals, NumSpans> totals();
  /// Writes the kept span records as CSV; returns records written.
  static size_t writeSpans(const std::string &Path);
  /// Span records kept in memory per run (the totals cover all spans).
  static constexpr size_t MaxRecords = 200000;

  /// RAII span: opens on construction, closes on destruction.
  class Scope {
  public:
    explicit Scope(Span S) {
      if (enabled())
        open(S);
    }
    ~Scope() {
      if (Active)
        close();
    }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    void open(Span S);
    void close();
    bool Active = false;
  };

private:
  static inline thread_local bool On = false;
};

/// Forwards a resolver and puts a span around each call into it.
class TimedResolver final : public vm::FunctionResolver {
public:
  explicit TimedResolver(vm::FunctionResolver &Inner) : Inner(Inner) {}
  uint32_t functionCount() const override { return Inner.functionCount(); }
  std::shared_ptr<const vm::VMFunction> resolve(uint32_t Fn,
                                                std::string &Err) override {
    Tracer::Scope S(Span::Resolve);
    return Inner.resolve(Fn, Err);
  }
  bool resolveSpan(uint32_t Fn, uint32_t Idx, vm::CodeSpan &Out,
                   std::string &Err) override {
    Tracer::Scope S(Span::Resolve);
    return Inner.resolveSpan(Fn, Idx, Out, Err);
  }
  bool enterNative(vm::Machine &M, uint32_t &Fn, uint32_t &Idx,
                   uint64_t &Steps) override {
    Tracer::Scope S(Span::Native);
    return Inner.enterNative(M, Fn, Idx, Steps);
  }

private:
  vm::FunctionResolver &Inner;
};

/// Forwards a frame source (hash, prefetch hints and all, so behavior is
/// unchanged) and puts a span around each fetch.
class TimedFrameSource final : public store::FrameSource {
public:
  explicit TimedFrameSource(std::unique_ptr<store::FrameSource> Wrapped)
      : Inner(std::move(Wrapped)) {}
  const char *kind() const override { return Inner->kind(); }
  const std::string &chainSpec() const override { return Inner->chainSpec(); }
  uint32_t functionFrameCount() const override {
    return Inner->functionFrameCount();
  }
  size_t frameBytes() const override { return Inner->frameBytes(); }
  bool contentHash(uint64_t &H) override { return Inner->contentHash(H); }
  void prefetchHint(const std::vector<uint32_t> &Ids) override {
    Inner->prefetchHint(Ids);
  }
  store::FetchResult fetchFrame(uint32_t Id) override {
    Tracer::Scope S(Span::Fetch);
    return Inner->fetchFrame(Id);
  }
  store::FetchResult fetchManifest() override {
    Tracer::Scope S(Span::Manifest);
    return Inner->fetchManifest();
  }

private:
  std::unique_ptr<store::FrameSource> Inner;
};

} // namespace perfbench
} // namespace ccomp

#endif // CCOMP_PERFBENCH_TRACE_H
