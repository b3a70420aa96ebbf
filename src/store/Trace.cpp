//===- store/Trace.cpp - Execution-trace recording run mode ---------------===//
//
// Part of the ccomp project (PLDI'97 "Code Compression" reproduction).
//
//===----------------------------------------------------------------------===//

#include "store/Trace.h"

#include <algorithm>

using namespace ccomp;
using namespace ccomp::store;

namespace {

/// Serves the eager program one basic block at a time, so every control
/// transfer that leaves the current block re-resolves — the fault
/// sequence a block-granular store would see — and appends one
/// TraceEvent per resolve. Spans alias the program's storage, which
/// outlives the run.
class BlockRecorder final : public vm::FunctionResolver {
public:
  BlockRecorder(const vm::VMProgram &P, pipeline::ExecutionTrace &Out,
                size_t MaxEvents)
      : Prog(P), Trace(Out), MaxEvents(MaxEvents) {
    Cuts.reserve(P.Functions.size());
    for (const vm::VMFunction &F : P.Functions)
      Cuts.push_back(vm::blockCuts(F.LabelPos, F.Code.size()));
    Trace.FuncCount = functionCount();
  }

  uint32_t functionCount() const override {
    return static_cast<uint32_t>(Prog.Functions.size());
  }

  std::shared_ptr<const vm::VMFunction> resolve(uint32_t Fn,
                                                std::string &Err) override {
    if (Fn >= Prog.Functions.size()) {
      Err = "function index out of range";
      return nullptr;
    }
    // Non-owning alias: the program outlives the run.
    return std::shared_ptr<const vm::VMFunction>(
        std::shared_ptr<const vm::VMFunction>(), &Prog.Functions[Fn]);
  }

  bool resolveSpan(uint32_t Fn, uint32_t Idx, vm::CodeSpan &Out,
                   std::string &Err) override {
    if (Fn >= Prog.Functions.size()) {
      Err = "function index out of range";
      return false;
    }
    if (Trace.Events.size() < MaxEvents)
      Trace.Events.push_back(pipeline::TraceEvent{Fn, Idx});
    else
      Trace.Truncated = true;
    const vm::VMFunction &F = Prog.Functions[Fn];
    uint32_t Len = static_cast<uint32_t>(F.Code.size());
    if (Len == 0) {
      Out = vm::CodeSpan{};
      Out.Labels = &F.LabelPos;
      Out.Name = &F.Name;
      return true;
    }
    // Clamp like a paged resolver: an Idx at/past the end serves the
    // last block and the interpreter traps on Pc >= FuncLen itself.
    const std::vector<uint32_t> &C = Cuts[Fn];
    uint32_t I = Idx < Len ? Idx : Len - 1;
    uint32_t Block = static_cast<uint32_t>(
        std::upper_bound(C.begin(), C.end(), I) - C.begin() - 1);
    Out.Keep.reset();
    Out.Code = F.Code.data() + C[Block];
    Out.Begin = C[Block];
    Out.End = C[Block + 1];
    Out.FuncLen = Len;
    Out.Labels = &F.LabelPos;
    Out.Name = &F.Name;
    return true;
  }

private:
  const vm::VMProgram &Prog;
  std::vector<std::vector<uint32_t>> Cuts; ///< Per-function block cuts.
  pipeline::ExecutionTrace &Trace;
  size_t MaxEvents;
};

} // namespace

TraceRunResult store::recordTrace(const vm::VMProgram &P, vm::RunOptions Opts,
                                  size_t MaxEvents) {
  TraceRunResult R;
  BlockRecorder Recorder(P, R.Trace, MaxEvents);
  Opts.Resolver = &Recorder;
  vm::Machine M(P, Opts);
  R.Run = M.run();
  return R;
}
