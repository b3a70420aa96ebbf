//===- store/Trace.h - Execution-trace recording run mode -------*- C++ -*-===//
//
// Part of the ccomp project (PLDI'97 "Code Compression" reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The trace-recording run mode: run a program once under a
/// block-granular resolver, record every span resolve the interpreter
/// makes as a (function, instruction-index) event, and hand the result
/// to the build path (StoreOptions::Profile) or to
/// CodeStore::applyAccessProfile. Because events name instruction
/// indices — not pages — a trace recorded once drives any page target
/// and any repack of the same program.
///
//===----------------------------------------------------------------------===//

#ifndef CCOMP_STORE_TRACE_H
#define CCOMP_STORE_TRACE_H

#include "pipeline/Profile.h"
#include "vm/Machine.h"

namespace ccomp {
namespace store {

/// Default event cap for a recording run; past it the recorder keeps
/// running but drops events and marks the trace truncated.
constexpr size_t DefaultMaxTraceEvents = 1u << 20;

/// A profiling run's outcome: the ordinary run result plus the trace.
struct TraceRunResult {
  vm::RunResult Run;
  pipeline::ExecutionTrace Trace;
};

/// Runs \p P under a block-granular recording resolver: every span
/// resolve the interpreter makes is one basic block (vm::blockCuts) of
/// the eager program, so the recorded events are the block-entry
/// sequence of the run, deterministic for a deterministic program. The
/// native tier is never entered: a profiling run must observe every
/// interpreter transfer. Opts.Resolver is overwritten.
TraceRunResult recordTrace(const vm::VMProgram &P,
                           vm::RunOptions Opts = vm::RunOptions(),
                           size_t MaxEvents = DefaultMaxTraceEvents);

} // namespace store
} // namespace ccomp

#endif // CCOMP_STORE_TRACE_H
