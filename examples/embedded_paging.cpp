//===- examples/embedded_paging.cpp - Memory-constrained execution -------------===//
//
// Part of the ccomp project (PLDI'97 "Code Compression" reproduction).
//
//===----------------------------------------------------------------------===//
//
// Plays out the introduction's memory scenario: a device with a small
// resident code budget runs an application either as native code (more
// pages, paged from slow storage) or as BRISC interpreted in place
// (denser pages plus a resident dictionary). Prints the total-time
// comparison across resident budgets — the embedded-systems use the
// paper mentions ("compress programs to fit within the memory
// requirements of embedded systems").
//
//   $ ./embedded_paging [resident-pages]
//
//===----------------------------------------------------------------------===//

#include "brisc/Brisc.h"
#include "brisc/Interp.h"
#include "corpus/Corpus.h"
#include "codegen/Codegen.h"
#include "minic/Compile.h"
#include "native/Threaded.h"
#include "sim/Paging.h"
#include "vm/Encode.h"

#include <chrono>
#include <cstdio>
#include <cstdlib>

using namespace ccomp;

int main(int argc, char **argv) {
  unsigned Budget = argc > 1 ? unsigned(std::atoi(argv[1])) : 0;

  std::printf("building the application (wep size class)...\n");
  std::string Src = corpus::sizeClassSource("wep");
  minic::CompileResult CR = minic::compile(Src);
  if (!CR.ok()) {
    std::printf("compile error: %s\n", CR.Error.c_str());
    return 1;
  }
  codegen::Result CG = codegen::generate(*CR.M);

  const uint32_t PageSize = 512;
  vm::CodeLayout Layout = vm::compactLayout(CG.P);
  vm::RunOptions NOpts;
  NOpts.Layout = &Layout;
  NOpts.PageSize = PageSize;
  vm::RunResult NR = vm::runProgram(CG.P, NOpts);

  // The device loads the compressed image from storage: serialize, then
  // parse it back recoverably, as firmware reading flash must (a corrupt
  // image should degrade gracefully, not crash the device).
  std::vector<uint8_t> Image = brisc::compress(CG.P).serialize(true);
  Result<brisc::BriscProgram> Loaded = brisc::BriscProgram::parse(Image);
  if (!Loaded.ok()) {
    std::printf("BRISC image parse failed: %s\n",
                Loaded.error().message().c_str());
    return 1;
  }
  brisc::BriscProgram B = Loaded.take();
  vm::RunOptions BOpts;
  BOpts.PageSize = PageSize;
  vm::RunResult BR = brisc::interpret(B, BOpts);
  if (!NR.Ok || !BR.Ok) {
    std::printf("run failed\n");
    return 1;
  }

  std::printf("code image: native %u B (%llu pages touched), BRISC %zu B "
              "(%llu pages incl. dictionary)\n",
              Layout.TotalBytes, (unsigned long long)NR.PagesTouched,
              B.codeSegmentBytes(), (unsigned long long)BR.PagesTouched);

  // Measured CPU times.
  native::NProgram N = native::generate(CG.P);
  auto T0 = std::chrono::steady_clock::now();
  native::run(N);
  auto T1 = std::chrono::steady_clock::now();
  brisc::interpret(B);
  auto T2 = std::chrono::steady_clock::now();
  double NativeCpu = std::chrono::duration<double>(T1 - T0).count();
  double InterpCpu = std::chrono::duration<double>(T2 - T1).count();

  sim::DiskModel Disk;
  std::printf("\nresident budget sweep (page %u B, fault %.0f ms, "
              "interp/native CPU %.1fx):\n",
              PageSize, Disk.FaultSeconds * 1e3, InterpCpu / NativeCpu);
  std::printf("%10s %14s %14s %10s\n", "pages", "native total s",
              "BRISC total s", "winner");
  for (unsigned R : {4u, 8u, 16u, 32u, 64u, 128u}) {
    if (Budget && R != Budget)
      continue;
    sim::PagingResult PN = sim::simulateLRU(NR.PageTrace, R);
    sim::PagingResult PB = sim::simulateLRU(BR.PageTrace, R);
    double TN = sim::totalTime({NativeCpu, PN.Faults}, Disk).total();
    double TB = sim::totalTime({InterpCpu, PB.Faults}, Disk).total();
    std::printf("%10u %14.3f %14.3f %10s\n", R, TN, TB,
                TB < TN ? "BRISC" : "native");
  }
  return 0;
}
