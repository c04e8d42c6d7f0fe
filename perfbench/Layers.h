//===- perfbench/Layers.h - Sessions and outside-in layer drivers -*- C++ -*-=//
///
/// \file
/// Program set-up, checked sessions, and the traced run's per-layer
/// drivers. Every layer is timed from outside, around calls to its public
/// functions: TraceVM sessions with profiling or traces switched off, a
/// BtraceEncoder sink replayed with btrace::replayBtrace, the optimizer,
/// validator, alias analysis and IR lowering over every trace a session
/// built, and the persist snapshot / seed API.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_LAYERS_H
#define PERFBENCH_LAYERS_H

#include "Bench.h"

#include "bytecode/Program.h"
#include "interp/PreparedModule.h"
#include "vm/TraceVM.h"

#include <memory>

namespace perfbench {

/// One program built and prepared for sessions.
struct Prepared {
  ProgramSpec Spec;
  Reference Ref;
  std::unique_ptr<jtc::Module> M;
  std::unique_ptr<jtc::PreparedModule> PM;
  std::vector<double> BuildS;   ///< One sample per set-up round.
  std::vector<double> PrepareS;
};

/// Set-up rounds the traced run times up front, for the per-layer build
/// and prepare medians.
inline constexpr unsigned SetupRounds = 21;

/// The programs with their references, not yet built.
std::vector<Prepared> preparePrograms(const std::vector<ProgramSpec> &Specs,
                                      const std::vector<Reference> &Refs);

/// One set-up round: builds and prepares every program, replacing the
/// previous round's copy and appending to its BuildS / PrepareS. Returns
/// the round's total seconds. No session may be running.
double setupRound(std::vector<Prepared> &Programs);

/// One finished session.
struct Session {
  bool Ok = false; ///< Finished, and output + heap digests match the reference.
  double Seconds = 0; ///< Construction + run wall time.
  jtc::RunResult Run;
  jtc::VmStats Stats;
  std::string Failure;
  std::unique_ptr<jtc::TraceVM> VM; ///< Kept only when asked for.
};

/// Runs one session of \p P under \p O and checks it against the
/// reference. \p Sink observes the transition stream when non-null.
Session runSession(const Prepared &P, const jtc::VmOptions &O,
                   bool KeepVm = false,
                   jtc::BlockTransitionSink *Sink = nullptr);

/// Counts one session into \p Out's attempted / failed totals, printing
/// the failure.
void countSession(const Session &S, const Prepared &P, const char *What,
                  RunOutput &Out);

/// The traced run's per-layer drivers over a program set: sessions with
/// profiling and traces toggled (rounds until \p Seconds pass, at least
/// three), a captured session replayed through the adaptive half, the
/// trace-level passes, the other backend, and the persist round trip.
/// Adds every per-layer metric to \p Out.Metrics and the per-program
/// breakdown to the report. \p Base is the workload's session options.
void runLayerDrivers(std::vector<Prepared> &Programs,
                     const jtc::VmOptions &Base, double Seconds,
                     jtc::Prng &Order, SpanLog &Spans, uint32_t Parent,
                     RunOutput &Out);

} // namespace perfbench

#endif // PERFBENCH_LAYERS_H
