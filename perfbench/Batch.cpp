//===- perfbench/Batch.cpp - The loops and branchy workloads --------------===//
///
/// Sequential in-process TraceVM sessions at registry default scale with
/// --backend=jit and every other option at its default, in a seeded
/// order, one round of every program after another until the run's time
/// is up. Every session's output and heap digests are checked against
/// the reference interpreter.
///
//===----------------------------------------------------------------------===//

#include "Layers.h"

#include <fstream>
#include <iostream>

using namespace jtc;

namespace perfbench {

namespace {

std::vector<ProgramSpec> batchPrograms(const std::string &Workload) {
  std::vector<const char *> Names;
  if (Workload == "loops")
    Names = {"compress", "raytrace", "mpegaudio", "scimark"};
  else
    Names = {"javac", "soot"};
  std::vector<ProgramSpec> Specs;
  for (const char *N : Names) {
    const WorkloadInfo *W = findWorkload(N);
    Specs.push_back({W, W->DefaultScale});
  }
  return Specs;
}

/// Share of each round's session time spent re-timing set-up.
constexpr double SetupShare = 0.05;

} // namespace

bool runBatch(const RunConfig &C, RunOutput &Out) {
  std::vector<ProgramSpec> Specs = batchPrograms(C.Workload);
  std::vector<Reference> Refs;
  std::string Err;
  if (!computeReferences(Specs, Refs, Err)) {
    std::cerr << "perfbench: " << Err << "\n";
    return false;
  }
  if (C.InjectMismatch)
    Refs[0].OutputDigest ^= 1;

  VmOptions Base = VmOptions().backend(backend::BackendKind::Jit);
  Out.Notes.push_back("vm options: " + describeOptions(Base));
  for (const ProgramSpec &S : Specs)
    Out.Notes.push_back("program " + S.name() + " scale " +
                        std::to_string(S.Scale));

  SpanLog Spans(C.Trace);
  uint32_t Root = Spans.open("run." + C.Workload);
  Prng Order(C.Seed);

  // The first set-up makes the programs the sessions run. The traced run
  // repeats it up front for the per-layer medians; the untraced run
  // repeats it between rounds of sessions (below).
  std::vector<double> SetupS;
  std::vector<Prepared> Programs = preparePrograms(Specs, Refs);
  {
    SpanScope S(Spans, "setup", Root);
    for (unsigned R = 0; R < (C.Trace ? SetupRounds : 1); ++R)
      SetupS.push_back(setupRound(Programs));
  }

  if (C.Trace) {
    runLayerDrivers(Programs, Base, C.Seconds, Order, Spans, Root, Out);
  } else {
    // Each session is timed between two runs of the calibration kernel
    // and scaled by the host's speed at that moment, so that outside load
    // on the host cancels out of session_s (see calibrationSeconds).
    std::vector<std::vector<double>> Times(Programs.size()),
        Scaled(Programs.size());
    std::vector<double> Slowdown;
    double Instructions = 0, SessionSeconds = 0;
    Clock::time_point T0 = Clock::now();
    // Whole rounds only, so every program is weighted the same in the
    // throughput whatever the machine's speed.
    do {
      Clock::time_point R0 = Clock::now();
      for (size_t PI : seededOrder(Programs.size(), Order)) {
        const Prepared &P = Programs[PI];
        double Before = calibrationSeconds();
        Session S = runSession(P, Base);
        double Kernel = (Before + calibrationSeconds()) / 2;
        countSession(S, P, "measured", Out);
        Times[PI].push_back(S.Seconds);
        Scaled[PI].push_back(S.Seconds * CalibrationRefS / Kernel);
        Slowdown.push_back(Kernel / CalibrationRefS);
        Instructions += static_cast<double>(S.Run.Instructions);
        SessionSeconds += S.Seconds;
      }
      // Set up again for a fixed share of the round's time, so that the
      // set-up samples come from the whole run and not only from the
      // moment before the first session.
      double Budget = SetupShare * secondsSince(R0);
      Clock::time_point S0 = Clock::now();
      do
        SetupS.push_back(setupRound(Programs));
      while (secondsSince(S0) < Budget);
    } while (secondsSince(T0) < C.Seconds);

    std::vector<double> PerProgram;
    for (size_t PI = 0; PI < Programs.size(); ++PI) {
      const std::vector<double> &T = Times[PI];
      PerProgram.push_back(median(Scaled[PI]));
      Out.detail("session_s." + Programs[PI].Spec.name(), PerProgram.back(),
                 "s",
                 "median scaled to the reference host speed; wall time: "
                 "fastest " +
                     std::to_string(fastest(T)) + " s, median " +
                     std::to_string(median(T)) + " s, " +
                     describeTail(T, 1, "s"));
    }
    Out.metric("setup_s", fastest(SetupS), "s",
               "fastest of " + std::to_string(SetupS.size()) +
                   " builds of every module and PreparedModule; median " +
                   std::to_string(median(SetupS)) + " s");
    Out.metric("session_s", geomean(PerProgram), "s",
               "geometric mean over programs of the median session, scaled "
               "to the reference host speed");
    Out.metric("peak_rss_mb", selfPeakRssMb(), "MB");
    Out.detail("host_slowdown", median(Slowdown), "x",
               "calibration kernel time over its quiet-host time, median "
               "over sessions; highest " +
                   std::to_string(quantile(Slowdown, 1)));
    Out.detail("throughput_minstr_s", Instructions / SessionSeconds / 1e6,
               "Minstr/s", "bytecode instructions per session second");
  }
  Spans.close(Root);

  if (C.Trace && !C.SpansPath.empty()) {
    std::ofstream OS(C.SpansPath);
    Spans.write(OS);
    Out.Notes.push_back("spans written to " + C.SpansPath);
  }
  return true;
}

} // namespace perfbench
