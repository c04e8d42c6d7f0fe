//===- harness/Experiment.cpp ---------------------------------------------===//

#include "harness/Experiment.h"

#include "bytecode/Verifier.h"
#include "support/ArgParse.h"
#include "support/Json.h"
#include "support/Timer.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>

using namespace jtc;

const std::vector<double> &jtc::standardThresholds() {
  static const std::vector<double> Ts = {1.00, 0.99, 0.98, 0.97, 0.95};
  return Ts;
}

const std::vector<uint32_t> &jtc::standardDelays() {
  static const std::vector<uint32_t> Ds = {1, 64, 4096};
  return Ds;
}

VmStats jtc::runWorkload(const WorkloadInfo &W, const VmOptions &Options,
                         uint32_t ScaleOverride) {
  uint32_t Scale = ScaleOverride ? ScaleOverride : W.DefaultScale;
  Module M = W.Build(Scale);
  std::vector<VerifyError> Errors = verifyModule(M);
  if (!Errors.empty()) {
    std::fprintf(stderr, "workload '%s' failed verification:\n%s", W.Name,
                 formatErrors(Errors).c_str());
    std::abort();
  }
  PreparedModule PM(M);
  TraceVM VM(PM, Options);
  RunResult R = VM.run();
  if (R.Status == RunStatus::Trapped) {
    std::fprintf(stderr, "workload '%s' trapped: %s\n", W.Name,
                 trapName(R.Trap));
    std::abort();
  }
  return VM.stats();
}

/// Times one TraceVM session of \p PM under \p Options. A session that
/// does not finish aborts the experiment, like runWorkload: timing a run
/// that trapped or stopped early would compare different work.
static double timeSession(const WorkloadInfo &W, const PreparedModule &PM,
                          const VmOptions &Options, VmStats &Stats) {
  TraceVM VM(PM, Options);
  Timer T;
  RunResult R = VM.run();
  double Sec = T.seconds();
  if (R.Status != RunStatus::Finished) {
    std::fprintf(stderr, "workload '%s' did not finish: %s\n", W.Name,
                 R.Status == RunStatus::Trapped ? trapName(R.Trap)
                                                : "instruction budget");
    std::abort();
  }
  Stats = VM.stats();
  return Sec;
}

OverheadSample jtc::measureProfilerOverhead(const WorkloadInfo &W,
                                            uint32_t ScaleOverride,
                                            int Repeats) {
  uint32_t Scale = ScaleOverride ? ScaleOverride : W.DefaultScale;
  Module M = W.Build(Scale);
  PreparedModule PM(M);

  OverheadSample S;
  S.PlainSeconds = 1e100;
  S.ProfiledSeconds = 1e100;

  // Both sides are the serving engine with trace dispatch off, so every
  // block goes through the same TraceVM dispatch loop. The profiled side
  // runs the branch correlation graph hook at every block dispatch, with
  // no trace cache attached -- the paper's "we modified SableVM to
  // include the profiler code at the end of each basic block".
  const VmOptions Plain = VmOptions().profiling(false).traces(false);
  const VmOptions Profiled = VmOptions().traces(false);
  for (int Rep = 0; Rep < Repeats; ++Rep) {
    VmStats PlainStats, ProfiledStats;
    S.PlainSeconds =
        std::min(S.PlainSeconds, timeSession(W, PM, Plain, PlainStats));
    S.ProfiledSeconds = std::min(
        S.ProfiledSeconds, timeSession(W, PM, Profiled, ProfiledStats));
    // The subtraction is only meaningful over identical work.
    if (PlainStats.Instructions != ProfiledStats.Instructions ||
        PlainStats.BlockDispatches != ProfiledStats.BlockDispatches) {
      std::fprintf(stderr,
                   "workload '%s': plain and profiled sessions differ "
                   "(%llu vs %llu instructions, %llu vs %llu dispatches)\n",
                   W.Name,
                   static_cast<unsigned long long>(PlainStats.Instructions),
                   static_cast<unsigned long long>(ProfiledStats.Instructions),
                   static_cast<unsigned long long>(PlainStats.BlockDispatches),
                   static_cast<unsigned long long>(
                       ProfiledStats.BlockDispatches));
      std::abort();
    }
    S.Dispatches = PlainStats.BlockDispatches;
    S.Instructions = PlainStats.Instructions;
  }
  return S;
}

void jtc::writeBenchJson(std::ostream &OS, const std::string &Table,
                         const std::vector<BenchRecord> &Records) {
  JsonWriter W(OS);
  W.beginObject();
  W.field("table", Table);
  W.key("records").beginArray();
  for (const BenchRecord &R : Records) {
    W.beginObject();
    W.field("workload", R.Workload);
    if (R.Threshold > 0)
      W.fieldReal("threshold", R.Threshold);
    if (R.Delay > 0)
      W.fieldUInt("delay", R.Delay);
    if (R.HasStats) {
      W.key("stats").beginObject();
      R.Stats.writeJsonFields(W);
      W.endObject();
    }
    if (R.HasOverhead) {
      W.key("overhead")
          .beginObject()
          .fieldReal("plain_seconds", R.Overhead.PlainSeconds)
          .fieldReal("profiled_seconds", R.Overhead.ProfiledSeconds)
          .fieldUInt("dispatches", R.Overhead.Dispatches)
          .fieldUInt("instructions", R.Overhead.Instructions)
          .fieldReal("overhead_per_million_dispatches",
                     R.Overhead.overheadPerMillionDispatches())
          .endObject();
    }
    W.endObject();
  }
  W.endArray();
  W.endObject();
  OS << "\n";
}

std::string jtc::parseBenchJsonArg(int Argc, char **Argv, const char *Tool) {
  std::string Path;
  ArgParser P;
  P.strOpt("json", &Path);
  if (!P.parse(Argc, Argv)) {
    std::fprintf(stderr, "usage: %s [--json=<file>]\n", Tool);
    std::exit(2);
  }
  return Path;
}

void jtc::maybeWriteBenchJson(const std::string &Path, const std::string &Table,
                              const std::vector<BenchRecord> &Records) {
  if (Path.empty())
    return;
  std::ofstream OS(Path);
  if (!OS) {
    std::fprintf(stderr, "cannot open '%s' for writing\n", Path.c_str());
    std::exit(1);
  }
  writeBenchJson(OS, Table, Records);
  std::fprintf(stderr, "wrote %zu records to %s\n", Records.size(),
               Path.c_str());
}
