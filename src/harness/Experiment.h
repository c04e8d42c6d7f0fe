//===- harness/Experiment.h - Experiment harness ----------------*- C++ -*-===//
///
/// \file
/// Shared machinery for the benchmark binaries that regenerate the
/// paper's tables: building/verifying/preparing a workload, running it
/// under a TraceVM configuration, the standard parameter sweeps of
/// section 5.2, and the wall-clock profiler-overhead measurement of
/// Tables VI and VII.
///
//===----------------------------------------------------------------------===//

#ifndef JTC_HARNESS_EXPERIMENT_H
#define JTC_HARNESS_EXPERIMENT_H

#include "vm/TraceVM.h"
#include "workloads/Workloads.h"

#include <iosfwd>
#include <string>
#include <vector>

namespace jtc {

/// Thresholds of Tables I-IV, in the paper's row order.
const std::vector<double> &standardThresholds();

/// Start-state delays of Table V.
const std::vector<uint32_t> &standardDelays();

/// Builds \p W (verifying the module -- aborts on verifier errors, which
/// would be a workload-generator bug), prepares it, runs it under
/// \p Options, and returns the collected statistics. \p ScaleOverride of
/// 0 uses the workload's default scale.
VmStats runWorkload(const WorkloadInfo &W, const VmOptions &Options,
                    uint32_t ScaleOverride = 0);

/// One wall-clock overhead measurement (Table VI): TraceVM sessions with
/// trace dispatch off, timed with and without the profiler hook.
struct OverheadSample {
  double PlainSeconds = 0;    ///< profiling(false).traces(false) session.
  double ProfiledSeconds = 0; ///< traces(false): profiler hook per dispatch.
  uint64_t Dispatches = 0;    ///< Block dispatches per run.
  uint64_t Instructions = 0;

  /// Seconds of profiling overhead per million block dispatches.
  double overheadPerMillionDispatches() const {
    return Dispatches == 0 ? 0.0
                           : (ProfiledSeconds - PlainSeconds) /
                                 (static_cast<double>(Dispatches) / 1e6);
  }
};

/// Times \p Repeats sessions of each flavour over \p W (taking the
/// fastest run of each to suppress scheduling noise). Aborts unless both
/// flavours finish with the same instruction and block-dispatch counts.
/// \p ScaleOverride of 0 uses the workload default.
OverheadSample measureProfilerOverhead(const WorkloadInfo &W,
                                       uint32_t ScaleOverride = 0,
                                       int Repeats = 3);

/// One measured cell of a table experiment: a workload run at a
/// particular parameter point, carrying the full statistics block and/or
/// a wall-clock overhead sample. The table binaries accumulate these and
/// emit them with writeBenchJson so the human-readable tables and the
/// machine-readable artifacts come from the same measurements.
struct BenchRecord {
  std::string Workload;
  double Threshold = 0;
  uint32_t Delay = 0;
  bool HasStats = false;
  VmStats Stats;
  bool HasOverhead = false;
  OverheadSample Overhead;

  static BenchRecord forStats(std::string Workload, double Threshold,
                              uint32_t Delay, const VmStats &Stats) {
    BenchRecord R;
    R.Workload = std::move(Workload);
    R.Threshold = Threshold;
    R.Delay = Delay;
    R.HasStats = true;
    R.Stats = Stats;
    return R;
  }
};

/// Writes a bench artifact: {"table": ..., "records": [{"workload", ...,
/// "stats": {...}, "overhead": {...}}]}. Every VmStats field (counters
/// and derived metrics) appears under "stats".
void writeBenchJson(std::ostream &OS, const std::string &Table,
                    const std::vector<BenchRecord> &Records);

/// Command-line front end shared by the table binaries: recognises
/// --json=<file> and returns the path ("" when absent). Any other
/// argument prints usage for \p Tool and exits with status 2.
std::string parseBenchJsonArg(int Argc, char **Argv, const char *Tool);

/// Writes \p Records to \p Path when non-empty (no-op otherwise) and
/// reports the artifact on stderr. Exits non-zero if the file cannot be
/// written.
void maybeWriteBenchJson(const std::string &Path, const std::string &Table,
                         const std::vector<BenchRecord> &Records);

} // namespace jtc

#endif // JTC_HARNESS_EXPERIMENT_H
