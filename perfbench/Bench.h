//===- perfbench/Bench.h - Shared benchmark driver pieces -------*- C++ -*-===//
///
/// \file
/// The pieces every workload driver shares: the run configuration, the
/// metric and report records, the in-memory span recorder, order
/// statistics, and the independent reference digests every session is
/// checked against.
///
/// Spans are recorded only around calls into the repo's public API from
/// this directory; nothing inside src/ is instrumented.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_BENCH_H
#define PERFBENCH_BENCH_H

#include "support/Prng.h"
#include "vm/VmOptions.h"
#include "workloads/Workloads.h"

#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double secondsSince(Clock::time_point T0) {
  return std::chrono::duration<double>(Clock::now() - T0).count();
}

struct RunConfig {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  std::string Commit;    ///< Provenance, as given by the wrapper.
  std::string SpansPath; ///< Where the traced run writes its spans.
  std::string FleetBin;  ///< The jtc-fleet binary the serve workload runs.
  bool InjectMismatch = false; ///< Corrupt one reference digest (self-test).
};

/// One named number. Final metrics go into the last output line; detail
/// metrics are only printed in the report above it.
struct Metric {
  std::string Name;
  double Value = 0;
  std::string Unit;
  std::string Note;
};

struct RunOutput {
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  std::vector<Metric> Metrics;
  std::vector<Metric> Detail;
  std::vector<std::string> Notes; ///< Free-form report lines.

  void metric(std::string Name, double V, std::string Unit,
              std::string Note = "") {
    Metrics.push_back({std::move(Name), V, std::move(Unit), std::move(Note)});
  }
  void detail(std::string Name, double V, std::string Unit,
              std::string Note = "") {
    Detail.push_back({std::move(Name), V, std::move(Unit), std::move(Note)});
  }
};

//===--- Spans ------------------------------------------------------------===//

struct Span {
  uint32_t Id = 0;
  uint32_t Parent = 0; ///< 0: a root span.
  std::string Name;
  std::string Program; ///< Empty when the span is not about one program.
  double Start = 0;    ///< Seconds since the recorder was created.
  double End = 0;
};

/// In-memory span recorder. Disabled recorders keep nothing, so the
/// untraced runs pay one branch per would-be span.
class SpanLog {
public:
  explicit SpanLog(bool Enabled) : Enabled(Enabled), Epoch(Clock::now()) {}

  bool enabled() const { return Enabled; }
  double now() const { return secondsSince(Epoch); }
  double at(Clock::time_point T) const {
    return std::chrono::duration<double>(T - Epoch).count();
  }

  uint32_t open(std::string Name, uint32_t Parent = 0,
                std::string Program = "");
  void close(uint32_t Id);
  /// Records an already-finished span.
  uint32_t add(std::string Name, uint32_t Parent, std::string Program,
               double Start, double End);

  const std::vector<Span> &spans() const { return Spans; }

  /// Writes {"spans": [...], "self_seconds": {...}} as JSON.
  void write(std::ostream &OS) const;

  /// Per span name: total duration minus the time covered by child spans.
  std::vector<std::pair<std::string, double>> selfSeconds() const;

private:
  bool Enabled;
  Clock::time_point Epoch;
  std::vector<Span> Spans;
};

/// RAII span around one call.
class SpanScope {
public:
  SpanScope(SpanLog &L, std::string Name, uint32_t Parent = 0,
            std::string Program = "")
      : L(L), Id(L.open(std::move(Name), Parent, std::move(Program))) {}
  ~SpanScope() { L.close(Id); }
  SpanScope(const SpanScope &) = delete;
  SpanScope &operator=(const SpanScope &) = delete;
  uint32_t id() const { return Id; }

private:
  SpanLog &L;
  uint32_t Id;
};

//===--- Order statistics ---------------------------------------------------===//

double median(std::vector<double> V);
/// Nearest-rank quantile, \p Q in [0, 1].
double quantile(std::vector<double> V, double Q);
double geomean(const std::vector<double> &V);

/// The fastest of \p V; 0 when it is empty. Set-up and the serve
/// latencies report it: outside load on a shared host can only add time,
/// so the fastest of many repetitions is the one it disturbed least.
double fastest(const std::vector<double> &V);

//===--- Host speed ---------------------------------------------------------===//

/// Times one fixed calibration kernel: floating-point multiply-adds and a
/// running sum over two 1 MiB arrays. On the shared host the benchmark
/// was tuned on, load from outside the machine slowed the VM's sessions
/// by up to 2.3x, for seconds to minutes at a time; it slowed this kernel
/// in step (about 2x), while an integer multiply chain and random reads
/// over 16 MiB hardly slowed. The kernel is this directory's own code, so
/// a change to the VM cannot move it.
double calibrationSeconds();

/// The kernel's time on a quiet host of the kind the benchmark was tuned
/// on (4-vCPU Xeon, family 6 model 143): the speed the batch workloads'
/// session times are scaled to.
inline constexpr double CalibrationRefS = 0.0022;

/// The highest of the usual reporting percentiles (99.9, 99, 95, 90, 75,
/// 50) that has at least ten samples beyond it; 0 when there is none.
double tailLevel(size_t Samples);

/// "n=<count>" plus the tail percentile and its value (times \p Scale, in
/// \p Unit) when the sample has one.
std::string describeTail(const std::vector<double> &V, double Scale,
                         const char *Unit);

//===--- Programs and references -------------------------------------------===//

struct ProgramSpec {
  const jtc::WorkloadInfo *W = nullptr;
  uint32_t Scale = 0;
  std::string name() const { return W->Name; }
};

/// What an independent engine computed for one program.
struct Reference {
  bool Finished = false;
  uint64_t OutputDigest = 0;
  uint64_t HeapDigest = 0;
  uint64_t Instructions = 0;
};

/// Runs every program on the plain instruction interpreter
/// (runInstructions, the Fig. 1 engine -- never TraceVM) in a forked
/// child, so the reference's memory and time stay out of the measured
/// process. Call before starting any thread.
bool computeReferences(const std::vector<ProgramSpec> &Programs,
                       std::vector<Reference> &Out, std::string &Err);

/// The resolved options, one "key=value" list, for the run record.
std::string describeOptions(const jtc::VmOptions &O);

/// Peak resident set of this process, in MiB.
double selfPeakRssMb();

/// Seeded Fisher-Yates permutation of 0..N-1.
std::vector<size_t> seededOrder(size_t N, jtc::Prng &R);

/// The workload drivers.
bool runBatch(const RunConfig &C, RunOutput &Out);
bool runServe(const RunConfig &C, RunOutput &Out);

} // namespace perfbench

#endif // PERFBENCH_BENCH_H
