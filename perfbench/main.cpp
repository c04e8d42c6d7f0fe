//===- perfbench/main.cpp - The repository benchmark driver ---------------===//
///
/// perfbench --workload=<loops|branchy|serve> --seed=N --seconds=S
///           --trace=<0|1> [--commit=ID] [--spans=FILE] [--fleet-bin=PATH]
///           [--inject-mismatch]
///
/// Runs one workload and prints a report followed, as the last line, by
/// one JSON object {"correct", "attempted", "failed", "metrics"}. With
/// --trace=0 the metrics are the end-to-end ones; with --trace=1 the run
/// drives each layer from outside and reports the per-layer metrics.
/// Exits 1 when any session or check failed (a trap, a typed error, a
/// refusal, a missing reply, or a digest that differs from the reference
/// interpreter), 2 on bad usage.
///
/// --inject-mismatch corrupts one reference digest, to show that the
/// correctness gate fails the run.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "support/ArgParse.h"
#include "support/Json.h"

#include <cstdlib>
#include <iostream>
#include <thread>

using namespace perfbench;

namespace {

const char *buildType() {
#ifdef PERFBENCH_BUILD_TYPE
  return PERFBENCH_BUILD_TYPE;
#else
  return "unknown";
#endif
}

bool optimizedBuild() {
#ifdef __OPTIMIZE__
  return true;
#else
  return false;
#endif
}

void printReport(const RunConfig &C, const RunOutput &Out) {
  std::cout << "perfbench workload=" << C.Workload << " seed=" << C.Seed
            << " seconds=" << C.Seconds << " trace=" << (C.Trace ? 1 : 0)
            << "\n";
  std::cout << "record: nproc=" << std::thread::hardware_concurrency()
            << " compiler=\"" << __VERSION__ << "\" build_type=" << buildType()
            << (optimizedBuild() ? "" : " UNOPTIMIZED-BUILD")
            << " commit=" << (C.Commit.empty() ? "unknown" : C.Commit)
            << "\n";
  for (const std::string &N : Out.Notes)
    std::cout << N << "\n";
  auto Line = [](const Metric &M) {
    std::cout << "  " << M.Name << " = " << M.Value << " " << M.Unit;
    if (!M.Note.empty())
      std::cout << "  (" << M.Note << ")";
    std::cout << "\n";
  };
  std::cout << (C.Trace ? "per-layer metrics:\n" : "end-to-end metrics:\n");
  for (const Metric &M : Out.Metrics)
    Line(M);
  std::cout << "report:\n";
  for (const Metric &M : Out.Detail)
    Line(M);
  std::cout << "  error_rate = "
            << (Out.Attempted ? static_cast<double>(Out.Failed) /
                                    static_cast<double>(Out.Attempted)
                              : 0.0)
            << " ratio  (" << Out.Failed << " failed of " << Out.Attempted
            << " attempted)\n";
}

void printResult(bool Correct, const RunOutput &Out) {
  jtc::JsonWriter W(std::cout);
  W.beginObject()
      .fieldBool("correct", Correct)
      .fieldUInt("attempted", Out.Attempted)
      .fieldUInt("failed", Out.Failed);
  W.key("metrics").beginObject();
  for (const Metric &M : Out.Metrics) {
    W.key(M.Name).beginObject().fieldReal("value", M.Value).field("unit",
                                                                  M.Unit);
    W.endObject();
  }
  W.endObject().endObject();
  std::cout << std::endl;
}

} // namespace

int main(int Argc, char **Argv) {
  // Pin the measured tier: the default backend otherwise follows
  // JTC_BACKEND, which CI exports for its test runs. Every workload names
  // its backend explicitly as well.
  ::unsetenv("JTC_BACKEND");

  RunConfig C;
  uint32_t Trace = 0;
  jtc::ArgParser P;
  P.strOpt("workload", &C.Workload)
      .uintOpt("seed", &C.Seed)
      .custom(
          "seconds",
          [&C](const std::string &V) {
            C.Seconds = std::strtod(V.c_str(), nullptr);
            return C.Seconds > 0;
          },
          /*ValueRequired=*/true)
      .u32Opt("trace", &Trace)
      .strOpt("commit", &C.Commit)
      .strOpt("spans", &C.SpansPath)
      .strOpt("fleet-bin", &C.FleetBin)
      .flag("inject-mismatch", &C.InjectMismatch);
  if (!P.parse(Argc, Argv) || Trace > 1 ||
      (C.Workload != "loops" && C.Workload != "branchy" &&
       C.Workload != "serve")) {
    std::cerr << "usage: perfbench --workload=<loops|branchy|serve> --seed=N "
                 "--seconds=S --trace=<0|1>\n"
                 "  [--commit=ID] [--spans=FILE] [--fleet-bin=PATH] "
                 "[--inject-mismatch]\n";
    return 2;
  }
  C.Trace = Trace == 1;

  RunOutput Out;
  bool Ran = C.Workload == "serve" ? runServe(C, Out) : runBatch(C, Out);
  if (!Ran) {
    std::cerr << "perfbench: the " << C.Workload << " workload did not run\n";
    return 1;
  }
  printReport(C, Out);
  bool Correct = Out.Failed == 0 && Out.Attempted > 0;
  printResult(Correct, Out);
  return Correct ? 0 : 1;
}
