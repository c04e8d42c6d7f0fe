//===- perfbench/Common.cpp - Spans, statistics, references ---------------===//

#include "Bench.h"

#include "interp/InstructionInterpreter.h"
#include "net/Protocol.h"
#include "runtime/Heap.h"
#include "runtime/Machine.h"
#include "support/Json.h"

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <map>
#include <ostream>
#include <sstream>

using namespace jtc;

namespace perfbench {

//===--- Spans --------------------------------------------------------------===//

uint32_t SpanLog::open(std::string Name, uint32_t Parent, std::string Program) {
  if (!Enabled)
    return 0;
  double T = now();
  return add(std::move(Name), Parent, std::move(Program), T, T);
}

void SpanLog::close(uint32_t Id) {
  if (Enabled && Id != 0)
    Spans[Id - 1].End = now();
}

uint32_t SpanLog::add(std::string Name, uint32_t Parent, std::string Program,
                      double Start, double End) {
  if (!Enabled)
    return 0;
  Span S;
  S.Id = static_cast<uint32_t>(Spans.size() + 1);
  S.Parent = Parent;
  S.Name = std::move(Name);
  S.Program = std::move(Program);
  S.Start = Start;
  S.End = End;
  Spans.push_back(std::move(S));
  return Spans.back().Id;
}

std::vector<std::pair<std::string, double>> SpanLog::selfSeconds() const {
  // Child intervals of each span, merged so overlapping children (the
  // load generator's concurrent requests) are not subtracted twice.
  std::vector<std::vector<std::pair<double, double>>> Children(Spans.size());
  for (const Span &S : Spans)
    if (S.Parent != 0)
      Children[S.Parent - 1].push_back({S.Start, S.End});
  std::map<std::string, double> Self;
  for (size_t I = 0; I < Spans.size(); ++I) {
    auto &C = Children[I];
    std::sort(C.begin(), C.end());
    double Covered = 0, CurStart = 0, CurEnd = -1;
    for (auto [A, B] : C) {
      if (A > CurEnd) {
        if (CurEnd > CurStart)
          Covered += CurEnd - CurStart;
        CurStart = A;
        CurEnd = B;
      } else {
        CurEnd = std::max(CurEnd, B);
      }
    }
    if (CurEnd > CurStart)
      Covered += CurEnd - CurStart;
    Self[Spans[I].Name] += (Spans[I].End - Spans[I].Start) - Covered;
  }
  return {Self.begin(), Self.end()};
}

void SpanLog::write(std::ostream &OS) const {
  JsonWriter W(OS);
  W.beginObject();
  W.key("spans").beginArray();
  for (const Span &S : Spans) {
    W.beginObject()
        .fieldUInt("id", S.Id)
        .fieldUInt("parent", S.Parent)
        .field("name", S.Name);
    if (!S.Program.empty())
      W.field("program", S.Program);
    W.fieldReal("start_s", S.Start).fieldReal("end_s", S.End).endObject();
  }
  W.endArray();
  W.key("self_seconds").beginObject();
  for (const auto &[Name, Secs] : selfSeconds())
    W.fieldReal(Name, Secs);
  W.endObject();
  W.endObject();
  OS << "\n";
}

//===--- Order statistics ----------------------------------------------------===//

double quantile(std::vector<double> V, double Q) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  size_t Rank = static_cast<size_t>(std::ceil(Q * static_cast<double>(V.size())));
  return V[std::min(V.size() - 1, Rank == 0 ? 0 : Rank - 1)];
}

namespace {
/// Keeps the kernel's result alive.
volatile double CalibrationSink;
} // namespace

double calibrationSeconds() {
  static std::vector<double> A, B;
  if (A.empty()) {
    A.resize((1u << 20) / sizeof(double));
    B.resize(A.size());
    for (size_t I = 0; I < A.size(); ++I) {
      A[I] = static_cast<double>(I);
      B[I] = 1.0 / static_cast<double>(I + 1);
    }
  }
  Clock::time_point T0 = Clock::now();
  double Sum = 0;
  for (unsigned Pass = 0; Pass < 20; ++Pass)
    for (size_t I = 0; I < A.size(); ++I) {
      A[I] = A[I] * 0.999 + B[I] * 1.0001;
      Sum += A[I];
    }
  CalibrationSink = Sum;
  return secondsSince(T0);
}

double fastest(const std::vector<double> &V) {
  return V.empty() ? 0 : *std::min_element(V.begin(), V.end());
}

double median(std::vector<double> V) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  size_t N = V.size();
  return N % 2 ? V[N / 2] : (V[N / 2 - 1] + V[N / 2]) / 2;
}

double geomean(const std::vector<double> &V) {
  if (V.empty())
    return 0;
  double LogSum = 0;
  for (double X : V)
    LogSum += std::log(X);
  return std::exp(LogSum / static_cast<double>(V.size()));
}

double tailLevel(size_t Samples) {
  for (double Q : {0.999, 0.99, 0.95, 0.90, 0.75, 0.50}) {
    double Beyond =
        static_cast<double>(Samples) -
        std::ceil(Q * static_cast<double>(Samples));
    if (Beyond >= 10)
      return Q;
  }
  return 0;
}

std::string describeTail(const std::vector<double> &V, double Scale,
                         const char *Unit) {
  std::string N = "n=" + std::to_string(V.size());
  if (double Q = tailLevel(V.size())) {
    char Buf[96];
    std::snprintf(Buf, sizeof(Buf), ", p%g=%.6g %s", Q * 100,
                  quantile(V, Q) * Scale, Unit);
    N += Buf;
  }
  return N;
}

//===--- References ----------------------------------------------------------===//

namespace {

bool writeAll(int Fd, const void *Data, size_t Size) {
  const char *P = static_cast<const char *>(Data);
  while (Size) {
    ssize_t N = ::write(Fd, P, Size);
    if (N < 0 && errno == EINTR)
      continue;
    if (N <= 0)
      return false;
    P += N;
    Size -= static_cast<size_t>(N);
  }
  return true;
}

bool readAll(int Fd, void *Data, size_t Size) {
  char *P = static_cast<char *>(Data);
  while (Size) {
    ssize_t N = ::read(Fd, P, Size);
    if (N < 0 && errno == EINTR)
      continue;
    if (N <= 0)
      return false;
    P += N;
    Size -= static_cast<size_t>(N);
  }
  return true;
}

} // namespace

bool computeReferences(const std::vector<ProgramSpec> &Programs,
                       std::vector<Reference> &Out, std::string &Err) {
  int Pipe[2];
  if (::pipe(Pipe) != 0) {
    Err = std::string("pipe: ") + std::strerror(errno);
    return false;
  }
  pid_t Pid = ::fork();
  if (Pid < 0) {
    Err = std::string("fork: ") + std::strerror(errno);
    ::close(Pipe[0]);
    ::close(Pipe[1]);
    return false;
  }
  if (Pid == 0) {
    ::close(Pipe[0]);
    for (const ProgramSpec &P : Programs) {
      Module M = P.W->Build(P.Scale);
      Machine Mach(M);
      RunResult R = runInstructions(Mach);
      Reference Ref;
      Ref.Finished = R.Status == RunStatus::Finished;
      Ref.OutputDigest = net::outputDigest(Mach.output());
      Ref.HeapDigest = heapDigest(Mach.heap());
      Ref.Instructions = R.Instructions;
      if (!writeAll(Pipe[1], &Ref, sizeof(Ref)))
        ::_exit(1);
    }
    ::_exit(0);
  }
  ::close(Pipe[1]);
  Out.assign(Programs.size(), Reference());
  bool Ok = true;
  for (Reference &Ref : Out)
    Ok = Ok && readAll(Pipe[0], &Ref, sizeof(Ref));
  ::close(Pipe[0]);
  int Status = 0;
  while (::waitpid(Pid, &Status, 0) < 0 && errno == EINTR) {
  }
  if (!Ok || !WIFEXITED(Status) || WEXITSTATUS(Status) != 0) {
    Err = "reference interpreter process failed";
    return false;
  }
  for (size_t I = 0; I < Out.size(); ++I)
    if (!Out[I].Finished) {
      Err = "reference run of " + Programs[I].name() + " did not finish";
      return false;
    }
  return true;
}

//===--- Misc ----------------------------------------------------------------===//

std::string describeOptions(const VmOptions &O) {
  std::ostringstream S;
  S << "backend=" << backend::backendKindName(O.backend())
    << " threshold=" << O.completionThreshold()
    << " delay=" << O.startStateDelay() << " decay=" << O.decayInterval()
    << " max_trace_blocks=" << O.maxTraceBlocks()
    << " profiling=" << (O.profiling() ? "on" : "off")
    << " traces=" << (O.traces() ? "on" : "off")
    << " validate=" << validateModeName(O.validate())
    << " mem_elide=" << (O.memElide() ? "on" : "off")
    << " jit_promote_after=" << O.jitPromoteAfter()
    << " telemetry=" << (O.telemetry() ? "on" : "off");
  return S.str();
}

double selfPeakRssMb() {
  rusage U{};
  ::getrusage(RUSAGE_SELF, &U);
  return static_cast<double>(U.ru_maxrss) / 1024.0;
}

std::vector<size_t> seededOrder(size_t N, Prng &R) {
  std::vector<size_t> Order(N);
  for (size_t I = 0; I < N; ++I)
    Order[I] = I;
  for (size_t I = N; I > 1; --I)
    std::swap(Order[I - 1], Order[R.nextBelow(I)]);
  return Order;
}

} // namespace perfbench
