//===- perfbench/Serve.cpp - The serve workload ----------------------------===//
///
/// Open-loop requests from this process over a few connections to a real
/// fleet: a jtc::fleet::FleetSupervisor polled on a thread of this
/// process, routing to forked jtc-fleet shard processes. The mix is all
/// six programs at ~2% of registry scale with warm handoff on, under the
/// shipped default VmOptions (backend interp, set explicitly through
/// JTC_BACKEND in the shards' environment). Arrival times (Poisson at a
/// fixed offered rate), the program of each request and its session key
/// all come from the seed. Every reply's output and heap digests are
/// checked against the reference interpreter.
///
/// Latency is timed from each request's scheduled send time, so a stall
/// in the generator or the fleet also delays the requests behind it.
///
//===----------------------------------------------------------------------===//

#include "Layers.h"

#include "fleet/Supervisor.h"
#include "net/Client.h"
#include "net/Protocol.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <mutex>
#include <thread>

using namespace jtc;

namespace perfbench {

namespace {

/// Offered rate of the fixed-rate phase, and the p99 latency limit the
/// maximum-rate probe holds the fleet to. The fixed rate sits at about
/// half of the maximum rate measured on 4 cores (perfbench/README.md,
/// "Baseline"), so requests queue behind each other without the backlog
/// growing.
constexpr double FixedRateRps = 30;
constexpr double LatencyLimitS = 0.150;
constexpr double ProbeStep = 1.25;
constexpr unsigned ScalePercent = 2;
constexpr unsigned SetupSpawns = 15;
/// Session keys only pick the shard (consistent hash); warm handoff is
/// per module and shard. With two shards the ring gives the busier one
/// about three quarters of any key set (the same for 64, 256 or 1024
/// keys), so more keys would not spread the load further. Both shards see
/// every program during the warm-up, so nearly every measured session
/// starts warm.
constexpr unsigned SessionKeys = 64;

//===--- The fleet ------------------------------------------------------------===//

/// A FleetSupervisor polled on a thread of its own while the load
/// generator talks to it over sockets.
class LiveFleet {
public:
  explicit LiveFleet(fleet::FleetOptions O) : Sup(std::move(O)) {}
  ~LiveFleet() { stop(); }

  /// Spawns the shards and waits until every one answered a stats
  /// broadcast: the fleet is then ready for sessions.
  bool start(std::string &Err) {
    Clock::time_point T0 = Clock::now();
    if (!Sup.start(Err))
      return false;
    SpawnS = secondsSince(T0);
    std::vector<fleet::ShardStatsReport> Ready;
    if (!Sup.fetchStats(Ready, Err, 60))
      return false;
    ReadyS = secondsSince(T0);
    Poller = std::thread([this] {
      while (!Paused.load())
        Sup.poll(10);
    });
    return true;
  }

  /// Stops the polling thread, handing the supervisor back to the caller.
  void pause() {
    Paused = true;
    if (Poller.joinable())
      Poller.join();
  }

  /// Stops every shard and waits for all of them.
  void stop() {
    pause();
    Sup.shutdown();
  }

  fleet::FleetSupervisor &supervisor() { return Sup; }
  uint16_t port() const { return Sup.frontPort(); }
  double spawnSeconds() const { return SpawnS; }
  double readySeconds() const { return ReadyS; }

  /// Largest peak resident set of the shard processes, in MiB (read
  /// before stop()).
  double peakShardRssMb() const {
    double Mb = 0;
    for (unsigned I = 0; I < Sup.numShards(); ++I) {
      std::ifstream F("/proc/" + std::to_string(Sup.shardPid(I)) + "/status");
      for (std::string L; std::getline(F, L);)
        if (L.rfind("VmHWM:", 0) == 0)
          Mb = std::max(Mb, std::strtod(L.c_str() + 6, nullptr) / 1024.0);
    }
    return Mb;
  }

private:
  fleet::FleetSupervisor Sup;
  std::thread Poller;
  std::atomic<bool> Paused{false};
  double SpawnS = 0;
  double ReadyS = 0;
};

//===--- The load generator ----------------------------------------------------===//

enum class Outcome : uint8_t { Missing, Ok, Mismatch, Backpressure, Error };

struct Request {
  double Due = 0;     ///< Scheduled send time, seconds from phase start.
  size_t Program = 0;
  std::string Key;
  double Sent = -1, Done = -1;
  Outcome Result = Outcome::Missing;
  double ShardS = 0;
  uint64_t Instructions = 0;
  bool Warm = false;
  uint64_t Bytes = 0; ///< Request + reply frames.
};

struct PhaseResult {
  std::vector<Request> Reqs;
  Clock::time_point T0;
  size_t BacklogMax = 0;
};

/// Poisson arrivals at \p Rate for \p Seconds.
std::vector<Request> schedule(double Rate, double Seconds, size_t Programs,
                              const std::vector<std::string> &Keys,
                              Prng &R) {
  std::vector<Request> Reqs;
  for (double T = -std::log(1 - R.nextUnit()) / Rate; T < Seconds;
       T += -std::log(1 - R.nextUnit()) / Rate) {
    Request Q;
    Q.Due = T;
    Q.Program = R.nextBelow(Programs);
    Q.Key = Keys[R.nextBelow(Keys.size())];
    Reqs.push_back(std::move(Q));
  }
  return Reqs;
}

/// One connection's share of an open-loop phase: sends each request when
/// it is due, whatever is outstanding, and matches replies by request id.
void connectionLoop(uint16_t Port, PhaseResult &P,
                    const std::vector<size_t> &Mine,
                    const std::vector<Prepared> &Programs, double Deadline,
                    std::mutex &M) {
  std::string Err;
  auto Client = net::BlockingClient::connect(Port, Err);
  if (!Client) {
    std::cerr << "perfbench: loadgen connect: " << Err << "\n";
    return;
  }
  std::map<uint64_t, size_t> Outstanding;
  size_t Next = 0, BacklogMax = 0;
  for (;;) {
    double Now = secondsSince(P.T0);
    if (Now > Deadline || (Next == Mine.size() && Outstanding.empty()))
      break;
    if (Next < Mine.size() && P.Reqs[Mine[Next]].Due <= Now) {
      Request &Q = P.Reqs[Mine[Next++]];
      net::RunSessionMsg Msg;
      Msg.SessionKey = Q.Key;
      Msg.Module = Programs[Q.Program].Spec.name();
      std::vector<uint8_t> Payload = Msg.encode();
      uint64_t Id = Client->nextRequestId();
      Q.Sent = secondsSince(P.T0);
      if (!Client->send(net::MessageType::RunSession, Id, Payload))
        break;
      Q.Bytes += net::FrameHeaderBytes + Payload.size();
      Outstanding[Id] = static_cast<size_t>(&Q - P.Reqs.data());
      BacklogMax = std::max(BacklogMax, Outstanding.size());
      continue;
    }
    double Wait = Next < Mine.size() ? P.Reqs[Mine[Next]].Due - Now
                                     : Deadline - Now;
    net::Frame F;
    net::NetError NErr;
    if (!Client->recv(F, NErr, std::max(0.0, Wait))) {
      if (NErr.Detail == "timeout")
        continue;
      break; // The connection is gone; the rest count as missing.
    }
    double Done = secondsSince(P.T0);
    auto It = Outstanding.find(F.RequestId);
    if (It == Outstanding.end())
      continue;
    Request &Q = P.Reqs[It->second];
    Outstanding.erase(It);
    Q.Done = Done;
    Q.Bytes += net::FrameHeaderBytes + F.Payload.size();
    if (F.Type == net::MessageType::Backpressure) {
      Q.Result = Outcome::Backpressure;
    } else if (F.Type != net::MessageType::SessionDone) {
      Q.Result = Outcome::Error;
    } else {
      net::SessionDoneMsg D;
      if (!D.decode(F.Payload, NErr)) {
        Q.Result = Outcome::Error;
        continue;
      }
      const Reference &Ref = Programs[Q.Program].Ref;
      bool Match = D.Status == static_cast<uint8_t>(RunStatus::Finished) &&
                   D.OutputDigest == Ref.OutputDigest &&
                   D.HeapDigest == Ref.HeapDigest;
      Q.Result = Match ? Outcome::Ok : Outcome::Mismatch;
      Q.ShardS = D.Seconds;
      Q.Instructions = D.Instructions;
      Q.Warm = D.WarmStart;
    }
  }
  std::lock_guard<std::mutex> Lock(M);
  P.BacklogMax = std::max(P.BacklogMax, BacklogMax);
}

/// Runs one open-loop phase over \p Conns connections and waits for every
/// reply (or \p Grace seconds past the last scheduled send).
PhaseResult runPhase(uint16_t Port, std::vector<Request> Reqs, unsigned Conns,
                     const std::vector<Prepared> &Programs, double Grace) {
  PhaseResult P;
  P.Reqs = std::move(Reqs);
  double Last = P.Reqs.empty() ? 0 : P.Reqs.back().Due;
  std::vector<std::vector<size_t>> Split(Conns);
  for (size_t I = 0; I < P.Reqs.size(); ++I)
    Split[I % Conns].push_back(I);
  std::mutex M;
  P.T0 = Clock::now();
  std::vector<std::thread> Threads;
  for (unsigned C = 0; C < Conns; ++C)
    Threads.emplace_back([&, C] {
      connectionLoop(Port, P, Split[C], Programs, Last + Grace, M);
    });
  for (std::thread &T : Threads)
    T.join();
  return P;
}

double latency(const Request &Q) { return Q.Done - Q.Due; }

/// Counts a phase's requests into the run totals.
void countPhase(const PhaseResult &P, const char *Name, RunOutput &Out) {
  std::map<Outcome, uint64_t> ByOutcome;
  for (const Request &Q : P.Reqs) {
    ++Out.Attempted;
    ++ByOutcome[Q.Result];
    if (Q.Result != Outcome::Ok)
      ++Out.Failed;
  }
  if (ByOutcome[Outcome::Ok] != P.Reqs.size())
    std::cerr << "perfbench: serve " << Name << " phase: "
              << ByOutcome[Outcome::Mismatch] << " digest mismatches, "
              << ByOutcome[Outcome::Backpressure] << " backpressure, "
              << ByOutcome[Outcome::Error] << " errors, "
              << ByOutcome[Outcome::Missing] << " without reply\n";
}

std::vector<double> latencies(const PhaseResult &P) {
  std::vector<double> L;
  for (const Request &Q : P.Reqs)
    if (Q.Result == Outcome::Ok)
      L.push_back(latency(Q));
  return L;
}

/// Reports the serving layers as seen from the client (traced run).
void reportServingLayers(const PhaseResult &P, const std::vector<double> &Spawn,
                         RunOutput &Out) {
  std::vector<double> Session, Overhead, Lag;
  uint64_t Warm = 0, Done = 0, Backpressure = 0, Errors = 0, Bytes = 0;
  for (const Request &Q : P.Reqs) {
    Bytes += Q.Bytes;
    if (Q.Sent >= 0)
      Lag.push_back(Q.Sent - Q.Due);
    if (Q.Result == Outcome::Backpressure)
      ++Backpressure;
    else if (Q.Result == Outcome::Error || Q.Result == Outcome::Missing)
      ++Errors;
    if (Q.Result != Outcome::Ok && Q.Result != Outcome::Mismatch)
      continue;
    ++Done;
    Warm += Q.Warm;
    Session.push_back(Q.ShardS);
    Overhead.push_back((Q.Done - Q.Sent) - Q.ShardS);
  }
  Out.detail("server.session_ms.p50", median(Session) * 1e3, "ms",
             "shard-reported SessionDone seconds");
  Out.detail("server.session_ms.p99", quantile(Session, 0.99) * 1e3, "ms",
             "n=" + std::to_string(Session.size()));
  Out.detail("fleet.overhead_ms.p50", median(Overhead) * 1e3, "ms",
             "client latency from send minus shard session time");
  Out.detail("fleet.overhead_ms.p99", quantile(Overhead, 0.99) * 1e3, "ms",
             "n=" + std::to_string(Overhead.size()));
  Out.detail("server.warm_frac",
             Done ? static_cast<double>(Warm) / static_cast<double>(Done) : 0,
             "ratio");
  Out.detail("fleet.spawn_s", median(Spawn), "s",
             "FleetSupervisor::start (sockets, shard forks, upstream "
             "connects), median of " +
                 std::to_string(Spawn.size()));
  Out.detail("fleet.backpressure", static_cast<double>(Backpressure), "count");
  Out.detail("fleet.errors", static_cast<double>(Errors), "count");
  Out.detail("net.bytes_per_request",
             P.Reqs.empty() ? 0
                            : static_cast<double>(Bytes) /
                                  static_cast<double>(P.Reqs.size()),
             "bytes");
  Out.detail("loadgen.lag_ms.p99", quantile(Lag, 0.99) * 1e3, "ms",
             "send time minus scheduled time");
  Out.detail("loadgen.backlog_max", static_cast<double>(P.BacklogMax),
             "count", "most requests outstanding on one connection");
}

/// Stops the fleet after noting how its shards shared the sessions;
/// returns the largest shard's peak resident set in MiB.
double finishFleet(LiveFleet &F, RunOutput &Out) {
  F.pause();
  std::vector<fleet::ShardStatsReport> Reports;
  std::string Err;
  if (F.supervisor().fetchStats(Reports, Err, 30)) {
    std::string Note = "sessions per shard (completed, warm starts):";
    uint64_t Total = 0, Busiest = 0;
    for (const fleet::ShardStatsReport &R : Reports) {
      std::map<std::string, uint64_t> Counter(R.Counters.begin(),
                                              R.Counters.end());
      Note += " shard " + std::to_string(R.Shard) + " " +
              std::to_string(Counter["completed"]) + ", " +
              std::to_string(Counter["warm-starts"]) + ";";
      Total += Counter["completed"];
      Busiest = std::max(Busiest, Counter["completed"]);
    }
    Out.Notes.push_back(Note);
    Out.detail("fleet.busiest_shard_share",
               Total ? static_cast<double>(Busiest) / static_cast<double>(Total)
                     : 0,
               "ratio", "the consistent-hash ring's load split");
  }
  double PeakRssMb = F.peakShardRssMb();
  F.stop();
  return PeakRssMb;
}

} // namespace

bool runServe(const RunConfig &C, RunOutput &Out) {
  if (C.FleetBin.empty()) {
    std::cerr << "perfbench: the serve workload needs --fleet-bin\n";
    return false;
  }
  unsigned Cores = std::max(1u, std::thread::hardware_concurrency());
  // Shards and connections leave cores for the supervisor thread and the
  // load generator: two single-worker shards from four cores up.
  unsigned Shards = Cores >= 4 ? 2 : 1;
  unsigned Conns = std::min(2u, Cores);

  std::vector<ProgramSpec> Specs;
  for (const WorkloadInfo &W : allWorkloads())
    Specs.push_back(
        {&W, std::max<uint32_t>(1, W.DefaultScale * ScalePercent / 100)});
  std::vector<Reference> Refs;
  std::string Err;
  if (!computeReferences(Specs, Refs, Err)) {
    std::cerr << "perfbench: " << Err << "\n";
    return false;
  }
  if (C.InjectMismatch)
    Refs[0].HeapDigest ^= 1;

  // The shards run the shipped defaults; the in-process layer drivers use
  // the same options, with the backend named explicitly.
  VmOptions Base = VmOptions().backend(backend::BackendKind::Interp);
  Out.Notes.push_back("vm options: " + describeOptions(Base) +
                      " (shards: JTC_BACKEND=interp, warm handoff on)");
  Out.Notes.push_back("fleet: " + std::to_string(Shards) +
                      " shards x 1 worker, " + std::to_string(Conns) +
                      " connections, nproc " + std::to_string(Cores));
  for (const ProgramSpec &S : Specs)
    Out.Notes.push_back("program " + S.name() + " scale " +
                        std::to_string(S.Scale));

  // The shards inherit this process's environment; the driver has
  // already removed any inherited JTC_BACKEND.
  ::setenv("JTC_BACKEND", "interp", 1);

  SpanLog Spans(C.Trace);
  uint32_t Root = Spans.open("run.serve");
  Prng Rng(C.Seed);
  std::vector<std::string> Keys;
  for (unsigned I = 0; I < SessionKeys; ++I)
    Keys.push_back("user-" + std::to_string(Rng.next() % 1000000007u));

  fleet::FleetOptions FO;
  FO.Shards = Shards;
  FO.Workers = 1;
  FO.ShardBinary = C.FleetBin;
  for (const ProgramSpec &S : Specs)
    FO.Workloads.emplace_back(S.name(), S.Scale);

  // Set-up: spawn to every shard answering, several times; the last fleet
  // serves the load.
  std::vector<double> SetupS, SpawnS;
  std::unique_ptr<LiveFleet> Live;
  for (unsigned I = 0; I < SetupSpawns; ++I) {
    Live.reset();
    Live = std::make_unique<LiveFleet>(FO);
    uint32_t S = Spans.open("fleet.setup", Root);
    if (!Live->start(Err)) {
      std::cerr << "perfbench: fleet: " << Err << "\n";
      return false;
    }
    Spans.close(S);
    SetupS.push_back(Live->readySeconds());
    SpawnS.push_back(Live->spawnSeconds());
  }

  // In-process holders of the programs' reference digests for the load
  // generator's checks (and the traced run's layer drivers).
  std::vector<Prepared> Programs = preparePrograms(Specs, Refs);
  if (C.Trace)
    for (unsigned R = 0; R < SetupRounds; ++R)
      setupRound(Programs);

  double Warmup = 0.1 * C.Seconds;
  double Measure = (C.Trace ? 0.4 : 0.5) * C.Seconds;
  PhaseResult W;
  {
    SpanScope S(Spans, "phase.warmup", Root);
    W = runPhase(Live->port(),
                 schedule(FixedRateRps, Warmup, Programs.size(), Keys, Rng),
                 Conns, Programs, 10);
  }
  countPhase(W, "warm-up", Out);
  PhaseResult A;
  {
    SpanScope S(Spans, "phase.fixed_rate", Root);
    A = runPhase(Live->port(),
                 schedule(FixedRateRps, Measure, Programs.size(), Keys, Rng),
                 Conns, Programs, 10);
    if (Spans.enabled())
      for (const Request &Q : A.Reqs) {
        if (Q.Done < 0)
          continue;
        double Base0 = Spans.at(A.T0);
        uint32_t R = Spans.add("request", S.id(), Programs[Q.Program].Spec.name(),
                               Base0 + Q.Due, Base0 + Q.Done);
        if (Q.Result == Outcome::Ok)
          Spans.add("server.session", R, Programs[Q.Program].Spec.name(),
                    Base0 + Q.Done - Q.ShardS, Base0 + Q.Done);
      }
  }
  countPhase(A, "fixed-rate", Out);

  if (C.Trace) {
    reportServingLayers(A, SpawnS, Out);
    finishFleet(*Live, Out);
    runLayerDrivers(Programs, Base, 0.3 * C.Seconds, Rng, Spans, Root, Out);
  } else {
    // Maximum rate: step the offered rate up until the p99 latency leaves
    // the limit (a growing backlog shows up there too) or a request
    // fails, within the run's remaining time.
    double MaxRate = 0;
    Clock::time_point P0 = Clock::now();
    double ProbeBudget = C.Seconds - Warmup - Measure;
    for (double Rate = FixedRateRps; secondsSince(P0) < ProbeBudget;
         Rate *= ProbeStep) {
      PhaseResult P = runPhase(
          Live->port(), schedule(Rate, 1.0, Programs.size(), Keys, Rng), Conns,
          Programs, 2 * LatencyLimitS);
      std::vector<double> L = latencies(P);
      bool Clean = L.size() == P.Reqs.size();
      for (const Request &Q : P.Reqs)
        if (Q.Result == Outcome::Mismatch) {
          ++Out.Attempted;
          ++Out.Failed;
        }
      if (!Clean || quantile(L, 0.99) > LatencyLimitS)
        break;
      MaxRate = Rate;
    }
    double PeakRssMb = finishFleet(*Live, Out);

    std::vector<std::vector<double>> PerProgram(Programs.size());
    double Instructions = 0, ShardSeconds = 0;
    for (const Request &Q : A.Reqs)
      if (Q.Result == Outcome::Ok) {
        PerProgram[Q.Program].push_back(latency(Q));
        Instructions += static_cast<double>(Q.Instructions);
        ShardSeconds += Q.ShardS;
      }
    std::vector<double> Fastest;
    for (size_t I = 0; I < Programs.size(); ++I) {
      const std::vector<double> &L = PerProgram[I];
      if (L.empty()) {
        std::cerr << "perfbench: no completed " << Programs[I].Spec.name()
                  << " session at the fixed rate\n";
        ++Out.Attempted;
        ++Out.Failed;
        continue;
      }
      Fastest.push_back(fastest(L));
      Out.detail("session_s." + Programs[I].Spec.name(), Fastest.back(), "s",
                 "fastest latency from scheduled send; median " +
                     std::to_string(median(L)) + " s, " +
                     describeTail(L, 1, "s"));
    }
    Out.metric("setup_s", fastest(SetupS), "s",
               "fastest of " + std::to_string(SetupS.size()) +
                   " fleet spawns until every shard answers; median " +
                   std::to_string(median(SetupS)) + " s");
    Out.metric("session_s", geomean(Fastest), "s",
               "geometric mean over programs of the fastest latency at " +
                   std::to_string(static_cast<int>(FixedRateRps)) + " req/s");
    Out.metric("peak_rss_mb", PeakRssMb, "MB",
               "largest shard process");
    Out.detail("throughput_minstr_s",
               ShardSeconds > 0 ? Instructions / ShardSeconds / 1e6 : 0,
               "Minstr/s", "bytecode instructions per shard session second");
    std::vector<double> Lat = latencies(A);
    Out.detail("lat_p50_ms", median(Lat) * 1e3, "ms",
               "at " + std::to_string(static_cast<int>(FixedRateRps)) +
                   " req/s offered");
    Out.detail("lat_p99_ms", quantile(Lat, 0.99) * 1e3, "ms",
               describeTail(Lat, 1e3, "ms"));
    Out.detail("max_rate_rps", MaxRate, "req/s",
               "highest offered rate (steps of x" +
                   std::to_string(ProbeStep).substr(0, 4) +
                   ") with p99 <= " +
                   std::to_string(static_cast<int>(LatencyLimitS * 1e3)) +
                   " ms and every request answered");
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
