//===- perfbench/Layers.cpp - Sessions and outside-in layer drivers -------===//

#include "Layers.h"

#include "analysis/Alias.h"
#include "analysis/Analysis.h"
#include "backend/TraceIR.h"
#include "btrace/BtraceEncoder.h"
#include "btrace/BtraceReplay.h"
#include "btrace/SuccessorTable.h"
#include "net/Protocol.h"
#include "opt/TraceOptimizer.h"
#include "persist/Snapshot.h"
#include "runtime/Heap.h"
#include "validate/Validator.h"
#include "vm/ModuleFingerprint.h"

#include <cstdio>
#include <iostream>
#include <sstream>

using namespace jtc;

namespace perfbench {

std::vector<Prepared> preparePrograms(const std::vector<ProgramSpec> &Specs,
                                      const std::vector<Reference> &Refs) {
  std::vector<Prepared> Out(Specs.size());
  for (size_t I = 0; I < Specs.size(); ++I) {
    Out[I].Spec = Specs[I];
    Out[I].Ref = Refs[I];
  }
  return Out;
}

double setupRound(std::vector<Prepared> &Programs) {
  Clock::time_point T0 = Clock::now();
  for (Prepared &P : Programs) {
    // Drop the previous round's copy first so each round allocates from
    // the same heap state.
    P.PM.reset();
    P.M.reset();
    Clock::time_point B0 = Clock::now();
    P.M = std::make_unique<Module>(P.Spec.W->Build(P.Spec.Scale));
    Clock::time_point B1 = Clock::now();
    P.PM = std::make_unique<PreparedModule>(*P.M);
    P.BuildS.push_back(std::chrono::duration<double>(B1 - B0).count());
    P.PrepareS.push_back(secondsSince(B1));
  }
  return secondsSince(T0);
}

Session runSession(const Prepared &P, const VmOptions &O, bool KeepVm,
                   BlockTransitionSink *Sink) {
  Session S;
  Clock::time_point T0 = Clock::now();
  auto VM = std::make_unique<TraceVM>(*P.PM, O);
  if (Sink)
    VM->setTransitionSink(Sink);
  S.Run = VM->run();
  S.Seconds = secondsSince(T0);
  S.Stats = VM->stats();
  if (S.Run.Status != RunStatus::Finished) {
    S.Failure = S.Run.Status == RunStatus::Trapped
                    ? std::string("trap ") + trapName(S.Run.Trap)
                    : "instruction budget exhausted";
  } else if (net::outputDigest(VM->machine().output()) !=
             P.Ref.OutputDigest) {
    S.Failure = "output digest differs from the reference interpreter";
  } else if (heapDigest(VM->machine().heap()) != P.Ref.HeapDigest) {
    S.Failure = "heap digest differs from the reference interpreter";
  }
  S.Ok = S.Failure.empty();
  if (KeepVm)
    S.VM = std::move(VM);
  return S;
}

void countSession(const Session &S, const Prepared &P, const char *What,
                  RunOutput &Out) {
  ++Out.Attempted;
  if (S.Ok)
    return;
  ++Out.Failed;
  std::cerr << "perfbench: " << P.Spec.name() << " " << What
            << " session failed: " << S.Failure << "\n";
}

namespace {

/// A check that is not a session (equivalence, replay digest).
void countCheck(bool Ok, const std::string &What, RunOutput &Out) {
  ++Out.Attempted;
  if (Ok)
    return;
  ++Out.Failed;
  std::cerr << "perfbench: check failed: " << What << "\n";
}

/// The sessions the traced run interleaves in every round.
enum Variant : size_t {
  Default,      ///< The workload's options.
  NoProfile,    ///< Profiling and traces off: plain block stepping.
  NoTraces,     ///< Profiling on, traces off.
  OtherBackend, ///< The other trace backend (interp <-> jit).
  Captured,     ///< The workload's options with a btrace encoder attached.
  NumVariants
};

const char *const VariantSpan[NumVariants] = {
    "session.default", "session.no_profile", "session.no_traces",
    "session.other_backend", "session.captured"};

/// Everything the traced run learns about one program.
struct LayerSample {
  std::string Name;
  double BuildS = 0, PrepareS = 0;
  std::vector<double> Times[NumVariants];
  VmStats Stats[NumVariants]; ///< Of the latest session of each variant.
  std::vector<uint8_t> Stream;         ///< Latest captured btrace stream...
  std::unique_ptr<TraceVM> CapturedVm; ///< ...and the session that made it.

  double median(Variant V) const { return perfbench::median(Times[V]); }
  double AdaptiveS = 0;
  double InterpS = 0, JitS = 0;
  uint64_t Traces = 0;
  double FactsS = 0, OptimizeS = 0, ValidateS = 0, AnnotateS = 0, LowerS = 0;
  uint64_t ValidateRejects = 0, LowerFallbacks = 0;
  uint64_t SnapshotBytes = 0;
  double SnapCaptureS = 0, EncodeS = 0, DecodeS = 0, ImportS = 0;
};

/// Times \p F and records it as a span.
template <typename Fn>
double timed(SpanLog &Spans, const char *Name, uint32_t Parent,
             const std::string &Program, Fn &&F) {
  double Start = Spans.now();
  Clock::time_point T0 = Clock::now();
  F();
  double S = secondsSince(T0);
  Spans.add(Name, Parent, Program, Start, Start + S);
  return S;
}

/// The trace-level passes over every trace \p VM built, each timed as
/// one loop over the session's traceCache().traces(), in the order the
/// install path runs them.
void runTracePasses(const Prepared &P, const TraceVM &VM, SpanLog &Spans,
                    uint32_t Parent, LayerSample &L) {
  const PreparedModule &PM = *P.PM;
  const std::vector<Trace> &Traces = VM.traceCache().traces();
  const OptConfig &Config = VM.options().optConfig();
  const std::string &Name = L.Name;
  L.Traces = Traces.size();

  std::unique_ptr<analysis::ModuleAnalysis> Facts;
  L.FactsS = timed(Spans, "analysis.facts", Parent, Name, [&] {
    Facts = std::make_unique<analysis::ModuleAnalysis>(
        analysis::ModuleAnalysis::compute(PM.module()));
  });
  L.OptimizeS = timed(Spans, "opt.optimize", Parent, Name, [&] {
    for (const Trace &T : Traces) {
      OptStats Stats;
      std::vector<LinearSegment> Out =
          optimizeTrace(PM, T, Stats, /*InlineStaticCalls=*/false,
                        Facts.get(), Config);
      (void)Out;
    }
  });
  L.ValidateS = timed(Spans, "validate.validate", Parent, Name, [&] {
    for (const Trace &T : Traces)
      if (!validate::validateTrace(PM, T, Config, Facts.get()).Ok)
        ++L.ValidateRejects;
  });
  const analysis::ModuleAnalysis &A = *Facts;
  L.AnnotateS = timed(Spans, "analysis.annotate", Parent, Name, [&] {
    for (const Trace &T : Traces) {
      std::vector<analysis::TraceBlockSpan> Blocks;
      Blocks.reserve(T.Blocks.size());
      for (BlockId B : T.Blocks) {
        const BasicBlock &BB = PM.block(B);
        Blocks.push_back({BB.MethodId, BB.StartPc, BB.EndPc});
      }
      std::vector<analysis::TraceMemFact> MemFacts =
          analysis::analyzeTraceMemory(
              PM.module(),
              [&A](uint32_t MethodId) -> const analysis::MethodValueFacts * {
                const analysis::MethodAnalysis *MA = A.method(MethodId);
                return MA ? &MA->Values : nullptr;
              },
              Blocks);
      (void)MemFacts;
    }
  });
  L.LowerS = timed(Spans, "backend.lower", Parent, Name, [&] {
    for (const Trace &T : Traces)
      if (!backend::lowerTrace(PM, T, Facts.get()).ok())
        ++L.LowerFallbacks;
  });
}

/// The persist round trip of the session's own profile: capture the
/// snapshot, encode, decode, and import it as a fresh session's seed.
void runPersist(const Prepared &P, TraceVM &VM, const VmOptions &O,
                SpanLog &Spans, uint32_t Parent, LayerSample &L,
                RunOutput &Out) {
  const std::string &Name = L.Name;
  persist::SnapshotData SD;
  L.SnapCaptureS = timed(Spans, "persist.capture", Parent, Name,
                         [&] { SD = persist::captureSnapshot(VM); });
  std::vector<uint8_t> Bytes;
  L.EncodeS = timed(Spans, "persist.encode", Parent, Name,
                    [&] { Bytes = persist::encodeSnapshot(SD); });
  L.SnapshotBytes = Bytes.size();
  persist::SnapshotData Decoded;
  persist::PersistError Err;
  bool Ok = false;
  L.DecodeS = timed(Spans, "persist.decode", Parent, Name, [&] {
    Ok = persist::decodeSnapshot(Bytes.data(), Bytes.size(), Decoded, Err);
  });
  countCheck(Ok, Name + ": snapshot decode: " + Err.message(), Out);
  TraceVM Warm(*P.PM, O);
  L.ImportS = timed(Spans, "persist.import_seed", Parent, Name,
                    [&] { Warm.importSeed(Decoded.Seed); });
}

/// A session with a btrace encoder attached as its transition sink,
/// streaming into \p Stream. Keeps the VM for the one-off drivers.
Session runCaptured(const Prepared &P, const VmOptions &O,
                    std::vector<uint8_t> &Stream, RunOutput &Out) {
  btrace::SuccessorTable ST(*P.PM);
  btrace::BtraceHeader H = btrace::BtraceHeader::fromOptions(O);
  H.Fingerprint = moduleFingerprint(*P.PM);
  H.Spec = "workload:" + P.Spec.name();
  H.Scale = P.Spec.Scale;
  Stream.clear();
  btrace::BtraceEncoder Enc(*P.PM, ST, std::move(H),
                            [&Stream](const uint8_t *Data, size_t Size) {
                              Stream.insert(Stream.end(), Data, Data + Size);
                              return true;
                            });
  Session S = runSession(P, O, /*KeepVm=*/true, &Enc);
  S.VM->setTransitionSink(nullptr); // The encoder dies here.
  countCheck(Enc.ok(), P.Spec.name() + ": btrace capture dropped", Out);
  return S;
}

/// The drivers that need one finished captured session: the adaptive
/// half replayed from its stream, the trace-level passes over what it
/// built, and the persist round trip of its profile.
void runOneOffs(const Prepared &P, const VmOptions &Base, SpanLog &Spans,
                uint32_t Parent, LayerSample &L, RunOutput &Out) {
  const std::string &Name = L.Name;
  uint32_t Root = Spans.open("program", Parent, Name);

  // The adaptive half alone: profiler, trace cache, validation and
  // annotation driven by the captured stream, with no execution.
  btrace::ReplayResult RR;
  persist::PersistError Err;
  bool Replayed = false;
  L.AdaptiveS = timed(Spans, "vm.adaptive", Root, Name, [&] {
    Replayed = btrace::replayBtrace(L.Stream.data(), L.Stream.size(), *P.PM,
                                    RR, Err);
  });
  countCheck(Replayed && RR.DigestMatch,
             Name + ": btrace replay does not reproduce the session digest",
             Out);

  runTracePasses(P, *L.CapturedVm, Spans, Root, L);
  runPersist(P, *L.CapturedVm, Base, Spans, Root, L, Out);
  Spans.close(Root);
}

std::string fmt(double V, int Digits = 4) {
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.*g", Digits, V);
  return Buf;
}

void report(const std::vector<LayerSample> &Ls, RunOutput &Out) {
  double Build = 0, Prepare = 0, NoProfileS = 0, NoProfileBlocks = 0,
         ProfileDelta = 0, NoTracesDispatches = 0, Adaptive = 0,
         Optimize = 0, Validate = 0, Facts = 0, Annotate = 0, Lower = 0,
         TraceDelta = 0, DefaultDispatches = 0, BtraceBytes = 0,
         CapturedBlocks = 0, CaptureDelta = 0, DefaultS = 0, SnapBytes = 0,
         SnapCapture = 0, Encode = 0, Decode = 0, Import = 0;
  uint64_t Rejects = 0, LowerFallbacks = 0;
  VmStats Sum;
  std::vector<double> Speedups;
  for (const LayerSample &L : Ls) {
    double Def = L.median(Default), NoP = L.median(NoProfile),
           NoT = L.median(NoTraces);
    Build += L.BuildS;
    Prepare += L.PrepareS;
    NoProfileS += NoP;
    NoProfileBlocks +=
        static_cast<double>(L.Stats[NoProfile].BlocksExecuted);
    ProfileDelta += NoT - NoP;
    NoTracesDispatches +=
        static_cast<double>(L.Stats[NoTraces].totalDispatches());
    Adaptive += L.AdaptiveS;
    Optimize += L.OptimizeS;
    Validate += L.ValidateS;
    Facts += L.FactsS;
    Annotate += L.AnnotateS;
    Lower += L.LowerS;
    Rejects += L.ValidateRejects;
    LowerFallbacks += L.LowerFallbacks;
    TraceDelta += Def - NoP;
    DefaultDispatches +=
        static_cast<double>(L.Stats[Default].totalDispatches());
    BtraceBytes += static_cast<double>(L.Stream.size());
    CapturedBlocks += static_cast<double>(L.Stats[Captured].BlocksExecuted);
    CaptureDelta += L.median(Captured) - Def;
    DefaultS += Def;
    SnapBytes += static_cast<double>(L.SnapshotBytes);
    SnapCapture += L.SnapCaptureS;
    Encode += L.EncodeS;
    Decode += L.DecodeS;
    Import += L.ImportS;
    Sum.merge(L.Stats[Default]);
    Speedups.push_back(L.InterpS / L.JitS);
  }
  auto Ratio = [](double A, double B) { return B == 0 ? 0 : A / B; };
  double TraceDispatches = static_cast<double>(Sum.TraceDispatchesJit +
                                               Sum.TraceDispatchesInterp);

  Out.metric("workloads.build_s", Build, "s");
  Out.metric("interp.prepare_s", Prepare, "s");
  Out.metric("interp.block_ns", Ratio(NoProfileS, NoProfileBlocks) * 1e9, "ns");
  Out.metric("profile.hooks", static_cast<double>(Sum.Hooks), "count");
  Out.metric("profile.decay_passes", static_cast<double>(Sum.DecayPasses),
             "count");
  Out.metric("profile.signals", static_cast<double>(Sum.Signals), "count");
  Out.metric("profile.overhead_ns_per_dispatch",
             Ratio(ProfileDelta, NoTracesDispatches) * 1e9, "ns");
  Out.metric("vm.adaptive_s", Adaptive, "s");
  Out.metric("trace.self_s", Adaptive - Validate - Facts - Annotate, "s");
  Out.metric("trace.constructed", static_cast<double>(Sum.TracesConstructed),
             "count");
  Out.metric("trace.replaced", static_cast<double>(Sum.TracesReplaced),
             "count");
  Out.metric("trace.live", static_cast<double>(Sum.LiveTraces), "count");
  Out.metric("trace.avg_len", Sum.avgCompletedTraceLength(), "blocks");
  Out.metric("trace.coverage", Sum.completedCoverage(), "ratio");
  Out.metric("trace.completion_rate", Sum.completionRate(), "ratio");
  Out.metric("trace.dispatch_ns", Ratio(TraceDelta, DefaultDispatches) * 1e9,
             "ns");
  Out.metric("opt.optimize_s", Optimize, "s");
  Out.metric("validate.validate_s", Validate, "s");
  Out.metric("validate.rejects", static_cast<double>(Rejects), "count");
  Out.metric("analysis.facts_s", Facts, "s");
  Out.metric("analysis.annotate_s", Annotate, "s");
  Out.metric("analysis.checks_elided", static_cast<double>(Sum.MemChecksElided),
             "count");
  Out.metric("backend.lower_s", Lower, "s");
  Out.metric("backend.compiled", static_cast<double>(Sum.TracesJitCompiled),
             "count");
  Out.metric("backend.fallbacks",
             static_cast<double>(Sum.TraceCompileFallbacks), "count");
  Out.metric("backend.code_bytes", static_cast<double>(Sum.JitCodeBytes),
             "bytes");
  Out.metric("backend.jit_dispatch_frac",
             Ratio(static_cast<double>(Sum.TraceDispatchesJit),
                   TraceDispatches),
             "ratio");
  Out.metric("backend.jit_speedup", geomean(Speedups), "x");
  Out.metric("btrace.bytes_per_block", Ratio(BtraceBytes, CapturedBlocks),
             "bytes");
  Out.metric("btrace.capture_overhead_frac", Ratio(CaptureDelta, DefaultS),
             "ratio");
  Out.metric("persist.snapshot_bytes", SnapBytes, "bytes");
  Out.metric("persist.encode_s", Encode, "s");
  Out.metric("persist.decode_s", Decode, "s");
  Out.metric("persist.seed_import_s", Import, "s");

  Out.detail("persist.capture_s", SnapCapture, "s");
  Out.detail("trace_lowering_fallbacks", static_cast<double>(LowerFallbacks),
             "count", "lowerTrace refusals over every trace built");
  Out.detail("tracing_overhead_s", CaptureDelta, "s",
             "median captured (traced) session minus median untraced "
             "session, summed");

  // Per program: Tables VI/VII on the serving engine, and the gap between
  // the shipped pipeline and plain block interpretation, with the share
  // the outside-in layer times account for.
  Out.Notes.push_back(
      "per program (medians): default / no-profile / no-traces session s; "
      "gap = default - no-profile; explained = vm.adaptive_s + "
      "backend.lower_s");
  for (const LayerSample &L : Ls) {
    double Def = L.median(Default), NoP = L.median(NoProfile),
           NoT = L.median(NoTraces);
    double Gap = Def - NoP;
    double Explained = L.AdaptiveS + L.LowerS;
    std::ostringstream S;
    S << "  " << L.Name << ": default " << fmt(Def) << " s (n="
      << L.Times[Default].size() << "), no-profile " << fmt(NoP) << " s, no-traces "
      << fmt(NoT) << " s; gap " << fmt(Gap) << " s; explained "
      << fmt(Explained) << " s (adaptive " << fmt(L.AdaptiveS)
      << " = trace " << fmt(L.AdaptiveS - L.ValidateS - L.FactsS - L.AnnotateS)
      << " + validate " << fmt(L.ValidateS) << " + facts " << fmt(L.FactsS)
      << " + annotate " << fmt(L.AnnotateS) << "; lower " << fmt(L.LowerS)
      << "); ";
    if (Gap > 0)
      S << "share explained " << fmt(100 * Explained / Gap, 3)
        << "%, unattributed " << fmt(Gap - Explained) << " s";
    else
      S << "no gap to attribute (the pipeline is faster than no-profile)";
    S << "; traces " << L.Traces << ", jit speedup "
      << fmt(L.InterpS / L.JitS, 3) << "x";
    Out.Notes.push_back(S.str());
    Out.detail("gap_s." + L.Name, Gap, "s",
               "default session minus --no-profile session");
    Out.detail("gap_explained_s." + L.Name, Explained, "s",
               "vm.adaptive_s + backend.lower_s");
    Out.detail("gap_unattributed_s." + L.Name, Gap - Explained, "s");
  }
}

} // namespace

void runLayerDrivers(std::vector<Prepared> &Programs, const VmOptions &Base,
                     double Seconds, Prng &Order, SpanLog &Spans,
                     uint32_t Parent, RunOutput &Out) {
  std::vector<LayerSample> Ls(Programs.size());
  for (size_t I = 0; I < Programs.size(); ++I) {
    Ls[I].Name = Programs[I].Spec.name();
    Ls[I].BuildS = median(Programs[I].BuildS);
    Ls[I].PrepareS = median(Programs[I].PrepareS);
  }

  // Every variant of every program in each round, in a seeded order, so
  // drift on the host spreads evenly over the variants.
  bool BaseJit = Base.backend() == backend::BackendKind::Jit;
  VmOptions Options[NumVariants] = {Base, Base, Base, Base, Base};
  Options[NoProfile].profiling(false).traces(false);
  Options[NoTraces].traces(false);
  Options[OtherBackend].backend(BaseJit ? backend::BackendKind::Interp
                                        : backend::BackendKind::Jit);
  Clock::time_point T0 = Clock::now();
  for (unsigned Round = 0; Round < 3 || secondsSince(T0) < Seconds;
       ++Round) {
    SpanScope R(Spans, "round", Parent);
    for (size_t PI : seededOrder(Programs.size(), Order)) {
      const Prepared &P = Programs[PI];
      LayerSample &L = Ls[PI];
      for (size_t V : seededOrder(NumVariants, Order)) {
        double Start = Spans.now();
        Session S = V == Captured ? runCaptured(P, Base, L.Stream, Out)
                                  : runSession(P, Options[V]);
        Spans.add(VariantSpan[V], R.id(), L.Name, Start, Start + S.Seconds);
        countSession(S, P, VariantSpan[V], Out);
        L.Times[V].push_back(S.Seconds);
        L.Stats[V] = S.Stats;
        if (V == Captured)
          L.CapturedVm = std::move(S.VM);
      }
      countCheck(L.Stats[OtherBackend].digest() == L.Stats[Default].digest(),
                 L.Name + ": the jit and interp backends disagree on the "
                          "VmStats digest",
                 Out);
    }
  }
  for (LayerSample &L : Ls) {
    L.InterpS = L.median(BaseJit ? OtherBackend : Default);
    L.JitS = L.median(BaseJit ? Default : OtherBackend);
  }
  for (size_t PI : seededOrder(Programs.size(), Order))
    runOneOffs(Programs[PI], Base, Spans, Parent, Ls[PI], Out);
  report(Ls, Out);
}

} // namespace perfbench
