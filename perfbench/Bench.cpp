//===- Bench.cpp - Shared pieces of the ER benchmark driver ---------------===//

#include "Bench.h"

#include "trace/Trace.h"
#include "vm/Interpreter.h"

#include <algorithm>
#include <atomic>
#include <cstdarg>
#include <cstdio>
#include <fstream>
#include <sys/resource.h>

namespace perfbench {

//===--- Metric catalogue ----------------------------------------------===//

const std::vector<MetricDef> &endToEndMetrics() {
  static const std::vector<MetricDef> Defs = {
      {"wall_s", "s"},
      {"setup_s", "s"},
  };
  return Defs;
}

const std::vector<MetricDef> &perLayerMetrics() {
  static const std::vector<MetricDef> Defs = {
      // The workload-specific end-to-end figures, from the untraced pass
      // of the traced run (0 on workloads they do not apply to).
      {"reconstruct_s", "s"},
      {"occurrences", "count"},
      {"campaigns_per_min", "1/min"},
      {"campaign_latency_s.p50", "s"},
      {"campaign_latency_s.p90", "s"},
      {"campaign_latency_s.n", "count"},
      {"write_rec_per_s", "rec/s"},
      {"drain_rec_per_s", "rec/s"},
      {"failed_frac", "ratio"},
      // Process high-water RSS: seed-dependent on fleet-wait (130-230 MiB
      // across corpora), so it cannot carry an end-to-end bound.
      {"peak_rss_mb", "MiB"},
      // Layers.
      {"lang.compile_s", "s"},
      {"gen.corpus_s", "s"},
      {"vm.runs", "count"},
      {"vm.instr_per_s", "instr/s"},
      {"er.online_s", "s"},
      {"trace.bytes", "B"},
      {"trace.decode_mb_per_s", "MB/s"},
      {"symex.busy_s", "s"},
      {"symex.self_s", "s"},
      {"symex.instrs", "count"},
      {"symex.stall_ratio", "ratio"},
      {"solver.queries", "count"},
      {"solver.busy_s", "s"},
      {"solver.lower_blast_s", "s"},
      {"solver.work", "count"},
      {"solver.timeouts", "count"},
      {"solver.sat.busy_s", "s"},
      {"solver.sat.conflicts", "count"},
      {"solver.cache.hit_rate", "ratio"},
      {"solver.incr.work_reused", "count"},
      {"er.iterations", "count"},
      {"er.validation_failures", "count"},
      {"er.unattributed_s", "s"},
      {"selection.busy_s", "s"},
      {"selection.graph_nodes", "count"},
      {"selection.recording_cost", "B"},
      {"fleet.busy_frac", "ratio"},
      {"fleet.cpu_s", "s"},
      {"fleet.critical_path_s", "s"},
      {"fleet.queue_wait_s.p50", "s"},
      {"fleet.queue_wait_s.p90", "s"},
      {"fleet.lock_wait_s", "s"},
      {"ingest.flush_s", "s"},
      {"ingest.drain_s", "s"},
      {"ingest.claim_s", "s"},
      {"ingest.decode_s", "s"},
      {"ingest.crc_mb_per_s", "MB/s"},
      {"ingest.submit_s", "s"},
      {"ingest.records.duplicates", "count"},
      {"ingest.files.quarantined", "count"},
      {"ingest.claim.retries", "count"},
      {"obs.trace_overhead_frac", "ratio"},
  };
  return Defs;
}

//===--- Small statistics ----------------------------------------------===//

double median(std::vector<double> V) { return quantile(std::move(V), 0.5); }

double quantile(std::vector<double> V, double Q) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  if (Q <= 0)
    return V.front();
  if (Q >= 1)
    return V.back();
  if (Q == 0.5 && V.size() % 2 == 0)
    return 0.5 * (V[V.size() / 2 - 1] + V[V.size() / 2]);
  size_t Rank = static_cast<size_t>(Q * V.size() + 0.999999999);
  return V[std::min(V.size(), std::max<size_t>(Rank, 1)) - 1];
}

double peakRssMiB() {
  struct rusage RU {};
  getrusage(RUSAGE_SELF, &RU);
  return RU.ru_maxrss / 1024.0; // ru_maxrss is in KiB on Linux.
}

std::string fmt(const char *Format, ...) {
  char Buf[512];
  va_list Ap;
  va_start(Ap, Format);
  std::vsnprintf(Buf, sizeof(Buf), Format, Ap);
  va_end(Ap);
  return Buf;
}

//===--- obs snapshot deltas -------------------------------------------===//

namespace {
uint64_t histSum(const er::obs::MetricsSnapshot &S, std::string_view Name) {
  const er::obs::HistogramValue *H = S.histogram(Name);
  return H ? H->Sum : 0;
}
} // namespace

ObsCounters ObsCounters::capture() {
  er::obs::MetricsSnapshot S = er::obs::MetricsRegistry::global().snapshot();
  ObsCounters C;
  C.Timeouts = S.counterValue("solver.queries.timeout");
  C.Queries = S.counterValue("solver.queries.sat") +
              S.counterValue("solver.queries.unsat") + C.Timeouts;
  C.SolverUs = histSum(S, "solver.query.us");
  C.SolverWork = histSum(S, "solver.query.work");
  C.SatUs = histSum(S, "sat.solve.us");
  C.SatConflicts = histSum(S, "sat.solve.conflicts");
  C.IncrWorkReused = S.counterValue("solver.incr.work_reused");
  C.ProductionRuns = S.counterValue("er.production_runs");
  C.ValidationFailures = S.counterValue("er.validation_failures");
  for (const er::obs::HistogramValue &H : S.Histograms) {
    std::string_view N = H.Name;
    if (N.starts_with("obs.lock.") && N.ends_with(".wait_ns"))
      C.LockWaitNs += H.Sum;
  }
  return C;
}

ObsCounters ObsCounters::operator-(const ObsCounters &O) const {
  ObsCounters D;
  D.Queries = Queries - O.Queries;
  D.Timeouts = Timeouts - O.Timeouts;
  D.SolverUs = SolverUs - O.SolverUs;
  D.SolverWork = SolverWork - O.SolverWork;
  D.SatUs = SatUs - O.SatUs;
  D.SatConflicts = SatConflicts - O.SatConflicts;
  D.IncrWorkReused = IncrWorkReused - O.IncrWorkReused;
  D.ProductionRuns = ProductionRuns - O.ProductionRuns;
  D.ValidationFailures = ValidationFailures - O.ValidationFailures;
  D.LockWaitNs = LockWaitNs - O.LockWaitNs;
  return D;
}

//===--- Golden digests ------------------------------------------------===//

uint64_t testCaseHash(const er::ProgramInput &In) {
  uint64_t H = 0xcbf29ce484222325ULL;
  auto Mix = [&H](uint64_t V, unsigned Bytes) {
    for (unsigned I = 0; I < Bytes; ++I) {
      H ^= (V >> (8 * I)) & 0xff;
      H *= 0x100000001b3ULL;
    }
  };
  Mix(In.Args.size(), 8);
  for (uint64_t A : In.Args)
    Mix(A, 8);
  Mix(In.Bytes.size(), 8);
  for (uint8_t B : In.Bytes)
    Mix(B, 1);
  return H;
}

namespace {
std::string keyOf(const std::string &Line) {
  return Line.substr(0, Line.find(' '));
}

uint64_t timeoutsOf(const std::string &Line) {
  size_t At = Line.find(" timeouts=");
  return At == std::string::npos ? 0 : std::stoull(Line.substr(At + 10));
}
} // namespace

uint64_t checkGolden(const Options &Opt, uint64_t Seed,
                     const std::vector<std::string> &Lines, bool &Have,
                     std::vector<std::string> &Report) {
  std::string Path = Opt.GoldenDir + "/" + Opt.Workload + ".seed" +
                     std::to_string(Seed) + ".txt";
  if (Opt.WriteGolden) {
    std::ofstream OS(Path, std::ios::trunc);
    for (const std::string &L : Lines)
      OS << L << "\n";
    Have = static_cast<bool>(OS);
    Report.push_back("golden: wrote " + Path);
    return Have ? 0 : Lines.size();
  }
  uint64_t GotTimeouts = 0, WantTimeouts = 0;
  for (const std::string &L : Lines)
    GotTimeouts += timeoutsOf(L);
  std::ifstream IS(Path);
  Have = static_cast<bool>(IS);
  if (!Have) {
    Report.push_back(fmt("solver.timeouts = %llu (no golden for seed %llu; "
                         "outputs checked by replay and pass-to-pass "
                         "identity)",
                         (unsigned long long)GotTimeouts,
                         (unsigned long long)Seed));
    return 0;
  }
  std::map<std::string, std::string> Want;
  for (std::string L; std::getline(IS, L);)
    if (!L.empty()) {
      Want[keyOf(L)] = L;
      WantTimeouts += timeoutsOf(L);
    }
  Report.push_back(fmt("solver.timeouts = %llu (golden %llu)",
                       (unsigned long long)GotTimeouts,
                       (unsigned long long)WantTimeouts));
  uint64_t Bad = 0;
  for (const std::string &L : Lines) {
    auto It = Want.find(keyOf(L));
    if (It == Want.end() || It->second != L) {
      ++Bad;
      Report.push_back("golden MISMATCH: got  " + L);
      Report.push_back("                 want " +
                       (It == Want.end() ? std::string("(none)")
                                         : It->second));
    }
    if (It != Want.end())
      Want.erase(It);
  }
  for (const auto &[Key, L] : Want) {
    ++Bad;
    Report.push_back("golden MISMATCH: missing " + L);
  }
  Report.push_back(fmt("golden: %zu campaign(s) checked against %s, %llu "
                       "mismatch(es)",
                       Lines.size(), Path.c_str(), (unsigned long long)Bad));
  return Bad;
}

uint64_t diffLines(const std::vector<std::string> &First,
                   const std::vector<std::string> &Got, const char *What,
                   std::vector<std::string> &Out) {
  uint64_t Bad = 0;
  for (size_t I = 0; I < std::max(First.size(), Got.size()); ++I) {
    const std::string &A = I < First.size() ? First[I] : std::string();
    const std::string &B = I < Got.size() ? Got[I] : std::string();
    if (A == B)
      continue;
    if (++Bad <= 5)
      Out.push_back(std::string(What) + " differs: got \"" + B +
                    "\", first pass \"" + A + "\"");
  }
  return Bad;
}

//===--- Reconstruction outputs ----------------------------------------===//

void IterationTotals::add(const er::ReconstructionReport &R) {
  Occurrences += R.Occurrences;
  for (const er::IterationReport &IR : R.Iterations) {
    ++Iterations;
    Stalled += IR.Status == er::SymexStatus::Stalled;
    SymexInstrs += IR.SymexInstrs;
    TraceBytes += IR.Trace.BytesWritten;
    GraphNodes += IR.GraphNodes;
    RecordingCost += IR.RecordingCost;
    SymexSeconds += IR.SymexSeconds;
    SelectionSeconds += IR.SelectionSeconds;
  }
}

bool replayReproduces(const er::Module &M, const er::DriverConfig &DC,
                      const er::ReconstructionReport &R,
                      const std::string &Id, ReplayStats *Stats) {
  if (!R.Success)
    return false;
  er::VmConfig VC = DC.Vm;
  VC.ScheduleSeed = R.ReplayScheduleSeed;
  if (R.Sched.Used && R.Sched.ExplicitOrder)
    VC.ExplicitSchedule = &R.Sched.Order;
  er::RunResult RR = er::Interpreter(M, VC).run(R.TestCase);
  bool Ok = RR.Status == er::ExitStatus::Failure &&
            RR.Failure.sameFailure(R.Failure);
  if (!Stats)
    return Ok;

  // Single replays last microseconds; repeat them so the per-layer rates
  // rest on milliseconds.
  constexpr unsigned Repeats = 20;
  {
    Scope S("vm.replay", Id);
    auto T0 = Clock::now();
    for (unsigned I = 0; I < Repeats; ++I)
      Stats->Instrs += er::Interpreter(M, VC).run(R.TestCase).InstrCount;
    Stats->RunSeconds += secondsSince(T0);
  }
  er::TraceRecorder Rec(DC.Trace);
  er::Interpreter(M, VC).run(R.TestCase, &Rec);
  Scope S("trace.decode", Id);
  auto T0 = Clock::now();
  size_t Events = 0;
  for (unsigned I = 0; I < Repeats; ++I)
    for (const er::DecodedThread &T : Rec.decode().Threads)
      Events += T.Events.size();
  Stats->DecodeSeconds += secondsSince(T0);
  Stats->TraceBytes += Events ? Repeats * Rec.bytesLive() : 0;
  return Ok;
}

void fillReconstructionLayers(MetricMap &L, const IterationTotals &T,
                              const ObsCounters &D, const ReplayStats &RS) {
  double SolverBusy = D.SolverUs / 1e6, SatBusy = D.SatUs / 1e6;
  L["occurrences"] = T.Occurrences;
  L["vm.runs"] = D.ProductionRuns;
  L["vm.instr_per_s"] = RS.RunSeconds > 0 ? RS.Instrs / RS.RunSeconds : 0;
  L["trace.bytes"] = T.TraceBytes;
  L["trace.decode_mb_per_s"] =
      RS.DecodeSeconds > 0 ? RS.TraceBytes / 1e6 / RS.DecodeSeconds : 0;
  L["symex.busy_s"] = T.SymexSeconds;
  L["symex.self_s"] = T.SymexSeconds - SolverBusy;
  L["symex.instrs"] = T.SymexInstrs;
  L["symex.stall_ratio"] =
      T.Iterations ? static_cast<double>(T.Stalled) / T.Iterations : 0;
  L["solver.queries"] = D.Queries;
  L["solver.busy_s"] = SolverBusy;
  L["solver.lower_blast_s"] = SolverBusy - SatBusy;
  L["solver.work"] = D.SolverWork;
  L["solver.timeouts"] = D.Timeouts;
  L["solver.sat.busy_s"] = SatBusy;
  L["solver.sat.conflicts"] = D.SatConflicts;
  L["solver.incr.work_reused"] = D.IncrWorkReused;
  L["er.iterations"] = T.Iterations;
  L["er.validation_failures"] = D.ValidationFailures;
  L["selection.busy_s"] = T.SelectionSeconds;
  L["selection.graph_nodes"] = T.GraphNodes;
  L["selection.recording_cost"] = T.RecordingCost;
}

//===--- Spans ---------------------------------------------------------===//

namespace {
std::atomic<uint64_t> LastSpan{0};
std::atomic<uint64_t> SpanNs{0};
thread_local std::vector<uint64_t> OpenSpans;

uint64_t argU64(const er::obs::SpanRecord &S, std::string_view Key) {
  for (const er::obs::SpanArg &A : S.Args)
    if (A.Key == Key)
      return A.U64;
  return 0;
}
} // namespace

er::obs::PipelineTracer &tracer() {
  static er::obs::PipelineTracer T(1 << 18);
  return T;
}

double spanSeconds() { return SpanNs.load() / 1e9; }

Scope::Scope(const char *Name, std::string_view Id) {
  if (!tracer().enabled())
    return;
  auto T0 = Clock::now();
  Number = ++LastSpan;
  Span.emplace(tracer(), Name, "perfbench");
  Span->arg("span", Number);
  Span->arg("parent", OpenSpans.empty() ? 0 : OpenSpans.back());
  Span->arg("id", Id);
  OpenSpans.push_back(Number);
  SpanNs += std::chrono::nanoseconds(Clock::now() - T0).count();
}

Scope::~Scope() {
  if (!Span)
    return;
  auto T0 = Clock::now();
  OpenSpans.pop_back();
  Span.reset();
  SpanNs += std::chrono::nanoseconds(Clock::now() - T0).count();
}

void recordSpan(const char *Name, std::string_view Id, uint64_t StartNs,
                uint64_t EndNs, uint32_t Tid, uint64_t Parent) {
  auto T0 = Clock::now();
  er::obs::SpanRecord R;
  R.Name = Name;
  R.Cat = "perfbench";
  R.StartNs = StartNs;
  R.DurNs = EndNs - StartNs;
  R.Tid = Tid;
  R.Args.resize(3);
  R.Args[0].Key = "span";
  R.Args[0].U64 = ++LastSpan;
  R.Args[1].Key = "parent";
  R.Args[1].U64 = Parent;
  R.Args[2].Key = "id";
  R.Args[2].Str = Id;
  R.Args[2].IsString = true;
  tracer().record(std::move(R));
  SpanNs += std::chrono::nanoseconds(Clock::now() - T0).count();
}

std::vector<std::string> selfTimeTable(
    const std::vector<er::obs::SpanRecord> &Spans) {
  std::map<uint64_t, std::vector<const er::obs::SpanRecord *>> Children;
  for (const er::obs::SpanRecord &S : Spans)
    if (uint64_t P = argU64(S, "parent"))
      Children[P].push_back(&S);

  struct Row {
    uint64_t Count = 0;
    double Busy = 0, Self = 0;
  };
  std::map<std::string, Row> Rows;
  for (const er::obs::SpanRecord &S : Spans) {
    uint64_t Start = S.StartNs, End = S.StartNs + S.DurNs;
    // Subtract the union of the children's intervals, clipped to the
    // parent.
    std::vector<std::pair<uint64_t, uint64_t>> Iv;
    for (const er::obs::SpanRecord *C : Children[argU64(S, "span")])
      Iv.emplace_back(std::max(C->StartNs, Start),
                      std::min(C->StartNs + C->DurNs, End));
    std::sort(Iv.begin(), Iv.end());
    uint64_t Covered = 0, Reach = Start;
    for (auto [B, E] : Iv) {
      B = std::max(B, Reach);
      if (E > B) {
        Covered += E - B;
        Reach = E;
      }
    }
    Row &R = Rows[S.Name];
    ++R.Count;
    R.Busy += S.DurNs / 1e9;
    R.Self += (S.DurNs - std::min(S.DurNs, Covered)) / 1e9;
  }
  std::vector<std::string> Out;
  Out.push_back(fmt("%-28s %9s %12s %12s", "span", "count", "busy (s)",
                    "self (s)"));
  for (const auto &[Name, R] : Rows)
    Out.push_back(fmt("%-28s %9llu %12.4f %12.4f", Name.c_str(),
                      (unsigned long long)R.Count, R.Busy, R.Self));
  return Out;
}

} // namespace perfbench
