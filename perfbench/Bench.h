//===- Bench.h - Shared pieces of the ER benchmark driver -------*- C++ -*-===//
///
/// \file
/// The benchmark measures the program from the outside: it calls the
/// public entry points of lang, gen, vm, trace, er, fleet and ingest, times
/// each call, and reads what those calls return or what obs already
/// exports. This header holds what the three workloads share: options,
/// the metric catalogue, obs snapshot deltas, golden digests and the
/// spans behind `--trace 1`.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_BENCH_H
#define PERFBENCH_BENCH_H

#include "er/Driver.h"
#include "obs/Metrics.h"
#include "obs/Tracer.h"

#include <chrono>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double secondsSince(Clock::time_point T0) {
  return std::chrono::duration<double>(Clock::now() - T0).count();
}

struct Options {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 20;
  bool Trace = false;
  /// Rewrite the golden digest file for (workload, seed) instead of
  /// checking against it.
  bool WriteGolden = false;
  std::string GoldenDir = "perfbench/golden";
  /// Scratch space inside the checkout: spools, traces, layer tables.
  std::string WorkDir = ".bench_build/perfbench-work";
};

/// Metric name -> value; units live in the catalogue (Bench.cpp).
using MetricMap = std::map<std::string, double>;

/// What one workload run hands back to main().
struct Result {
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  /// Medians of the timed passes, measured with tracing off.
  double WallSeconds = 0;
  double SetupSeconds = 0;
  /// Per-layer figures (filled only by the traced run); every name must
  /// be in the per-layer catalogue.
  MetricMap Layers;
  /// Human-readable lines printed before the JSON result.
  std::vector<std::string> Report;
};

Result runTable1(const Options &Opt);
Result runFleet(const Options &Opt);
Result runIngest(const Options &Opt);

//===--- Metric catalogue ---------------------------------------------===//

struct MetricDef {
  const char *Name;
  const char *Unit;
};

/// The end-to-end metrics every workload reports with `--trace 0`.
const std::vector<MetricDef> &endToEndMetrics();
/// The per-layer metrics every workload reports with `--trace 1` (0 where
/// the workload bypasses the layer).
const std::vector<MetricDef> &perLayerMetrics();

//===--- Small statistics ---------------------------------------------===//

double median(std::vector<double> V);
/// Nearest-rank quantile, \p Q in [0, 1]; 0 for an empty sample.
double quantile(std::vector<double> V, double Q);
double peakRssMiB();
std::string fmt(const char *Format, ...) __attribute__((format(printf, 1, 2)));

/// Runs \p Step at least \p MinRounds times and until \p MinSeconds of
/// wall time has passed, appending the duration of each call to \p Times.
/// Workloads also time set-up rounds between their timed passes, so that
/// `setup_s` samples the same stretch of the run as `wall_s`.
template <typename F>
void timeRounds(unsigned MinRounds, double MinSeconds,
                std::vector<double> &Times, F &&Step) {
  auto Start = Clock::now();
  for (unsigned N = 0; N < MinRounds || secondsSince(Start) < MinSeconds;
       ++N) {
    auto T0 = Clock::now();
    Step();
    Times.push_back(secondsSince(T0));
  }
}

//===--- obs snapshot deltas -------------------------------------------===//

/// The program's exported counters and histogram sums that the per-layer
/// table reads, captured at one instant. Subtracting two captures gives
/// the work done between them.
struct ObsCounters {
  uint64_t Queries = 0;       ///< solver.queries.{sat,unsat,timeout}
  uint64_t Timeouts = 0;      ///< solver.queries.timeout
  uint64_t SolverUs = 0;      ///< sum of solver.query.us
  uint64_t SolverWork = 0;    ///< sum of solver.query.work
  uint64_t SatUs = 0;         ///< sum of sat.solve.us
  uint64_t SatConflicts = 0;  ///< sum of sat.solve.conflicts
  uint64_t IncrWorkReused = 0;
  uint64_t ProductionRuns = 0;
  uint64_t ValidationFailures = 0;
  uint64_t LockWaitNs = 0;    ///< sum over obs.lock.*.wait_ns

  static ObsCounters capture();
  ObsCounters operator-(const ObsCounters &O) const;
};

//===--- Golden digests ------------------------------------------------===//

/// FNV-1a over a test case's arguments and bytes.
uint64_t testCaseHash(const er::ProgramInput &In);

/// Compares one line per campaign, keyed by its first field, against
/// `<GoldenDir>/<workload>.seed<N>.txt` (or writes that file under
/// --write-golden). Returns the number of campaigns whose line differs
/// from, or is missing in, the golden file; \p Have says whether a golden
/// file exists for this seed at all. Also prints the run's solver.timeouts (summed `timeouts=` fields) next
/// to the golden value.
uint64_t checkGolden(const Options &Opt, uint64_t Seed,
                     const std::vector<std::string> &Lines, bool &Have,
                     std::vector<std::string> &Report);

/// Counts the lines of \p Got that differ from \p First (a missing or
/// extra line counts too) and reports the first few in \p Out.
uint64_t diffLines(const std::vector<std::string> &First,
                   const std::vector<std::string> &Got, const char *What,
                   std::vector<std::string> &Out);

//===--- Reconstruction outputs ----------------------------------------===//

/// Sums over the iteration reports of finished campaigns.
struct IterationTotals {
  uint64_t Occurrences = 0;
  uint64_t Iterations = 0;
  uint64_t Stalled = 0;
  uint64_t SymexInstrs = 0;
  uint64_t TraceBytes = 0;
  uint64_t GraphNodes = 0;
  uint64_t RecordingCost = 0;
  double SymexSeconds = 0;
  double SelectionSeconds = 0;
  void add(const er::ReconstructionReport &R);
};

/// Timings taken while replaying test cases in the traced run.
struct ReplayStats {
  uint64_t Instrs = 0;
  double RunSeconds = 0;
  uint64_t TraceBytes = 0;
  double DecodeSeconds = 0;
};

/// Replays \p R's test case on \p M through Interpreter::run under the
/// schedule the reconstruction validated it with; true when the run fails
/// with R.Failure (FailureRecord::sameFailure). With \p Stats, also times
/// repeated replays (vm) and TraceRecorder::decode of a recorded replay
/// (trace) under spans tagged \p Id.
bool replayReproduces(const er::Module &M, const er::DriverConfig &DC,
                      const er::ReconstructionReport &R,
                      const std::string &Id, ReplayStats *Stats);

/// Fills the layer metrics both reconstruction workloads share from the
/// iteration sums, the obs deltas over the traced pass, and replay
/// timings.
void fillReconstructionLayers(MetricMap &L, const IterationTotals &T,
                              const ObsCounters &D, const ReplayStats &RS);

//===--- Spans (`--trace 1`) -------------------------------------------===//

/// The benchmark's own tracer. The program's global tracer stays off, so
/// every span of a traced run comes from the benchmark's files. Each span
/// carries three args: `span` (its number), `parent` (the enclosing span's
/// number, 0 at top level) and `id` (bug, campaign, writer or file).
er::obs::PipelineTracer &tracer();

/// Seconds spent opening, closing and recording spans: the cost tracing
/// adds to a run.
double spanSeconds();

/// RAII span on tracer(); a no-op while tracing is off. Its parent is the
/// innermost Scope open on this thread.
class Scope {
public:
  explicit Scope(const char *Name, std::string_view Id = {});
  ~Scope();
  Scope(const Scope &) = delete;
  Scope &operator=(const Scope &) = delete;
  uint64_t number() const { return Number; }

private:
  std::optional<er::obs::ScopedSpan> Span;
  uint64_t Number = 0;
};

/// Records an interval timed elsewhere (a fleet worker interval, in
/// tracer() nanoseconds) as a child of span \p Parent.
void recordSpan(const char *Name, std::string_view Id, uint64_t StartNs,
                uint64_t EndNs, uint32_t Tid, uint64_t Parent);

/// Busy and self seconds per span name; self is the duration minus the
/// union of its children's intervals (children may run in parallel).
std::vector<std::string> selfTimeTable(
    const std::vector<er::obs::SpanRecord> &Spans);

} // namespace perfbench

#endif // PERFBENCH_BENCH_H
