//===- Profiler.h - Phase-attributed wall/CPU profiler ----------*- C++ -*-===//
///
/// \file
/// Per-thread, phase-attributed wall *and* CPU time accounting. The phase
/// stack comes for free from the existing ScopedSpan nesting: every span
/// open/close calls PhaseProfiler::global().enterPhase()/exitPhase() when
/// profiling is on, and the profiler keeps one call tree per thread whose
/// paths are span names joined by ';' (the folded-stack convention). Each
/// completed phase charges:
///
///  - self wall/CPU ns  — interval minus time spent in child phases,
///  - total wall/CPU ns — the full interval (inclusive),
///  - a completion count.
///
/// CPU time is CLOCK_THREAD_CPUTIME_ID, so a phase that sleeps (e.g. the
/// driver's `er.redeploy_wait` reoccurrence simulation) shows wall time
/// with near-zero CPU — exactly the signal the fleet-scaling diagnosis
/// needs (which worker seconds are compute vs. wait).
///
/// Cost model (mirrors Tracer.h): profiling is compiled in but *disabled
/// by default*. A span with tracer and profiler both off costs two relaxed
/// atomic loads and nothing else — gated in bench_obs_overhead at <= 2x
/// the disabled-span baseline. Enabled enter/exit is two clock reads plus
/// a per-thread tree walk; no global lock on the hot path (tree-structure
/// growth takes a per-thread mutex, counter updates are lock-free atomics),
/// so a live `/profile` scrape never blocks workers.
///
/// Determinism: like spans and metrics, profiles are write-only side
/// channels — enabling profiling never changes reconstruction results,
/// seeds, or cache contents (tests/ObsTest.cpp proves byte-identity).
///
/// Exports: folded-stack text ("a;b;c <self-wall-ns>") for flamegraph
/// tooling, a JSON report (`--profile-out`, `GET /profile`), and a pretty
/// table (`er_cli profile`).
///
//===----------------------------------------------------------------------===//

#ifndef ER_OBS_PROFILER_H
#define ER_OBS_PROFILER_H

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace er {
namespace obs {

class MetricsRegistry;

/// Thread CPU time (CLOCK_THREAD_CPUTIME_ID) in nanoseconds for the
/// calling thread. Also used by FleetScheduler's worker accounting.
uint64_t threadCpuTimeNs();

/// Point-in-time process resource usage (scrape-target hygiene — the
/// numbers Prometheus exporters conventionally publish as process_*).
/// Fields a platform cannot provide read -1.
struct ProcessStats {
  int64_t RssBytes = -1;   ///< Resident set size.
  int64_t CpuSeconds = -1; ///< User + system CPU, whole seconds.
  int64_t OpenFds = -1;    ///< Open file descriptors.
  int64_t Threads = -1;    ///< OS threads in the process.
};

ProcessStats readProcessStats();

/// Samples readProcessStats() into the gauges obs.proc.{rss_bytes,
/// cpu_seconds,open_fds,threads} (Prometheus rows obs_proc_*). The
/// collector daemon calls this once per cycle; unavailable fields are
/// left unset so they never export a bogus 0/-1.
void sampleProcessGauges(MetricsRegistry &Reg);

/// One aggregated phase path in a profile snapshot.
struct ProfilePhase {
  /// Folded path: span names from the thread root joined by ';'
  /// (e.g. "fleet.campaign.step;er.iteration;er.symex").
  std::string Path;
  uint32_t Depth = 0; ///< Segments in Path minus one.
  uint64_t Count = 0; ///< Completed enter/exit pairs.
  uint64_t SelfWallNs = 0;
  uint64_t SelfCpuNs = 0;
  uint64_t TotalWallNs = 0; ///< Inclusive; recursion double-counts.
  uint64_t TotalCpuNs = 0;
};

/// Merged-across-threads profile. Only *completed* phases are counted —
/// a snapshot taken mid-span omits the open frame (its time lands when
/// the span closes).
struct ProfileSnapshot {
  std::vector<ProfilePhase> Phases; ///< Sorted by Path.
  uint64_t Threads = 0;             ///< Threads that recorded any phase.
  uint64_t TruncatedFrames = 0;     ///< Frames beyond the depth cap.
};

/// Per-thread phase-tree profiler. One global() instance is fed by every
/// ScopedSpan; tests may construct their own and drive
/// enterPhase/exitPhase directly.
class PhaseProfiler {
public:
  /// Frames nested deeper than this are timed into their parent but not
  /// given tree nodes (guards against unbounded paths).
  static constexpr size_t MaxDepth = 64;

  PhaseProfiler();
  ~PhaseProfiler();

  PhaseProfiler(const PhaseProfiler &) = delete;
  PhaseProfiler &operator=(const PhaseProfiler &) = delete;

  /// Master switch. Off: enterPhase/exitPhase are never called by
  /// ScopedSpan (one relaxed load there decides).
  void setEnabled(bool On) { Enabled.store(On, std::memory_order_relaxed); }
  bool enabled() const { return Enabled.load(std::memory_order_relaxed); }

  /// Opens a phase on the calling thread's stack. Callers must pair every
  /// enterPhase with exitPhase on the same thread (ScopedSpan does).
  void enterPhase(std::string_view Name);
  /// Closes the innermost phase and charges self/total wall+CPU time.
  void exitPhase();

  /// Merges every thread's completed phases. Safe to call concurrently
  /// with enterPhase/exitPhase on other threads (the live `/profile`
  /// scrape path).
  ProfileSnapshot snapshot() const;

  /// Zeroes every accumulated counter. Tree structure is retained (open
  /// frames may still reference nodes), so cleared paths just vanish
  /// from snapshots until they complete again.
  void clear();

  /// Replaces both clocks for deterministic golden-file tests. Pass
  /// empty functions to restore the real clocks.
  void setClocksForTesting(std::function<uint64_t()> Wall,
                           std::function<uint64_t()> Cpu);

  static PhaseProfiler &global();

private:
  struct PhaseNode;
  struct ThreadState;

  ThreadState &stateForThisThread();
  uint64_t wallNowNs() const;
  uint64_t cpuNowNs() const;

  std::atomic<bool> Enabled{false};
  /// This instance's id in a process-wide sequence; keys the per-thread
  /// state cache so a new profiler at a recycled address never aliases.
  const uint64_t InstanceId;

  /// Guards the thread-state registry and the test clocks (cold paths:
  /// first phase on a thread, snapshot, clear).
  mutable std::mutex RegMu;
  std::map<uint32_t, std::shared_ptr<ThreadState>> Threads; ///< By tracer tid.
  std::function<uint64_t()> TestWall, TestCpu;
  std::atomic<bool> HasTestClocks{false};
};

//===----------------------------------------------------------------------===//
// Exporters
//===----------------------------------------------------------------------===//

/// Folded-stack text: one "path value" line per phase, value = self wall
/// nanoseconds (the flamegraph.pl / inferno input format). Lines are
/// sorted by path; zero-count phases are omitted.
std::string profileToFolded(const ProfileSnapshot &S);

/// Single JSON document:
/// {"meta":"er-profile","threads":N,"truncated_frames":N,
///  "phases":[{"path":"a;b","depth":1,"count":C,"self_wall_ns":...,
///             "self_cpu_ns":...,"total_wall_ns":...,"total_cpu_ns":...}]}
std::string profileToJson(const ProfileSnapshot &S);

/// Strict parser for profileToJson output — what `er_cli profile` reads
/// back. False + message on any structural or type mismatch.
bool parseProfileJson(std::string_view Text, ProfileSnapshot &Out,
                      std::string *Error = nullptr);

/// Pretty table (er_cli profile / stats): one row per path, indented by
/// depth, with count, self/total wall ms, self CPU ms, and CPU/wall %.
std::string renderProfileSummary(const ProfileSnapshot &S);

/// Snapshot-and-write convenience used by --profile-out.
bool exportProfileJson(const PhaseProfiler &P, const std::string &Path,
                       std::string *Error = nullptr);
bool exportProfileFolded(const PhaseProfiler &P, const std::string &Path,
                         std::string *Error = nullptr);

} // namespace obs
} // namespace er

#endif // ER_OBS_PROFILER_H
