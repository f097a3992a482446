//===- FleetScheduler.h - Fleet-wide reconstruction service -----*- C++ -*-===//
///
/// \file
/// The fleet-side layer the paper assumes but the single-campaign driver
/// lacks: a service that collects failure reports from many production
/// machines, deduplicates them into per-bug *campaigns* via
/// FailureSignature, triages the campaigns by how often each failure
/// reoccurs, and runs up to N ReconstructionSession campaigns concurrently.
///
/// Isolation and determinism:
///  - Every campaign compiles its own Module and owns its own
///    ExprContext/ConstraintSolver (neither is thread-safe); campaigns
///    share *only* the sharded, thread-safe SolverResultCache, whose
///    answers are byte-identical to fresh solves.
///  - Each campaign's DriverConfig seed is derived once, at submission,
///    with Rng::split(root seed, signature digest). Seeds therefore depend
///    on *what* failed, never on scheduling order — the same root seed
///    produces byte-identical per-campaign test cases at any --jobs level.
///
/// Persistence: saveState/loadState serialize the triage queue and every
/// finished campaign (report, test case, recording set) to a line-oriented
/// text format (docs/FLEET.md), so a killed scheduler resumes triage
/// without re-consuming failure occurrences.
///
//===----------------------------------------------------------------------===//

#ifndef ER_FLEET_FLEETSCHEDULER_H
#define ER_FLEET_FLEETSCHEDULER_H

#include "er/Driver.h"
#include "fleet/FailureSignature.h"
#include "obs/LockProfiler.h"
#include "solver/SolverCache.h"
#include "workloads/Workloads.h"

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

namespace er {

/// One failure occurrence reported by a fleet machine.
///
/// MachineId and Sequence identify the *delivery*, not the failure: the
/// ingestion layer (src/ingest/) dedups redelivered reports by
/// (MachineId, Sequence) before they reach the scheduler, which buckets
/// purely by failure identity and ignores both fields.
struct FleetFailureReport {
  std::string BugId; ///< Workload the machine was running.
  FailureRecord Failure;
  /// Reporting machine (0 = unspecified / in-process).
  uint64_t MachineId = 0;
  /// Per-machine monotonic delivery sequence number (1-based; 0 =
  /// unsequenced / in-process).
  uint64_t Sequence = 0;
  /// Lifecycle trace id of the delivery that carried this report
  /// (docs/OBSERVABILITY.md, "Lifecycle tracing"). In-memory only — never
  /// wire-encoded or persisted, so traced and untraced ingestion produce
  /// byte-identical spool frames and state files. 0/0 = untraced.
  uint64_t TraceHi = 0;
  uint64_t TraceLo = 0;
};

/// Preemption policy for the incremental (stepCampaigns) mode. When every
/// worker slot is busy and a *hot* pending bucket appears — its occurrence
/// count at or above HotOccurrences and strictly above the weakest active
/// campaign's — the weakest active campaign is checkpointed in place and
/// suspended, its slot is given to the hot bucket, and it resumes later
/// exactly where it left off. Results are byte-identical either way (each
/// campaign is isolated; see docs/FLEET.md); preemption only changes
/// *when* the hot failure's test case arrives.
struct PreemptConfig {
  bool Enabled = false;
  /// A pending bucket at or above this occurrence count may preempt.
  /// 0 = any pending bucket that outranks an active one qualifies.
  uint64_t HotOccurrences = 4;
  /// Steps an active campaign must have run before it can be preempted
  /// (guards against thrashing a slot that just started).
  unsigned MinStepsBeforePreempt = 1;
};

/// Service tuning.
struct FleetConfig {
  /// Concurrent reconstruction campaigns.
  unsigned Jobs = 1;
  /// Root seed; per-campaign seeds are split off it by signature digest.
  uint64_t RootSeed = 20260807;
  /// Base driver tuning; per-campaign knobs (solver budget, VM chunk size,
  /// seed) are overridden from the campaign's BugSpec and signature.
  DriverConfig DriverBase;
  /// Share one memoizing solver cache across all campaigns.
  bool ShareSolverCache = true;
  SolverCacheConfig Cache;
  PreemptConfig Preempt;
};

/// One deduplicated failure bucket and (once run) its reconstruction.
struct Campaign {
  FailureSignature Sig;
  std::string BugId;
  /// Fleet-observed occurrence count — the triage priority.
  uint64_t Occurrences = 0;
  /// Seed split from the root seed by signature digest at submission.
  uint64_t CampaignSeed = 0;
  bool Completed = false;
  /// Loaded from a persisted state file rather than run in this process.
  bool Resumed = false;
  /// Checkpointed mid-campaign by preemption; resumes from the parked
  /// session (same process) or by deterministic re-execution (state file).
  bool Suspended = false;
  /// Steps (warm-up occurrences + iterations) performed so far; progress
  /// bookkeeping for suspended campaigns.
  unsigned IterationsDone = 0;
  /// Times this campaign was preempted (in-memory only, never persisted:
  /// a resumed run's final state file must be byte-identical to an
  /// uninterrupted one).
  unsigned Preemptions = 0;
  /// Lifecycle trace that first reached this bucket (in-memory only,
  /// never persisted — same rule as Preemptions). Campaign spans record
  /// under this trace, which is what links a merged timeline's upload
  /// lane to its reconstruction lane. 0/0 = untraced bucket.
  uint64_t TraceHi = 0;
  uint64_t TraceLo = 0;
  /// Wall/thread-CPU time this process spent in the campaign's session
  /// steps (either mode). In-memory only, never persisted — timing is
  /// nondeterministic, state files are not.
  uint64_t WallNs = 0;
  uint64_t CpuNs = 0;
  ReconstructionReport Report;
  /// Instrumented sites at campaign end (sorted) — the recording set that
  /// produced the final trace, persisted so a resumed fleet can redeploy
  /// the same instrumentation.
  std::vector<unsigned> RecordingSet;
};

/// One campaign executed by one worker: [StartNs, EndNs) relative to the
/// fleet run's start.
struct WorkerInterval {
  size_t CampaignIndex = 0; ///< Into FleetReport::Campaigns (triage order).
  uint64_t StartNs = 0;
  uint64_t EndNs = 0;
};

/// Busy/idle timeline of one run() worker thread. Busy = from claiming a
/// campaign to finalizing it (reoccurrence waits included — that's the
/// point); idle = claim overhead plus the tail wait for slower workers,
/// measured against the worker's own spawn-to-exit span.
struct WorkerUtilization {
  unsigned WorkerId = 0;
  uint64_t BusyNs = 0;
  uint64_t IdleNs = 0;
  uint64_t CpuNs = 0;  ///< Thread CPU over the worker's whole life.
  uint64_t SpanNs = 0; ///< Worker thread lifetime (busy + idle).
  std::vector<WorkerInterval> Intervals;
};

/// Outcome of one FleetScheduler::run().
struct FleetReport {
  /// All campaigns, in triage order (occurrence count desc).
  std::vector<Campaign> Campaigns;
  unsigned Jobs = 1;
  uint64_t RootSeed = 0;
  unsigned CampaignsRun = 0;     ///< Executed by this run().
  unsigned CampaignsResumed = 0; ///< Skipped: completed in a prior life.
  unsigned Reproduced = 0;       ///< Campaigns that generated a test case.
  unsigned Preemptions = 0;      ///< Campaign suspensions (stepping mode).
  double WallSeconds = 0;
  SolverCacheStats Cache;
  //===--- Utilization accounting (docs/OBSERVABILITY.md, "Profiling") --===//
  /// Thread-CPU seconds spent in campaign session steps, summed over
  /// campaigns (Campaign::CpuNs).
  double CpuSeconds = 0;
  /// Longest single campaign's wall time — the schedule's critical path:
  /// campaigns are independent, so run() can never finish faster than its
  /// slowest campaign no matter how many workers it has.
  double CriticalPathSeconds = 0;
  /// Sum of worker busy time over (workers x run wall); Idle = 1 - Busy.
  /// Zero when run() didn't execute anything (or in incremental mode,
  /// where the daemon's control thread has no worker pool).
  double BusyFrac = 0;
  double IdleFrac = 0;
  /// Per-worker timelines from run() (empty in incremental mode).
  std::vector<WorkerUtilization> Workers;
};

/// Where one campaign sits in the triage/execution lifecycle right now.
enum class CampaignPhase { Pending, Active, Suspended, Completed };

const char *campaignPhaseName(CampaignPhase P);

/// The row shape of the daemon's `/status` endpoint
/// (docs/OBSERVABILITY.md, "Live endpoints").
struct CampaignStatus {
  std::string BugId;
  std::string SigHex; ///< FailureSignature digest, hex.
  uint64_t Occurrences = 0;
  CampaignPhase Phase = CampaignPhase::Pending;
  /// Session steps taken so far (live for active campaigns).
  unsigned IterationsDone = 0;
  bool Reproduced = false; ///< Meaningful once Completed.
};

/// Simulates one production machine: \p Runs executions of \p Spec with
/// machine randomness split from \p RootSeed by \p MachineId, invoking
/// \p Sink for every failure observed. Reports carry the machine id and a
/// 1-based per-machine sequence number starting at \p FirstSequence.
/// Returns the number of failures observed.
///
/// This is the single source of fleet-machine behaviour: the in-process
/// path (FleetScheduler::harvest, Sink = submit) and the cross-process
/// path (`er_cli report`, Sink = spool writer — see docs/INGEST.md) run
/// exactly this loop, which is what makes a drained spool byte-identical
/// to an in-process harvest of the same machines.
unsigned simulateMachine(const BugSpec &Spec, unsigned Runs,
                         uint64_t MachineId, uint64_t RootSeed,
                         const VmConfig &VmBase,
                         const std::function<void(const FleetFailureReport &)>
                             &Sink,
                         uint64_t FirstSequence = 1);

/// Collects failure reports, triages them into campaigns, and runs the
/// campaigns on a worker pool. Not itself thread-safe: submit/harvest/
/// run/saveState are driven from one control thread; run() spawns and
/// joins its own workers.
class FleetScheduler {
public:
  explicit FleetScheduler(FleetConfig Config);
  ~FleetScheduler();

  /// Records one failure occurrence, deduplicating by signature.
  void submit(const FleetFailureReport &R);

  /// Simulates one fleet machine: \p Runs production executions of
  /// \p Spec, submitting every failure observed. Machine randomness is
  /// split from the root seed by \p MachineId, so the harvest is
  /// deterministic and machine-order-independent. Returns the number of
  /// failures observed.
  unsigned harvest(const BugSpec &Spec, unsigned Runs, uint64_t MachineId);

  /// Runs every pending campaign on Config.Jobs workers and returns the
  /// fleet-wide report. Already-completed (resumed) campaigns are not
  /// re-run.
  FleetReport run();

  //===--- Incremental mode (collector daemon) ------------------------===//
  //
  // run() steps every pending campaign to completion on a worker pool —
  // the right shape for a one-shot drain. A long-running daemon instead
  // interleaves campaign progress with spool drains: stepCampaigns()
  // advances up to Config.Jobs campaigns by the same session steps on the
  // calling thread, activating pending buckets in triage order, preempting
  // per Config.Preempt, and parking suspended sessions in memory so a
  // later call resumes them exactly. Results are byte-identical to run()
  // on the same submissions. Do not mix run() and stepCampaigns() on the
  // same scheduler instance.

  /// Advances active campaigns by at most \p MaxSteps session steps
  /// (0 = run until no pending work remains). Returns steps performed.
  unsigned stepCampaigns(unsigned MaxSteps = 0);

  /// True while any campaign is incomplete (active, suspended or queued).
  bool hasPendingWork() const;

  size_t numActive() const { return Active.size(); }
  size_t numSuspended() const;
  uint64_t totalPreemptions() const { return PreemptionCount; }

  /// Fleet-wide report of the current triage state without running
  /// anything — what run() would return if all remaining work vanished.
  /// The daemon uses this for status printouts and shutdown summaries.
  FleetReport snapshotReport() const;

  /// One status row per campaign, in triage order: phase (pending /
  /// active / suspended / completed) plus live step counts for active
  /// slots. Control-thread only (like every accessor here) — the daemon
  /// copies this into its mutex-guarded status snapshot at cycle
  /// boundaries, which is what the HTTP thread actually reads.
  std::vector<CampaignStatus> campaignStatuses() const;

  size_t numCampaigns() const { return Campaigns.size(); }
  const std::vector<Campaign> &getCampaigns() const { return Campaigns; }
  SolverCacheStats getCacheStats() const { return Cache.getStats(); }
  /// The shared cache itself, for persistence: the collector daemon
  /// checkpoints it to disk alongside the scheduler state and reloads it
  /// on start (see DaemonConfig::SolverCacheFile).
  SolverResultCache &solverCache() { return Cache; }

  /// Serializes the triage queue + finished campaigns to \p Path. With
  /// \p HighWater, the ingest high-water marks are checkpointed into the
  /// same file — one atomic unit, so a crash can never split the
  /// scheduler's knowledge from the dedup marks (docs/INGEST.md).
  bool saveState(const std::string &Path, std::string *Error = nullptr,
                 const std::map<uint64_t, uint64_t> *HighWater = nullptr) const;
  /// Merges a previously saved state file: completed campaigns resume as
  /// done, pending ones keep their occurrence counts and seeds. Suspended
  /// campaigns load as pending — a cross-process resume re-executes them
  /// deterministically from scratch. \p HighWater, when given, receives
  /// the checkpointed ingest marks.
  bool loadState(const std::string &Path, std::string *Error = nullptr,
                 std::map<uint64_t, uint64_t> *HighWater = nullptr);

private:
  struct CampaignRuntime;

  /// Indices of Campaigns in triage order: occurrence count descending,
  /// digest then bug id as deterministic tie-breaks.
  std::vector<size_t> triageOrder() const;
  Campaign &campaignFor(const FailureSignature &Sig, const std::string &BugId);

  /// Fills free worker slots from the triage queue (unparking suspended
  /// sessions when their campaign is selected) and applies the preemption
  /// policy. Returns true if any slot changed hands.
  bool scheduleSlots();
  /// Builds campaign \p Idx's isolated runtime, or completes the campaign
  /// inline and returns null when its workload is unknown.
  std::unique_ptr<CampaignRuntime> makeRuntime(size_t Idx);
  /// One session step under the campaign's trace scope and
  /// fleet.campaign.step span, charged to Campaign::WallNs/CpuNs;
  /// finalizes the campaign when the session finishes. Returns true while
  /// more work remains.
  bool stepRuntime(CampaignRuntime &RT);
  void finalizeCampaign(CampaignRuntime &RT);

  FleetConfig Config;
  SolverResultCache Cache;
  std::vector<Campaign> Campaigns;
  /// Digest -> campaign indices (a chain, in case distinct signatures ever
  /// share a digest).
  std::unordered_map<uint64_t, std::vector<size_t>> ByDigest;
  /// Incremental mode state: live sessions occupying worker slots, and
  /// preempted sessions parked for an exact same-process resume.
  std::vector<std::unique_ptr<CampaignRuntime>> Active;
  std::map<size_t, std::unique_ptr<CampaignRuntime>> Parked;
  uint64_t PreemptionCount = 0;
  /// Guards submit() bucket mutation and run()'s FIFO worklist claim;
  /// profiled as obs.lock.fleet.scheduler.* so bench_fleet_throughput can
  /// report scheduler lock wait at each --jobs level.
  obs::TrackedMutex SchedMu{"fleet.scheduler"};
};

} // namespace er

#endif // ER_FLEET_FLEETSCHEDULER_H
