//===- FleetScheduler.cpp - Fleet-wide reconstruction service --------------===//

#include "fleet/FleetScheduler.h"

#include "er/Instrumenter.h"
#include "fleet/FleetPersist.h"
#include "obs/Metrics.h"
#include "obs/Profiler.h"
#include "obs/TraceContext.h"
#include "obs/Tracer.h"
#include "support/Timer.h"
#include "vm/Interpreter.h"

#include <algorithm>
#include <chrono>
#include <mutex>
#include <thread>

/// Monotonic ns for the worker utilization timelines (timing is write-only
/// bookkeeping: results never depend on it).
static uint64_t fleetNowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

using namespace er;

//===----------------------------------------------------------------------===//
// Telemetry
//===----------------------------------------------------------------------===//
//
// The scheduler is the natural place to tag pipeline telemetry with fleet
// identity: every campaign step runs under a span carrying its signature
// digest and bug id (all driver/solver spans nest beneath it on the
// stepping thread), and triage progress is exported as gauges — both the
// fleet-wide ones and a per-bucket occurrence gauge
// (fleet.bucket.<digest>.occurrences) that a collector daemon can watch
// to decide preemption (ROADMAP "campaign preemption").

namespace {
struct FleetMetrics {
  obs::Counter &ReportsSubmitted, &CampaignsRun, &CampaignsReproduced;
  obs::Counter &Preemptions;
  obs::Gauge &Buckets, &Pending, &Completed, &ActiveSlots, &SuspendedSlots;

  static FleetMetrics &get() {
    auto &Reg = obs::MetricsRegistry::global();
    static FleetMetrics M{Reg.counter("fleet.reports.submitted"),
                          Reg.counter("fleet.campaigns.run"),
                          Reg.counter("fleet.campaigns.reproduced"),
                          Reg.counter("fleet.preemptions"),
                          Reg.gauge("fleet.buckets"),
                          Reg.gauge("fleet.campaigns.pending"),
                          Reg.gauge("fleet.campaigns.completed"),
                          Reg.gauge("fleet.campaigns.active"),
                          Reg.gauge("fleet.campaigns.suspended")};
    return M;
  }
};
} // namespace

/// A campaign being executed — by a run() worker, or occupying (or
/// suspended from) a slot in incremental mode: its compiled module,
/// isolated context/solver, and the resumable session. Parking this struct
/// *is* the checkpoint — the session resumes mid-campaign with zero redone
/// work.
struct FleetScheduler::CampaignRuntime {
  size_t Idx = 0; ///< Into FleetScheduler::Campaigns.
  std::unique_ptr<Module> M;
  std::unique_ptr<ExprContext> Ctx;
  std::unique_ptr<ConstraintSolver> Solver;
  std::unique_ptr<ReconstructionSession> Session;
};

FleetScheduler::FleetScheduler(FleetConfig Config)
    : Config(Config), Cache(Config.Cache) {
  if (this->Config.Jobs == 0)
    this->Config.Jobs = 1;
}

FleetScheduler::~FleetScheduler() = default;

Campaign &FleetScheduler::campaignFor(const FailureSignature &Sig,
                                      const std::string &BugId) {
  auto &Chain = ByDigest[Sig.Digest];
  for (size_t Idx : Chain)
    if (Campaigns[Idx].Sig == Sig && Campaigns[Idx].BugId == BugId)
      return Campaigns[Idx];

  Campaign C;
  C.Sig = Sig;
  C.BugId = BugId;
  // The seed depends only on (root seed, failure identity): any submission
  // order, harvest interleaving, or job count reconstructs this bucket
  // identically.
  C.CampaignSeed = Rng(Config.RootSeed).split(Sig.Digest).next();
  Chain.push_back(Campaigns.size());
  Campaigns.push_back(std::move(C));
  return Campaigns.back();
}

void FleetScheduler::submit(const FleetFailureReport &R) {
  if (!R.Failure.isFailure())
    return;
  std::lock_guard<obs::TrackedMutex> Lock(SchedMu);
  Campaign &C = campaignFor(FailureSignature::of(R.Failure), R.BugId);
  ++C.Occurrences;
  // First traced delivery wins: the bucket's campaign spans join the
  // lifecycle trace of the report that first reached it traced.
  if ((C.TraceHi | C.TraceLo) == 0 && (R.TraceHi | R.TraceLo) != 0) {
    C.TraceHi = R.TraceHi;
    C.TraceLo = R.TraceLo;
  }
  FleetMetrics &FM = FleetMetrics::get();
  FM.ReportsSubmitted.inc();
  FM.Buckets.set(static_cast<int64_t>(Campaigns.size()));
  // Per-bucket progress: the triage signal, by name. Submission is a
  // control-thread path (not per VM instruction), so the registry lookup
  // per report is acceptable.
  obs::MetricsRegistry::global()
      .gauge("fleet.bucket." + C.Sig.hex() + ".occurrences")
      .set(static_cast<int64_t>(C.Occurrences));
}

unsigned er::simulateMachine(
    const BugSpec &Spec, unsigned Runs, uint64_t MachineId, uint64_t RootSeed,
    const VmConfig &VmBase,
    const std::function<void(const FleetFailureReport &)> &Sink,
    uint64_t FirstSequence) {
  auto M = compileBug(Spec);
  // Machine randomness: split by a digest of the machine id and workload,
  // so adding machines or reordering the harvest never shifts another
  // machine's stream.
  uint64_t WorkloadSalt = 0;
  for (char Ch : Spec.Id)
    WorkloadSalt = WorkloadSalt * 131 + static_cast<unsigned char>(Ch);
  Rng R = Rng(RootSeed).split(MachineId ^ (WorkloadSalt << 20));

  unsigned Observed = 0;
  for (unsigned Run = 0; Run < Runs; ++Run) {
    ProgramInput In = Spec.ProductionInput(R);
    VmConfig VC = VmBase;
    VC.ChunkSize = Spec.VmChunkSize;
    VC.ScheduleSeed = R.next();
    Interpreter VM(*M, VC);
    RunResult RR = VM.run(In);
    if (RR.Status != ExitStatus::Failure)
      continue;
    FleetFailureReport Report;
    Report.BugId = Spec.Id;
    Report.Failure = RR.Failure;
    Report.MachineId = MachineId;
    Report.Sequence = FirstSequence + Observed;
    Sink(Report);
    ++Observed;
  }
  return Observed;
}

unsigned FleetScheduler::harvest(const BugSpec &Spec, unsigned Runs,
                                 uint64_t MachineId) {
  obs::ScopedSpan Span("fleet.harvest", "fleet");
  Span.arg("bug", Spec.Id);
  Span.arg("machine", MachineId);
  Span.arg("runs", static_cast<uint64_t>(Runs));
  unsigned Observed = simulateMachine(
      Spec, Runs, MachineId, Config.RootSeed, Config.DriverBase.Vm,
      [this](const FleetFailureReport &R) { submit(R); });
  Span.arg("observed", static_cast<uint64_t>(Observed));
  return Observed;
}

std::vector<size_t> FleetScheduler::triageOrder() const {
  std::vector<size_t> Order(Campaigns.size());
  for (size_t I = 0; I < Order.size(); ++I)
    Order[I] = I;
  std::sort(Order.begin(), Order.end(), [this](size_t A, size_t B) {
    const Campaign &CA = Campaigns[A], &CB = Campaigns[B];
    if (CA.Occurrences != CB.Occurrences)
      return CA.Occurrences > CB.Occurrences; // Hot buckets first.
    if (CA.Sig.Digest != CB.Sig.Digest)
      return CA.Sig.Digest < CB.Sig.Digest;
    return CA.BugId < CB.BugId;
  });
  return Order;
}

//===----------------------------------------------------------------------===//
// Campaign execution
//===----------------------------------------------------------------------===//
//
// One campaign is built by makeRuntime, advanced by stepRuntime, and
// finalized when its session finishes. run() workers step each claimed
// campaign to completion; stepCampaigns() round-robins steps across slots.
// Both paths share these three functions, which is what makes their
// results byte-identical. A runtime is touched by one thread at a time,
// and so is its Campaigns entry.

std::unique_ptr<FleetScheduler::CampaignRuntime>
FleetScheduler::makeRuntime(size_t Idx) {
  Campaign &C = Campaigns[Idx];
  FleetMetrics &FM = FleetMetrics::get();
  const BugSpec *Spec = findBug(C.BugId);
  if (!Spec) {
    C.Report.FailureDetail = "unknown workload '" + C.BugId + "'";
    C.Completed = true;
    FM.Pending.add(-1);
    FM.Completed.add(1);
    return nullptr;
  }

  // Per-campaign isolation: own module, own context/solver. Only the
  // (thread-safe) result cache is shared.
  auto RT = std::make_unique<CampaignRuntime>();
  RT->Idx = Idx;
  RT->M = compileBug(*Spec);
  DriverConfig DC = Config.DriverBase;
  DC.Solver.WorkBudget = Spec->SolverWorkBudget;
  DC.Vm.ChunkSize = Spec->VmChunkSize;
  DC.Seed = C.CampaignSeed;
  DC.Solver.SharedCache = Config.ShareSolverCache ? &Cache : nullptr;

  FailureRecord Target;
  Target.Kind = C.Sig.Kind;
  Target.InstrGlobalId = C.Sig.InstrGlobalId;
  Target.CallStack = C.Sig.CallStack;

  RT->Ctx = std::make_unique<ExprContext>();
  RT->Solver = std::make_unique<ConstraintSolver>(*RT->Ctx, DC.Solver);
  RT->Session = std::make_unique<ReconstructionSession>(
      *RT->M, DC, *RT->Ctx, *RT->Solver,
      [Spec](Rng &R) { return Spec->ProductionInput(R); }, &Target);
  return RT;
}

void FleetScheduler::finalizeCampaign(CampaignRuntime &RT) {
  Campaign &C = Campaigns[RT.Idx];
  C.Report = RT.Session->takeReport();
  auto Sites = instrumentedSites(*RT.M);
  C.RecordingSet.assign(Sites.begin(), Sites.end());
  std::sort(C.RecordingSet.begin(), C.RecordingSet.end());
  C.Completed = true;
  C.Suspended = false;

  FleetMetrics &FM = FleetMetrics::get();
  FM.CampaignsRun.inc();
  if (C.Report.Success)
    FM.CampaignsReproduced.inc();
  FM.Pending.add(-1);
  FM.Completed.add(1);
}

bool FleetScheduler::stepRuntime(CampaignRuntime &RT) {
  Campaign &C = Campaigns[RT.Idx];
  bool More;
  {
    // Every driver/solver span the step opens nests under this one on the
    // current thread, and all of them record under the bucket's lifecycle
    // trace (untraced buckets carry an invalid context: plain local spans).
    obs::TraceScope Traced(obs::TraceContext{C.TraceHi, C.TraceLo, 0});
    obs::ScopedSpan Span("fleet.campaign.step", "fleet");
    Span.arg("sig", C.Sig.hex());
    Span.arg("bug", C.BugId);
    Span.arg("step", static_cast<uint64_t>(RT.Session->stepsDone()));
    // Per-campaign wall/CPU accounting (critical-path + cpu_s rollups in
    // snapshotReport) — two clock reads per step, write-only.
    uint64_t S = fleetNowNs(), Cpu0 = obs::threadCpuTimeNs();
    More = RT.Session->step();
    uint64_t E = fleetNowNs(), Cpu1 = obs::threadCpuTimeNs();
    C.WallNs += E > S ? E - S : 0;
    C.CpuNs += Cpu1 > Cpu0 ? Cpu1 - Cpu0 : 0;
    if (!More) {
      // An empty tag means the failure never reoccurred (Driver.h).
      const std::string &Tag = RT.Session->resultTag();
      Span.arg("result", Tag.empty() ? "no_reoccurrence" : Tag);
      Span.arg("consumed",
               static_cast<uint64_t>(RT.Session->report().Occurrences));
    }
  }
  C.IterationsDone = RT.Session->stepsDone();
  if (!More)
    finalizeCampaign(RT);
  return More;
}

FleetReport FleetScheduler::run() {
  Stopwatch Wall;
  obs::ScopedSpan RunSpan("fleet.run", "fleet");
  RunSpan.arg("jobs", static_cast<uint64_t>(Config.Jobs));
  RunSpan.arg("campaigns", Campaigns.size());
  std::vector<size_t> Order = triageOrder();

  // Worklist of pending campaigns, in triage order. Workers claim entries
  // FIFO under the (profiled) scheduler mutex; each campaign is built,
  // stepped and finalized by exactly the worker that claimed it, so no
  // further synchronization is needed on the results.
  std::vector<size_t> Pending;
  unsigned Resumed = 0;
  for (size_t Idx : Order) {
    if (Campaigns[Idx].Completed)
      ++Resumed;
    else
      Pending.push_back(Idx);
  }

  FleetMetrics &FM = FleetMetrics::get();
  FM.Pending.set(static_cast<int64_t>(Pending.size()));
  FM.Completed.set(static_cast<int64_t>(Resumed));
  RunSpan.arg("pending", Pending.size());
  RunSpan.arg("resumed", static_cast<uint64_t>(Resumed));

  // Force the (thread-safe, once-only) spec registry init before workers
  // start.
  (void)allBugSpecs();

  // Position of each campaign in triage order, so worker intervals can
  // name campaigns by their FleetReport::Campaigns index.
  std::vector<size_t> PosInOrder(Campaigns.size());
  for (size_t I = 0; I < Order.size(); ++I)
    PosInOrder[Order[I]] = I;

  unsigned N = Pending.size() <= 1
                   ? 1u
                   : static_cast<unsigned>(
                         std::min<size_t>(Config.Jobs, Pending.size()));
  std::vector<WorkerUtilization> Util(N);
  uint64_t RunStartNs = fleetNowNs();

  size_t NextSlot = 0;
  auto Worker = [&](unsigned WorkerId) {
    WorkerUtilization &U = Util[WorkerId];
    U.WorkerId = WorkerId;
    uint64_t SpawnNs = fleetNowNs();
    uint64_t CpuStart = obs::threadCpuTimeNs();
    for (;;) {
      size_t Slot;
      {
        std::lock_guard<obs::TrackedMutex> Lock(SchedMu);
        Slot = NextSlot++;
      }
      if (Slot >= Pending.size())
        break;
      uint64_t S = fleetNowNs();
      if (auto RT = makeRuntime(Pending[Slot]))
        while (stepRuntime(*RT))
          ;
      uint64_t E = fleetNowNs();
      U.BusyNs += E > S ? E - S : 0;
      U.Intervals.push_back({PosInOrder[Pending[Slot]],
                             S > RunStartNs ? S - RunStartNs : 0,
                             E > RunStartNs ? E - RunStartNs : 0});
    }
    uint64_t ExitNs = fleetNowNs();
    U.SpanNs = ExitNs > SpawnNs ? ExitNs - SpawnNs : 0;
    U.IdleNs = U.SpanNs > U.BusyNs ? U.SpanNs - U.BusyNs : 0;
    uint64_t CpuEnd = obs::threadCpuTimeNs();
    U.CpuNs = CpuEnd > CpuStart ? CpuEnd - CpuStart : 0;
  };

  if (N == 1) {
    Worker(0);
  } else {
    std::vector<std::thread> Threads;
    Threads.reserve(N);
    for (unsigned I = 0; I < N; ++I)
      Threads.emplace_back(Worker, I);
    for (auto &T : Threads)
      T.join();
  }

  FleetReport FR = snapshotReport();
  FR.CampaignsRun = static_cast<unsigned>(Pending.size());
  FR.WallSeconds = Wall.seconds();

  // Utilization rollup: where did (workers x wall) go.
  double BusySeconds = 0;
  for (const WorkerUtilization &U : Util)
    BusySeconds += U.BusyNs / 1e9;
  double Capacity = static_cast<double>(Util.size()) * FR.WallSeconds;
  if (Capacity > 0) {
    FR.BusyFrac = std::min(1.0, BusySeconds / Capacity);
    FR.IdleFrac = 1.0 - FR.BusyFrac;
  }
  FR.Workers = std::move(Util);
  RunSpan.arg("critical_path_ms",
              static_cast<uint64_t>(FR.CriticalPathSeconds * 1e3));
  return FR;
}

//===----------------------------------------------------------------------===//
// Incremental mode
//===----------------------------------------------------------------------===//
//
// The collector daemon's shape of progress: discrete ReconstructionSession
// steps interleaved with spool drains, with up to Config.Jobs campaigns
// holding slots at once. Everything here runs on the daemon's control
// thread — determinism needs no synchronization, and campaign results
// cannot depend on slot scheduling because each campaign is fully
// isolated (the shared solver cache returns byte-identical answers).

bool FleetScheduler::scheduleSlots() {
  FleetMetrics &FM = FleetMetrics::get();
  bool Changed = false;
  auto activeSlot = [this](size_t Idx) -> size_t {
    for (size_t I = 0; I < Active.size(); ++I)
      if (Active[I]->Idx == Idx)
        return I;
    return Active.size();
  };
  auto activate = [&](size_t Idx) {
    auto It = Parked.find(Idx);
    std::unique_ptr<CampaignRuntime> RT;
    if (It != Parked.end()) {
      // Exact resume: the parked session continues where it stopped.
      RT = std::move(It->second);
      Parked.erase(It);
    } else {
      RT = makeRuntime(Idx);
    }
    if (!RT)
      return; // Completed inline (unknown workload).
    Campaigns[Idx].Suspended = false;
    Active.push_back(std::move(RT));
    Changed = true;
  };

  // Fill free slots hottest-first.
  for (size_t Idx : triageOrder()) {
    if (Active.size() >= Config.Jobs)
      break;
    if (!Campaigns[Idx].Completed && activeSlot(Idx) == Active.size())
      activate(Idx);
  }

  // Preemption: slots full and a hot pending bucket outranks the weakest
  // active campaign -> checkpoint-and-suspend the weakest, give the slot
  // to the hot bucket.
  if (!Config.Preempt.Enabled)
    return Changed;
  std::vector<size_t> Order = triageOrder();
  while (Active.size() >= Config.Jobs && !Active.empty()) {
    // Hottest pending, in triage order.
    size_t Hot = Campaigns.size();
    for (size_t Idx : Order) {
      if (Campaigns[Idx].Completed || activeSlot(Idx) != Active.size())
        continue;
      Hot = Idx;
      break;
    }
    if (Hot == Campaigns.size() ||
        Campaigns[Hot].Occurrences < Config.Preempt.HotOccurrences)
      return Changed;
    // Weakest active: last in triage order among the active campaigns,
    // provided it has run long enough to be worth suspending.
    size_t WeakSlot = Active.size();
    for (auto It = Order.rbegin(); It != Order.rend(); ++It) {
      size_t Slot = activeSlot(*It);
      if (Slot == Active.size())
        continue;
      if (Active[Slot]->Session->stepsDone() >=
          Config.Preempt.MinStepsBeforePreempt)
        WeakSlot = Slot;
      break; // Only the lowest-priority active campaign is a candidate.
    }
    if (WeakSlot == Active.size() ||
        Campaigns[Hot].Occurrences <=
            Campaigns[Active[WeakSlot]->Idx].Occurrences)
      return Changed;

    // Checkpoint-and-suspend: the parked session *is* the checkpoint.
    std::unique_ptr<CampaignRuntime> RT = std::move(Active[WeakSlot]);
    Active.erase(Active.begin() + WeakSlot);
    Campaign &W = Campaigns[RT->Idx];
    W.Suspended = true;
    W.IterationsDone = RT->Session->stepsDone();
    ++W.Preemptions;
    ++PreemptionCount;
    FM.Preemptions.inc();
    {
      obs::ScopedSpan Span("fleet.preempt", "fleet");
      Span.arg("suspended", W.Sig.hex());
      Span.arg("for", Campaigns[Hot].Sig.hex());
      Span.arg("steps_done", static_cast<uint64_t>(W.IterationsDone));
    }
    Parked[RT->Idx] = std::move(RT);
    activate(Hot);
    Changed = true;
  }
  return Changed;
}

unsigned FleetScheduler::stepCampaigns(unsigned MaxSteps) {
  FleetMetrics &FM = FleetMetrics::get();
  unsigned Steps = 0;
  bool Budgeted = MaxSteps != 0;
  for (;;) {
    scheduleSlots();
    if (Active.empty() || (Budgeted && Steps >= MaxSteps))
      break;
    // Round-robin one step per active campaign, hottest slot first.
    for (size_t I = 0; I < Active.size() && !(Budgeted && Steps >= MaxSteps);) {
      ++Steps;
      if (stepRuntime(*Active[I]))
        ++I;
      else
        Active.erase(Active.begin() + I);
    }
    if (Budgeted && Steps >= MaxSteps)
      break;
  }
  size_t PendingCount = 0, CompletedCount = 0;
  for (const Campaign &C : Campaigns)
    (C.Completed ? CompletedCount : PendingCount) += 1;
  FM.Pending.set(static_cast<int64_t>(PendingCount));
  FM.Completed.set(static_cast<int64_t>(CompletedCount));
  FM.ActiveSlots.set(static_cast<int64_t>(Active.size()));
  FM.SuspendedSlots.set(static_cast<int64_t>(Parked.size()));
  return Steps;
}

bool FleetScheduler::hasPendingWork() const {
  for (const Campaign &C : Campaigns)
    if (!C.Completed)
      return true;
  return false;
}

size_t FleetScheduler::numSuspended() const { return Parked.size(); }

const char *er::campaignPhaseName(CampaignPhase P) {
  switch (P) {
  case CampaignPhase::Pending:
    return "pending";
  case CampaignPhase::Active:
    return "active";
  case CampaignPhase::Suspended:
    return "suspended";
  case CampaignPhase::Completed:
    return "completed";
  }
  return "unknown";
}

std::vector<CampaignStatus> FleetScheduler::campaignStatuses() const {
  std::vector<CampaignStatus> Rows;
  Rows.reserve(Campaigns.size());
  for (size_t Idx : triageOrder()) {
    const Campaign &C = Campaigns[Idx];
    CampaignStatus Row;
    Row.BugId = C.BugId;
    Row.SigHex = C.Sig.hex();
    Row.Occurrences = C.Occurrences;
    Row.IterationsDone = C.IterationsDone;
    Row.Reproduced = C.Report.Success;
    if (C.Completed) {
      Row.Phase = CampaignPhase::Completed;
    } else if (Parked.count(Idx) || C.Suspended) {
      Row.Phase = CampaignPhase::Suspended;
    } else {
      Row.Phase = CampaignPhase::Pending;
      for (const auto &RT : Active)
        if (RT->Idx == Idx) {
          Row.Phase = CampaignPhase::Active;
          Row.IterationsDone = RT->Session->stepsDone();
          break;
        }
    }
    Rows.push_back(std::move(Row));
  }
  return Rows;
}

FleetReport FleetScheduler::snapshotReport() const {
  FleetReport FR;
  FR.Jobs = Config.Jobs;
  FR.RootSeed = Config.RootSeed;
  FR.Preemptions = static_cast<unsigned>(PreemptionCount);
  FR.Cache = Cache.getStats();
  std::vector<size_t> Order = triageOrder();
  FR.Campaigns.reserve(Order.size());
  for (size_t Idx : Order) {
    const Campaign &C = Campaigns[Idx];
    FR.Campaigns.push_back(C);
    if (C.Completed && !C.Resumed)
      ++FR.CampaignsRun;
    if (C.Resumed)
      ++FR.CampaignsResumed;
    if (C.Report.Success)
      ++FR.Reproduced;
    FR.CpuSeconds += C.CpuNs / 1e9;
    FR.CriticalPathSeconds =
        std::max(FR.CriticalPathSeconds, C.WallNs / 1e9);
  }
  return FR;
}

bool FleetScheduler::saveState(
    const std::string &Path, std::string *Error,
    const std::map<uint64_t, uint64_t> *HighWater) const {
  std::vector<const Campaign *> Ordered;
  Ordered.reserve(Campaigns.size());
  for (size_t Idx : triageOrder())
    Ordered.push_back(&Campaigns[Idx]);
  return saveFleetState(Path, Config.RootSeed, Ordered, Error, HighWater);
}

bool FleetScheduler::loadState(const std::string &Path, std::string *Error,
                               std::map<uint64_t, uint64_t> *HighWater) {
  uint64_t RootSeed = 0;
  std::vector<Campaign> Loaded;
  if (!loadFleetState(Path, RootSeed, Loaded, Error, HighWater))
    return false;
  for (Campaign &L : Loaded) {
    Campaign &C = campaignFor(L.Sig, L.BugId);
    // Merge: keep the larger occurrence count (this process may have
    // harvested more since the save), and adopt the persisted seed so a
    // resume is exact even under a different root seed.
    C.Occurrences = std::max(C.Occurrences, L.Occurrences);
    C.CampaignSeed = L.CampaignSeed;
    if (L.Completed && !C.Completed) {
      C.Completed = true;
      C.Resumed = true;
      C.Report = std::move(L.Report);
      C.RecordingSet = std::move(L.RecordingSet);
    }
  }
  return true;
}
