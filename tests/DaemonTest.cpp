//===- DaemonTest.cpp - Collector daemon, preemption, fault injection ------===//
//
// Deterministic coverage of the long-running ingestion shape
// (docs/INGEST.md, docs/FLEET.md) — no sleeps, no wall clock:
//  - The src/support/ seams themselves: FaultFs failpoint semantics
//    (skip/fire/path, torn writes, NotFound), the ER_FAULT_SPEC grammar,
//    VirtualClock jumps.
//  - ReportSpool claim-by-rename retries: a transient rename failure is
//    retried, an exhausted retry budget leaves the file for the next
//    drain — records are never silently dropped.
//  - CollectorDaemon: incremental drains feed running campaigns without
//    restarting them; drain retries back off deterministically (50, 100,
//    200... capped); a crash in either half of the checkpoint/ack window
//    re-delivers records exactly once; clean shutdown persists state.
//  - FleetScheduler preemption: a hot bucket suspends the weakest active
//    campaign, which resumes (same process or from a state file) to final
//    state files and test cases byte-identical to an uninterrupted run.
//  - Live telemetry (docs/OBSERVABILITY.md): /healthz flips unhealthy the
//    moment a cycle overruns its deadline (VirtualClock, probed from the
//    backoff sleep hook — exactly when a wedged daemon would be probed),
//    /status carries the campaign table, periodic metrics.json snapshots
//    land atomically, and a real listener survives concurrent scrapes
//    while cycles run (the TSan CI job races them).
//
//===----------------------------------------------------------------------===//

#include "ingest/CollectorDaemon.h"
#include "ingest/ReportCollector.h"
#include "ingest/ReportSpool.h"
#include "support/FaultFs.h"
#include "support/Fs.h"

#include "fleet/FailureSignature.h"
#include "fleet/FleetScheduler.h"
#include "net/HttpServer.h"
#include "obs/Json.h"
#include "obs/PromExport.h"
#include "vm/Interpreter.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <thread>
#include <unistd.h>
#include <vector>

using namespace er;
namespace fs = std::filesystem;

namespace {

constexpr uint64_t RootSeed = 20260807;

/// Fresh, empty directory unique to the calling test.
std::string freshDir(const std::string &Name) {
  fs::path Dir = fs::path(testing::TempDir()) / ("er_daemon_" + Name);
  fs::remove_all(Dir);
  fs::create_directories(Dir);
  return Dir.string();
}

FleetFailureReport makeReport(const std::string &BugId, FailureKind Kind,
                              unsigned Instr, std::vector<unsigned> Stack) {
  FleetFailureReport R;
  R.BugId = BugId;
  R.Failure.Kind = Kind;
  R.Failure.InstrGlobalId = Instr;
  R.Failure.CallStack = std::move(Stack);
  return R;
}

/// Publishes one spool file with three reports (two of one signature, one
/// of another) from machine 5, sequences 1..3. BugIds are not in the
/// workload registry, so campaigns complete inline — these tests exercise
/// the delivery protocol, not reconstruction.
void publishCraftedFile(const std::string &Spool) {
  SpoolWriter Writer(Spool, /*MachineId=*/5);
  Writer.append(makeReport("bug-a", FailureKind::NullDeref, 10, {1}));
  Writer.append(makeReport("bug-a", FailureKind::NullDeref, 10, {1}));
  Writer.append(makeReport("bug-b", FailureKind::OutOfBounds, 20, {2, 3}));
  std::string Err;
  ASSERT_TRUE(Writer.flush(&Err)) << Err;
}

uint64_t totalOccurrences(const FleetScheduler &Sched) {
  uint64_t Total = 0;
  for (const Campaign &C : Sched.getCampaigns())
    Total += C.Occurrences;
  return Total;
}

/// Serialized scheduler state with the one wall-clock field scrubbed —
/// the byte-comparison proxy for "the same result" (campaigns land in
/// triage order, so this is submission-order-independent).
std::string stateBytes(FleetScheduler &Sched) {
  std::string Path = (fs::path(testing::TempDir()) /
                      ("er_daemon_state_cmp." + std::to_string(::getpid()) +
                       ".txt"))
                         .string();
  std::string Err;
  EXPECT_TRUE(Sched.saveState(Path, &Err)) << Err;
  std::ifstream IS(Path, std::ios::binary);
  std::string S, Line;
  while (std::getline(IS, Line)) {
    if (Line.rfind("symexseconds ", 0) == 0)
      Line = "symexseconds <scrubbed>";
    S += Line;
    S += '\n';
  }
  std::remove(Path.c_str());
  return S;
}

/// Daemon config wired to a VirtualClock and a sleep hook that records
/// requested durations and advances the clock — the whole retry/backoff
/// timeline runs without a single real sleep.
struct TestDaemonRig {
  VirtualClock Clock{1'000'000'000};
  std::vector<uint64_t> Sleeps;
  DaemonConfig Config;

  explicit TestDaemonRig(std::string Spool, std::string StateFile = "",
                         FsOps *Fs = nullptr) {
    Config.Collector.SpoolDir = std::move(Spool);
    Config.Collector.Fs = Fs;
    Config.StateFile = std::move(StateFile);
    Config.Clock = &Clock;
    Config.Sleep = [this](uint64_t Ms) {
      Sleeps.push_back(Ms);
      Clock.advanceNs(Ms * 1'000'000);
    };
  }
};

//===----------------------------------------------------------------------===//
// The seams: FaultFs, fault-spec grammar, VirtualClock
//===----------------------------------------------------------------------===//

TEST(FaultFs, SkipAndFireGateInjection) {
  std::string Dir = freshDir("faultfs_gate");
  FaultFs FF;
  Failpoint P;
  P.Operation = Failpoint::Op::Write;
  P.Skip = 1; // Let the first write through.
  P.Fire = 1; // Fail exactly one.
  FF.addFailpoint(P);

  std::string Path = Dir + "/f.txt";
  EXPECT_EQ(FF.writeFile(Path, "one"), FsStatus::Ok);
  std::string Err;
  EXPECT_EQ(FF.writeFile(Path, "two", &Err), FsStatus::IoError);
  EXPECT_NE(Err.find("injected fault"), std::string::npos);
  EXPECT_EQ(FF.writeFile(Path, "three"), FsStatus::Ok);

  EXPECT_EQ(FF.faultsInjected(), 1u);
  std::vector<std::string> Log = FF.takeLog();
  ASSERT_EQ(Log.size(), 1u);
  EXPECT_EQ(Log[0], "write fail " + Path);
  EXPECT_TRUE(FF.takeLog().empty()) << "takeLog must drain the log";
}

TEST(FaultFs, TornWritePersistsPrefixThenFails) {
  std::string Dir = freshDir("faultfs_torn");
  FaultFs FF;
  Failpoint P;
  P.Operation = Failpoint::Op::Write;
  P.Act = Failpoint::Action::TornWrite;
  P.TornBytes = 3;
  FF.addFailpoint(P);

  std::string Path = Dir + "/torn.txt";
  EXPECT_EQ(FF.writeFile(Path, "hello!"), FsStatus::IoError);
  std::vector<uint8_t> Bytes;
  ASSERT_EQ(FsOps::real().readFile(Path, Bytes), FsStatus::Ok);
  EXPECT_EQ(std::string(Bytes.begin(), Bytes.end()), "hel")
      << "a torn write must persist exactly the scripted prefix";
}

TEST(FaultFs, NotFoundActionAndPathFilter) {
  std::string Dir = freshDir("faultfs_nf");
  FaultFs FF;
  Failpoint P;
  P.Operation = Failpoint::Op::Rename;
  P.Act = Failpoint::Action::NotFound;
  P.PathSubstr = "victim";
  FF.addFailpoint(P);

  ASSERT_EQ(FF.writeFile(Dir + "/victim.txt", "x"), FsStatus::Ok);
  ASSERT_EQ(FF.writeFile(Dir + "/other.txt", "y"), FsStatus::Ok);
  // Matching source path: the scripted lost-race answer, no effect.
  EXPECT_EQ(FF.rename(Dir + "/victim.txt", Dir + "/v2.txt"),
            FsStatus::NotFound);
  EXPECT_TRUE(FF.exists(Dir + "/victim.txt"));
  // Non-matching path passes through untouched.
  EXPECT_EQ(FF.rename(Dir + "/other.txt", Dir + "/o2.txt"), FsStatus::Ok);
  EXPECT_TRUE(FF.exists(Dir + "/o2.txt"));
}

TEST(FaultFs, ParseFaultSpecRoundTripsTheCatalog) {
  std::vector<Failpoint> Points;
  std::string Err;
  ASSERT_TRUE(parseFaultSpec(
      "rename:fail:path=.claimed:skip=2:fire=1;write:torn:torn=7;"
      "any:notfound:fire=0",
      Points, &Err))
      << Err;
  ASSERT_EQ(Points.size(), 3u);
  EXPECT_EQ(Points[0].Operation, Failpoint::Op::Rename);
  EXPECT_EQ(Points[0].Act, Failpoint::Action::Fail);
  EXPECT_EQ(Points[0].PathSubstr, ".claimed");
  EXPECT_EQ(Points[0].Skip, 2u);
  EXPECT_EQ(Points[0].Fire, 1u);
  EXPECT_EQ(Points[1].Operation, Failpoint::Op::Write);
  EXPECT_EQ(Points[1].Act, Failpoint::Action::TornWrite);
  EXPECT_EQ(Points[1].TornBytes, 7u);
  EXPECT_EQ(Points[2].Operation, Failpoint::Op::Any);
  EXPECT_EQ(Points[2].Fire, 0u);
}

TEST(FaultFs, ParseFaultSpecRejectsMalformedSpecs) {
  for (const char *Bad : {"bogus", "write", "write:frobnicate",
                          "write:fail:zork=1", "write:fail:skip",
                          "write:fail:skip=abc", "chmod:fail"}) {
    std::vector<Failpoint> Points;
    std::string Err;
    EXPECT_FALSE(parseFaultSpec(Bad, Points, &Err)) << Bad;
    EXPECT_FALSE(Err.empty()) << Bad;
    EXPECT_TRUE(Points.empty()) << "output must be untouched on failure";
  }
}

TEST(Daemon, UptimeFollowsVirtualClockAndClampsBackwardJumps) {
  TestDaemonRig Rig(freshDir("uptime"));
  FleetScheduler Sched((FleetConfig()));
  CollectorDaemon Daemon(Rig.Config, Sched);
  ASSERT_TRUE(Daemon.start());
  EXPECT_EQ(Daemon.uptimeNs(), 0u);
  Rig.Clock.advanceNs(500);
  EXPECT_EQ(Daemon.uptimeNs(), 500u);
  // A host clock stepping backwards must clamp, not wrap to ~2^64.
  Rig.Clock.set(10);
  EXPECT_EQ(Daemon.uptimeNs(), 0u);
  Rig.Clock.set(2'000'000'000);
  EXPECT_EQ(Daemon.uptimeNs(), 1'000'000'000u);
}

//===----------------------------------------------------------------------===//
// Spool claim retries (the silent-drop fix)
//===----------------------------------------------------------------------===//

TEST(SpoolClaim, TransientRenameFailureIsRetriedWithinTheDrain) {
  std::string Spool = freshDir("claim_retry");
  publishCraftedFile(Spool);

  FaultFs FF;
  std::vector<Failpoint> Points;
  ASSERT_TRUE(parseFaultSpec("rename:fail:path=.ers:fire=1", Points));
  for (const Failpoint &P : Points)
    FF.addFailpoint(P);

  FleetScheduler Sched((FleetConfig()));
  ReportCollector Collector({.SpoolDir = Spool, .Fs = &FF});
  std::string Err;
  ASSERT_TRUE(Collector.drainInto(Sched, &Err)) << Err;
  const CollectorStats &S = Collector.getStats();
  EXPECT_EQ(S.ClaimRetries, 1u);
  EXPECT_EQ(S.ClaimFailures, 0u);
  EXPECT_EQ(S.FilesClaimed, 1u);
  EXPECT_EQ(S.Submitted, 3u) << "the retried claim must deliver its records";
  EXPECT_EQ(totalOccurrences(Sched), 3u);
}

TEST(SpoolClaim, ExhaustedRetryBudgetLeavesFileForTheNextDrain) {
  std::string Spool = freshDir("claim_exhaust");
  publishCraftedFile(Spool);

  FaultFs FF;
  std::vector<Failpoint> Points;
  ASSERT_TRUE(parseFaultSpec("rename:fail:path=.ers:fire=0", Points));
  for (const Failpoint &P : Points)
    FF.addFailpoint(P);

  FleetScheduler Sched((FleetConfig()));
  ReportCollector Collector({.SpoolDir = Spool, .Fs = &FF});
  std::string Err;
  ASSERT_TRUE(Collector.drainInto(Sched, &Err)) << Err;
  EXPECT_EQ(Collector.getStats().ClaimRetries, 3u); // Default budget.
  EXPECT_EQ(Collector.getStats().ClaimFailures, 1u);
  EXPECT_EQ(Collector.getStats().Submitted, 0u);
  EXPECT_EQ(listSpoolFiles(Spool).size(), 1u)
      << "an unclaimable file must stay published, not vanish";

  // The disk heals; the same collector's next drain delivers exactly once.
  FF.clearFailpoints();
  ASSERT_TRUE(Collector.drainInto(Sched, &Err)) << Err;
  EXPECT_EQ(Collector.getStats().Submitted, 3u);
  EXPECT_EQ(totalOccurrences(Sched), 3u);
  EXPECT_TRUE(listSpoolFiles(Spool).empty());
}

//===----------------------------------------------------------------------===//
// Daemon drain retry/backoff
//===----------------------------------------------------------------------===//

TEST(Daemon, DrainRetriesWithDoublingBackoffThenSucceeds) {
  std::string Spool = freshDir("drain_retry");
  publishCraftedFile(Spool);

  FaultFs FF;
  std::vector<Failpoint> Points;
  // The quarantine mkdir is the first I/O of every drain attempt: failing
  // it twice makes attempts 1 and 2 fail and attempt 3 succeed.
  ASSERT_TRUE(parseFaultSpec("createdir:fail:path=quarantine:fire=2", Points));
  for (const Failpoint &P : Points)
    FF.addFailpoint(P);

  FleetScheduler Sched((FleetConfig()));
  TestDaemonRig Rig(Spool, freshDir("drain_retry_state") + "/daemon.state",
                    &FF);
  CollectorDaemon Daemon(Rig.Config, Sched);
  ASSERT_TRUE(Daemon.runCycle());

  EXPECT_EQ(Rig.Sleeps, (std::vector<uint64_t>{50, 100}))
      << "backoff must double from the base, one sleep per failed attempt";
  const DaemonStats &DS = Daemon.getStats();
  EXPECT_EQ(DS.DrainRetries, 2u);
  EXPECT_EQ(DS.Drains, 1u);
  EXPECT_EQ(DS.DrainFailures, 0u);
  EXPECT_EQ(Daemon.collectorStats().Submitted, 3u);
}

TEST(Daemon, DrainBackoffIsCappedAndFailureIsSurvived) {
  std::string Spool = freshDir("drain_cap");
  FaultFs FF;
  std::vector<Failpoint> Points;
  ASSERT_TRUE(parseFaultSpec("createdir:fail:path=quarantine:fire=0", Points));
  for (const Failpoint &P : Points)
    FF.addFailpoint(P);

  FleetScheduler Sched((FleetConfig()));
  TestDaemonRig Rig(Spool, freshDir("drain_cap_state") + "/daemon.state", &FF);
  Rig.Config.MaxDrainRetries = 3;
  Rig.Config.RetryBackoffBaseMs = 800;
  Rig.Config.RetryBackoffCapMs = 2000;
  CollectorDaemon Daemon(Rig.Config, Sched);

  // A cycle whose drain fails after every retry is not fatal: campaigns
  // still step, the failure is counted, the next cycle tries again.
  ASSERT_TRUE(Daemon.runCycle());
  EXPECT_EQ(Rig.Sleeps, (std::vector<uint64_t>{800, 1600, 2000}));
  EXPECT_EQ(Daemon.getStats().DrainFailures, 1u);
  EXPECT_EQ(Daemon.getStats().Drains, 0u);

  FF.clearFailpoints();
  ASSERT_TRUE(Daemon.runCycle());
  EXPECT_EQ(Daemon.getStats().Drains, 1u);
}

//===----------------------------------------------------------------------===//
// Crash windows: exactly-once through checkpoint + ack
//===----------------------------------------------------------------------===//

TEST(Daemon, CrashBeforeCheckpointRedeliversExactlyOnce) {
  std::string Spool = freshDir("crash_preckpt");
  std::string StateFile = freshDir("crash_preckpt_state") + "/daemon.state";
  publishCraftedFile(Spool);

  // Life 1: the drain lands but every checkpoint publish fails, and the
  // process dies before a checkpoint ever owns the drained records.
  {
    FaultFs FF;
    std::vector<Failpoint> Points;
    ASSERT_TRUE(parseFaultSpec("rename:fail:path=daemon.state:fire=0",
                               Points));
    for (const Failpoint &P : Points)
      FF.addFailpoint(P);
    FleetScheduler Doomed((FleetConfig()));
    TestDaemonRig Rig(Spool, StateFile, &FF);
    CollectorDaemon Daemon(Rig.Config, Doomed);
    ASSERT_TRUE(Daemon.runCycle());
    EXPECT_EQ(Daemon.collectorStats().Submitted, 3u);
    EXPECT_EQ(Daemon.getStats().CheckpointFailures, 1u);
    EXPECT_EQ(Daemon.getStats().FilesAcked, 0u)
        << "records must never be acked before a checkpoint owns them";
    EXPECT_EQ(Daemon.collector().pendingAckCount(), 1u);
    // Everything this life learned dies with it; the records survive on
    // disk as a claimed spool file.
    EXPECT_FALSE(FsOps::real().exists(StateFile));
    EXPECT_TRUE(listSpoolFiles(Spool).empty());
  }

  // Life 2: startup recovery un-claims the orphaned file and the first
  // drain delivers its records — once.
  FleetScheduler Sched((FleetConfig()));
  TestDaemonRig Rig(Spool, StateFile);
  CollectorDaemon Daemon(Rig.Config, Sched);
  std::string Err;
  ASSERT_TRUE(Daemon.start(&Err)) << Err;
  EXPECT_EQ(Daemon.getStats().FilesRecovered, 1u);
  ASSERT_TRUE(Daemon.runCycle());
  EXPECT_EQ(Daemon.collectorStats().Submitted, 3u);
  EXPECT_EQ(Daemon.collectorStats().DuplicatesDropped, 0u);
  EXPECT_EQ(totalOccurrences(Sched), 3u) << "each record counted exactly once";
  EXPECT_EQ(Daemon.getStats().FilesAcked, 1u);
  EXPECT_TRUE(listSpoolFiles(Spool).empty());
  EXPECT_TRUE(FsOps::real().exists(StateFile));
}

TEST(Daemon, CrashAfterCheckpointBeforeAckDeduplicates) {
  std::string Spool = freshDir("crash_preack");
  std::string StateFile = freshDir("crash_preack_state") + "/daemon.state";
  publishCraftedFile(Spool);

  // Life 1: checkpoint lands, but the ack's removes never reach the disk
  // — the crash window between steps 3 and 4 of the cycle.
  {
    FaultFs FF;
    std::vector<Failpoint> Points;
    ASSERT_TRUE(parseFaultSpec("remove:fail:path=.claimed:fire=0", Points));
    for (const Failpoint &P : Points)
      FF.addFailpoint(P);
    FleetScheduler Doomed((FleetConfig()));
    TestDaemonRig Rig(Spool, StateFile, &FF);
    CollectorDaemon Daemon(Rig.Config, Doomed);
    ASSERT_TRUE(Daemon.runCycle());
    EXPECT_EQ(Daemon.collectorStats().Submitted, 3u);
    EXPECT_EQ(Daemon.getStats().Checkpoints, 1u);
    EXPECT_TRUE(FsOps::real().exists(StateFile));
  }

  // Life 2: the checkpoint's high-water marks drop every redelivered
  // record as a duplicate; occurrence counts do not double.
  FleetScheduler Sched((FleetConfig()));
  TestDaemonRig Rig(Spool, StateFile);
  CollectorDaemon Daemon(Rig.Config, Sched);
  std::string Err;
  ASSERT_TRUE(Daemon.start(&Err)) << Err;
  EXPECT_EQ(Daemon.getStats().FilesRecovered, 1u);
  EXPECT_EQ(totalOccurrences(Sched), 3u) << "checkpointed campaigns restored";
  ASSERT_TRUE(Daemon.runCycle());
  EXPECT_EQ(Daemon.collectorStats().RecordsDecoded, 3u);
  EXPECT_EQ(Daemon.collectorStats().DuplicatesDropped, 3u);
  EXPECT_EQ(Daemon.collectorStats().Submitted, 0u);
  EXPECT_EQ(totalOccurrences(Sched), 3u) << "redelivery must not double-count";
  EXPECT_TRUE(listSpoolFiles(Spool).empty());
  EXPECT_EQ(Sched.snapshotReport().CampaignsResumed, 2u);
}

TEST(Daemon, CleanShutdownCheckpointsFinalState) {
  std::string Spool = freshDir("shutdown");
  std::string StateFile = freshDir("shutdown_state") + "/daemon.state";
  publishCraftedFile(Spool);

  FleetScheduler Sched((FleetConfig()));
  TestDaemonRig Rig(Spool, StateFile);
  CollectorDaemon *Running = nullptr;
  // The stop signal arrives during the inter-cycle sleep — the loop must
  // notice it without starting another cycle.
  Rig.Config.Sleep = [&](uint64_t) {
    if (Running)
      Running->requestStop();
  };
  CollectorDaemon Daemon(Rig.Config, Sched);
  Running = &Daemon;
  std::string Err;
  ASSERT_TRUE(Daemon.runLoop(&Err)) << Err;

  EXPECT_EQ(Daemon.getStats().Cycles, 1u);
  EXPECT_TRUE(Daemon.stopRequested());
  EXPECT_GE(Daemon.getStats().Checkpoints, 2u) << "cycle + final checkpoint";
  EXPECT_EQ(Daemon.getStats().FilesAcked, 1u);

  // The persisted state is a complete, loadable record of the session.
  FleetScheduler Reloaded((FleetConfig()));
  std::map<uint64_t, uint64_t> HighWater;
  ASSERT_TRUE(Reloaded.loadState(StateFile, &Err, &HighWater)) << Err;
  EXPECT_EQ(totalOccurrences(Reloaded), 3u);
  EXPECT_EQ(HighWater[5], 3u);
}

//===----------------------------------------------------------------------===//
// Incremental drains == one-shot run, byte for byte
//===----------------------------------------------------------------------===//

/// Fast-reconstructing workloads (same set IngestTest/FleetTest use).
const char *FastCorpus[] = {"Bash-108885", "SQLite-4e8e485",
                            "Matrixssl-2014-1569", "Memcached-2019-11596",
                            "PHP-2012-2386"};

void spoolMachine(const std::string &SpoolDir, uint64_t MachineId,
                  unsigned Runs = 80) {
  SpoolWriter Writer(SpoolDir, MachineId);
  for (const char *Id : FastCorpus) {
    simulateMachine(*findBug(Id), Runs, MachineId, RootSeed, VmConfig(),
                    [&](const FleetFailureReport &R) { Writer.append(R); });
    std::string Err;
    ASSERT_TRUE(Writer.flush(&Err)) << Err;
  }
}

TEST(Daemon, IncrementalDrainsFeedCampaignsWithoutRestarting) {
  std::string Spool = freshDir("incremental");
  std::string StateFile = freshDir("incremental_state") + "/daemon.state";
  spoolMachine(Spool, /*MachineId=*/0);

  FleetConfig FC;
  FC.RootSeed = RootSeed;
  FleetScheduler Sched(FC);
  TestDaemonRig Rig(Spool, StateFile);
  Rig.Config.MaxStepsPerCycle = 3; // Keep cycles short: many drains.
  CollectorDaemon Daemon(Rig.Config, Sched);

  ASSERT_TRUE(Daemon.runCycle());
  uint64_t AfterFirst = Daemon.collectorStats().Submitted;
  EXPECT_GT(AfterFirst, 0u);

  // Machine 1 reports mid-session; its records must merge into the live
  // triage state — existing campaigns keep their progress.
  spoolMachine(Spool, /*MachineId=*/1);
  for (unsigned Guard = 0;
       (Sched.hasPendingWork() || !listSpoolFiles(Spool).empty()) &&
       Guard < 500;
       ++Guard)
    ASSERT_TRUE(Daemon.runCycle());
  EXPECT_FALSE(Sched.hasPendingWork());
  EXPECT_GT(Daemon.collectorStats().Submitted, AfterFirst);
  EXPECT_EQ(Daemon.collectorStats().DuplicatesDropped, 0u);
  EXPECT_EQ(Daemon.getStats().FilesAcked, 2u * 5u)
      << "every spool file acked exactly once";

  // Byte-identity: the interleaved drain/step timeline must land exactly
  // where a one-shot in-process harvest + run() lands.
  FleetScheduler Reference(FC);
  for (uint64_t Machine = 0; Machine < 2; ++Machine)
    for (const char *Id : FastCorpus)
      Reference.harvest(*findBug(Id), 80, Machine);
  Reference.run();
  EXPECT_EQ(stateBytes(Sched), stateBytes(Reference));
}

//===----------------------------------------------------------------------===//
// Persistent solver cache across daemon restarts
//===----------------------------------------------------------------------===//

/// Outcome of one two-life daemon session (see runTwoLifeSession).
struct TwoLifeResult {
  std::string FinalState;   ///< Scrubbed serialized scheduler state.
  DaemonStats Life1, Life2; ///< Daemon stats at the end of each life.
  SolverCacheStats Life2Cache;
};

/// Two daemon lives over the same deterministic report streams: life 1
/// ingests machine 0 for a fixed number of cycles and dies mid-session
/// (campaigns still pending), life 2 restarts from the state file, ingests
/// machine 1, and runs to completion. When \p CacheFile is nonempty both
/// lives checkpoint the solver cache every cycle and life 2 loads it on
/// start; \p Life1Fs injects filesystem faults into life 1 only. The
/// solver cache must only ever change *cost*, so FinalState is
/// byte-comparable across cache configurations.
TwoLifeResult runTwoLifeSession(const std::string &Tag,
                                const std::string &CacheFile,
                                FsOps *Life1Fs = nullptr) {
  TwoLifeResult Out;
  std::string Spool = freshDir(Tag + "_spool");
  std::string StateFile = freshDir(Tag + "_state") + "/daemon.state";
  FleetConfig FC;
  FC.RootSeed = RootSeed;

  spoolMachine(Spool, /*MachineId=*/0);
  {
    FleetScheduler Sched(FC);
    TestDaemonRig Rig(Spool, StateFile, Life1Fs);
    Rig.Config.SolverCacheFile = CacheFile;
    Rig.Config.SolverCacheEveryCycles = 1;
    Rig.Config.MaxStepsPerCycle = 3;
    CollectorDaemon Daemon(Rig.Config, Sched);
    std::string Err;
    EXPECT_TRUE(Daemon.start(&Err)) << Err;
    for (unsigned Cycle = 0; Cycle < 4; ++Cycle)
      EXPECT_TRUE(Daemon.runCycle());
    EXPECT_TRUE(Sched.hasPendingWork())
        << "life 1 must die mid-session for life 2 to have solver work";
    Out.Life1 = Daemon.getStats();
    // No shutdown path: the process is gone. The last runCycle checkpoint
    // (state and, per the cadence, cache image) is all that survives.
  }

  spoolMachine(Spool, /*MachineId=*/1);
  FleetScheduler Sched(FC);
  TestDaemonRig Rig(Spool, StateFile);
  Rig.Config.SolverCacheFile = CacheFile;
  Rig.Config.SolverCacheEveryCycles = 1;
  Rig.Config.MaxStepsPerCycle = 3;
  CollectorDaemon Daemon(Rig.Config, Sched);
  std::string Err;
  EXPECT_TRUE(Daemon.start(&Err)) << Err;
  for (unsigned Guard = 0;
       (Sched.hasPendingWork() || !listSpoolFiles(Spool).empty()) &&
       Guard < 500;
       ++Guard)
    EXPECT_TRUE(Daemon.runCycle());
  EXPECT_FALSE(Sched.hasPendingWork());
  Out.Life2 = Daemon.getStats();
  Out.Life2Cache = Sched.getCacheStats();
  Out.FinalState = stateBytes(Sched);
  return Out;
}

TEST(Daemon, SolverCacheSurvivesRestartWithByteIdenticalResults) {
  std::string CacheFile =
      freshDir("cache_restart_img") + "/solver.cache";

  TwoLifeResult Cold = runTwoLifeSession("cache_restart_cold",
                                         /*CacheFile=*/"");
  TwoLifeResult Warm = runTwoLifeSession("cache_restart_warm", CacheFile);

  // Life 1 checkpointed an image every cycle; life 2 loaded it.
  EXPECT_GE(Warm.Life1.CacheSaves, 4u);
  EXPECT_EQ(Warm.Life1.CacheSaveFailures, 0u);
  EXPECT_GT(Warm.Life2.CacheEntriesLoaded, 0u)
      << "life 1's solver results must survive into life 2";
  EXPECT_GT(Warm.Life2Cache.Hits, 0u)
      << "resumed campaigns must actually reuse persisted results";
  EXPECT_EQ(Cold.Life2.CacheEntriesLoaded, 0u);

  // The cache is a pure cost optimization: the fleet lands byte-for-byte
  // where a cold restart lands.
  EXPECT_EQ(Warm.FinalState, Cold.FinalState);
}

TEST(Daemon, CacheCheckpointCrashWindowIsSafeOnEitherSide) {
  TwoLifeResult Control = runTwoLifeSession("cache_crash_ctl",
                                            /*CacheFile=*/"");

  // Crash *before* the publish rename, every cycle: no image ever lands.
  // The daemon treats that as a counted non-event and life 2 cold-starts
  // to identical results.
  {
    std::string CacheFile =
        freshDir("cache_crash_pre_img") + "/solver.cache";
    FaultFs FF;
    std::vector<Failpoint> Points;
    ASSERT_TRUE(
        parseFaultSpec("rename:fail:path=solver.cache:fire=0", Points));
    for (const Failpoint &P : Points)
      FF.addFailpoint(P);
    TwoLifeResult R = runTwoLifeSession("cache_crash_pre", CacheFile, &FF);
    EXPECT_EQ(R.Life1.CacheSaves, 0u);
    EXPECT_GE(R.Life1.CacheSaveFailures, 4u);
    // No image survived life 1, so life 2's load was a cold start (life 2
    // then publishes its own images fault-free — the file existing *now*
    // is expected).
    EXPECT_EQ(R.Life2.CacheEntriesLoaded, 0u);
    EXPECT_FALSE(FsOps::real().exists(CacheFile + ".tmp"))
        << "publishes must not litter temp files";
    EXPECT_EQ(R.FinalState, Control.FinalState);
  }

  // Crash *after* an earlier publish: only the first image survives, so
  // life 2 restarts from a stale cache — also fine, also byte-identical.
  {
    std::string CacheFile =
        freshDir("cache_crash_post_img") + "/solver.cache";
    FaultFs FF;
    std::vector<Failpoint> Points;
    ASSERT_TRUE(parseFaultSpec(
        "rename:fail:path=solver.cache:skip=1:fire=0", Points));
    for (const Failpoint &P : Points)
      FF.addFailpoint(P);
    TwoLifeResult R = runTwoLifeSession("cache_crash_post", CacheFile, &FF);
    EXPECT_EQ(R.Life1.CacheSaves, 1u);
    EXPECT_GE(R.Life1.CacheSaveFailures, 3u);
    EXPECT_GT(R.Life2.CacheEntriesLoaded, 0u)
        << "the first published image must survive later failed publishes "
           "and load on restart";
    EXPECT_EQ(R.FinalState, Control.FinalState);
  }

  // A corrupted image (bit rot, torn copy) loads as empty — a counted
  // cold start, never a crash, and still byte-identical.
  {
    std::string CacheFile =
        freshDir("cache_crash_corrupt_img") + "/solver.cache";
    TwoLifeResult Seed = runTwoLifeSession("cache_crash_corrupt_seed",
                                           CacheFile);
    EXPECT_EQ(Seed.FinalState, Control.FinalState);
    std::vector<uint8_t> Img;
    ASSERT_EQ(FsOps::real().readFile(CacheFile, Img), FsStatus::Ok);
    ASSERT_FALSE(Img.empty());
    Img[Img.size() / 2] ^= 0x40;
    ASSERT_EQ(FsOps::real().writeFile(CacheFile, Img.data(), Img.size()),
              FsStatus::Ok);
    SolverResultCache Probe;
    CacheLoadStats LS;
    EXPECT_FALSE(Probe.loadFromFile(CacheFile, nullptr, &LS));
    EXPECT_TRUE(LS.FileFound);
    EXPECT_FALSE(LS.Valid);
    EXPECT_EQ(Probe.getStats().Entries, 0u);
  }
}

//===----------------------------------------------------------------------===//
// Preemption: suspend, resume, byte-identical results
//===----------------------------------------------------------------------===//

/// The deterministic report stream of machine 0 running Bash + Memcached,
/// split into the coldest signature's reports (few occurrences, a
/// multi-iteration campaign) and everything else (includes a signature hot
/// enough to preempt it).
struct PreemptStream {
  std::vector<FleetFailureReport> Cold, Rest;
  uint64_t ColdDigest = 0;

  PreemptStream() {
    std::vector<FleetFailureReport> Stream;
    for (const char *Id : {"Bash-108885", "Memcached-2019-11596"})
      simulateMachine(*findBug(Id), 200, /*MachineId=*/0, RootSeed,
                      VmConfig(),
                      [&](const FleetFailureReport &R) {
                        Stream.push_back(R);
                      });
    std::map<uint64_t, uint64_t> Counts;
    for (const FleetFailureReport &R : Stream)
      ++Counts[FailureSignature::of(R.Failure).Digest];
    uint64_t ColdCount = ~0ULL, HotCount = 0;
    for (const auto &[Digest, Count] : Counts) {
      if (Count < ColdCount) {
        ColdCount = Count;
        ColdDigest = Digest;
      }
      HotCount = std::max(HotCount, Count);
    }
    // The preemption premise: some bucket is strictly hotter than the
    // cold one and crosses the hot threshold used below. (EXPECT, not
    // ASSERT: fatal assertions cannot be used in a constructor.)
    EXPECT_GT(HotCount, ColdCount);
    EXPECT_GE(HotCount, 4u);
    for (FleetFailureReport &R : Stream)
      (FailureSignature::of(R.Failure).Digest == ColdDigest ? Cold : Rest)
          .push_back(std::move(R));
  }
};

FleetConfig preemptConfig() {
  FleetConfig FC;
  FC.RootSeed = RootSeed;
  FC.Preempt.Enabled = true;
  FC.Preempt.HotOccurrences = 4;
  return FC;
}

TEST(Preemption, HotBucketSuspendsWeakestCampaignAndResumesByteIdentical) {
  PreemptStream Stream;

  // Uninterrupted control: same submissions, stepped straight to done.
  FleetScheduler Control(preemptConfig());
  for (const FleetFailureReport &R : Stream.Cold)
    Control.submit(R);
  for (const FleetFailureReport &R : Stream.Rest)
    Control.submit(R);
  Control.stepCampaigns();
  ASSERT_FALSE(Control.hasPendingWork());
  EXPECT_EQ(Control.totalPreemptions(), 0u)
      << "nothing to preempt for: all buckets known before stepping";

  // Preempted run: the cold bucket starts first and is mid-campaign when
  // the hot bucket arrives.
  FleetScheduler Sched(preemptConfig());
  for (const FleetFailureReport &R : Stream.Cold)
    Sched.submit(R);
  EXPECT_EQ(Sched.stepCampaigns(2), 2u);
  ASSERT_EQ(Sched.numActive(), 1u);
  ASSERT_FALSE(Sched.getCampaigns()[0].Completed)
      << "premise: the cold campaign must still be mid-flight";

  for (const FleetFailureReport &R : Stream.Rest)
    Sched.submit(R);
  Sched.stepCampaigns(1);
  EXPECT_EQ(Sched.totalPreemptions(), 1u);
  EXPECT_EQ(Sched.numSuspended(), 1u);
  EXPECT_TRUE(Sched.getCampaigns()[0].Suspended);
  EXPECT_GE(Sched.getCampaigns()[0].IterationsDone, 2u);

  // Mid-flight checkpoint state is persisted for suspended campaigns...
  std::string Mid = stateBytes(Sched);
  EXPECT_NE(Mid.find("suspended 1"), std::string::npos);
  EXPECT_NE(Mid.find("iterationsdone "), std::string::npos);

  Sched.stepCampaigns();
  ASSERT_FALSE(Sched.hasPendingWork());
  EXPECT_EQ(Sched.numSuspended(), 0u);
  EXPECT_EQ(Sched.snapshotReport().Preemptions, 1u);

  // ...and gone from the final file: byte-identical to the uninterrupted
  // run, test cases included.
  EXPECT_EQ(stateBytes(Sched), stateBytes(Control));
  const Campaign *Preempted = nullptr, *Clean = nullptr;
  for (const Campaign &C : Sched.getCampaigns())
    if (C.Sig.Digest == Stream.ColdDigest)
      Preempted = &C;
  for (const Campaign &C : Control.getCampaigns())
    if (C.Sig.Digest == Stream.ColdDigest)
      Clean = &C;
  ASSERT_TRUE(Preempted && Clean);
  EXPECT_EQ(Preempted->Preemptions, 1u);
  EXPECT_EQ(Preempted->Report.TestCase.Bytes, Clean->Report.TestCase.Bytes);
  EXPECT_EQ(Preempted->Report.TestCase.Args, Clean->Report.TestCase.Args);
  EXPECT_EQ(Preempted->IterationsDone, Clean->IterationsDone)
      << "resume must continue the parked session, not restart it";
}

TEST(Preemption, CrossProcessResumeOfSuspendedCampaignIsByteIdentical) {
  PreemptStream Stream;

  FleetScheduler Control(preemptConfig());
  for (const FleetFailureReport &R : Stream.Cold)
    Control.submit(R);
  for (const FleetFailureReport &R : Stream.Rest)
    Control.submit(R);
  Control.stepCampaigns();

  // Preempt, then kill the process at the checkpoint: the suspended
  // campaign crosses processes through the state file alone.
  std::string StateFile =
      freshDir("preempt_xproc") + "/fleet.state";
  {
    FleetScheduler Dying(preemptConfig());
    for (const FleetFailureReport &R : Stream.Cold)
      Dying.submit(R);
    Dying.stepCampaigns(2);
    for (const FleetFailureReport &R : Stream.Rest)
      Dying.submit(R);
    Dying.stepCampaigns(1);
    ASSERT_EQ(Dying.numSuspended(), 1u);
    std::string Err;
    ASSERT_TRUE(Dying.saveState(StateFile, &Err)) << Err;
  }

  // A suspended campaign loads as pending and re-executes
  // deterministically from scratch — same seed, same final bytes.
  FleetScheduler Resumed(preemptConfig());
  std::string Err;
  ASSERT_TRUE(Resumed.loadState(StateFile, &Err)) << Err;
  EXPECT_TRUE(Resumed.hasPendingWork());
  Resumed.stepCampaigns();
  ASSERT_FALSE(Resumed.hasPendingWork());
  EXPECT_EQ(stateBytes(Resumed), stateBytes(Control));
}

//===----------------------------------------------------------------------===//
// Live telemetry: /healthz watchdog flip, /status, periodic snapshots
//===----------------------------------------------------------------------===//

/// Drives the daemon's HTTP handler directly — same code path as a real
/// scrape, minus the socket (the socket itself is NetTest.cpp's job).
net::HttpResponse probe(CollectorDaemon &Daemon, const std::string &Path) {
  net::HttpRequest Req;
  Req.Method = "GET";
  Req.Path = Path;
  return Daemon.handleHttp(Req);
}

TEST(Telemetry, HealthzFlipsUnhealthyOnMissedCycleDeadline) {
  std::string Spool = freshDir("wd_healthz");
  std::string Diag = freshDir("wd_healthz_diag");
  publishCraftedFile(Spool);

  // Two failing drain attempts put two backoff sleeps inside cycle 1 —
  // the sleep hook is the deterministic stand-in for "an external scraper
  // probes while the cycle is wedged".
  FaultFs FF;
  std::vector<Failpoint> Points;
  ASSERT_TRUE(parseFaultSpec("createdir:fail:path=quarantine:fire=2", Points));
  for (const Failpoint &P : Points)
    FF.addFailpoint(P);

  TestDaemonRig Rig(Spool, "", &FF);
  Rig.Config.CycleDeadlineMs = 1000;
  Rig.Config.StallDiagDir = Diag;

  CollectorDaemon *Live = nullptr;
  std::vector<int> ProbeStatuses;
  Rig.Config.Sleep = [&](uint64_t Ms) {
    Rig.Clock.advanceNs(Ms * 1'000'000);
    // Blow straight through the 1 s cycle deadline, then probe.
    Rig.Clock.advanceNs(2'000'000'000);
    net::HttpResponse H = probe(*Live, "/healthz");
    ProbeStatuses.push_back(H.Status);
    if (H.Status == 503) {
      EXPECT_NE(H.Body.find("status: unhealthy"), std::string::npos) << H.Body;
    }
    // /metrics keeps serving while unhealthy — a stall is exactly when
    // the scrape matters most.
    EXPECT_EQ(probe(*Live, "/metrics").Status, 200);
  };

  FleetScheduler Sched((FleetConfig()));
  CollectorDaemon Daemon(Rig.Config, Sched);
  Live = &Daemon;
  ASSERT_TRUE(Daemon.runCycle());

  ASSERT_GE(ProbeStatuses.size(), 1u);
  EXPECT_EQ(ProbeStatuses[0], 503)
      << "the first probe past the deadline must already see unhealthy";
  EXPECT_EQ(Daemon.watchdog().trips(), 1u)
      << "one trip per armed cycle, not one per probe";
  EXPECT_EQ(Daemon.watchdog().lastTripCycle(), 1u);

  // The trip dumped one-shot stall diagnostics.
  EXPECT_TRUE(FsOps::real().exists(Diag + "/stall-cycle1.metrics.json"));
  EXPECT_TRUE(FsOps::real().exists(Diag + "/stall-cycle1.spans.jsonl"));

  // The late cycle finished and disarmed: healthy again, and a clean
  // follow-up cycle stays healthy without growing the trip count.
  EXPECT_EQ(probe(Daemon, "/healthz").Status, 200);
  FF.clearFailpoints();
  ASSERT_TRUE(Daemon.runCycle());
  EXPECT_EQ(probe(Daemon, "/healthz").Status, 200);
  EXPECT_EQ(Daemon.watchdog().trips(), 1u);
}

TEST(Telemetry, StatusEndpointReportsCampaignTable) {
  std::string Spool = freshDir("status_table");
  publishCraftedFile(Spool);
  FleetScheduler Sched((FleetConfig()));
  TestDaemonRig Rig(Spool);
  CollectorDaemon Daemon(Rig.Config, Sched);
  ASSERT_TRUE(Daemon.runCycle());

  net::HttpResponse R = probe(Daemon, "/status");
  EXPECT_EQ(R.Status, 200);
  EXPECT_EQ(R.ContentType, "application/json; charset=utf-8");
  std::string Err;
  EXPECT_TRUE(obs::validateJson(R.Body, &Err)) << Err << "\n" << R.Body;
  // Both crafted buckets triaged; unknown bug ids complete inline.
  EXPECT_NE(R.Body.find("\"bug-a\""), std::string::npos) << R.Body;
  EXPECT_NE(R.Body.find("\"bug-b\""), std::string::npos) << R.Body;
  EXPECT_NE(R.Body.find("\"completed\""), std::string::npos) << R.Body;
  EXPECT_NE(R.Body.find("\"spool_depth\""), std::string::npos);
  EXPECT_NE(R.Body.find("\"watchdog\""), std::string::npos);

  // Query strings are stripped; unknown paths 404.
  EXPECT_EQ(probe(Daemon, "/status?pretty=1").Status, 200);
  EXPECT_EQ(probe(Daemon, "/nope").Status, 404);
}

TEST(Telemetry, MetricsEndpointIsValidPrometheusExposition) {
  std::string Spool = freshDir("metrics_endpoint");
  publishCraftedFile(Spool);
  FleetScheduler Sched((FleetConfig()));
  TestDaemonRig Rig(Spool);
  CollectorDaemon Daemon(Rig.Config, Sched);
  ASSERT_TRUE(Daemon.runCycle());

  net::HttpResponse R = probe(Daemon, "/metrics");
  EXPECT_EQ(R.Status, 200);
  EXPECT_EQ(R.ContentType, obs::promContentType());
  std::string Err;
  EXPECT_TRUE(obs::promValidateExposition(R.Body, &Err)) << Err;
  EXPECT_NE(R.Body.find("daemon_cycles_total"), std::string::npos);
}

TEST(Telemetry, MetricsSnapshotsEveryNCycles) {
  std::string Spool = freshDir("metrics_every");
  std::string Path = freshDir("metrics_every_out") + "/metrics.json";
  FleetScheduler Sched((FleetConfig()));
  TestDaemonRig Rig(Spool);
  Rig.Config.MetricsEveryCycles = 2;
  Rig.Config.MetricsJsonPath = Path;
  CollectorDaemon Daemon(Rig.Config, Sched);
  for (int I = 0; I < 4; ++I)
    ASSERT_TRUE(Daemon.runCycle());

  EXPECT_EQ(Daemon.getStats().MetricsSnapshots, 2u) << "cycles 2 and 4";
  ASSERT_TRUE(FsOps::real().exists(Path));
  EXPECT_FALSE(FsOps::real().exists(Path + ".tmp"))
      << "snapshots publish by rename; the temp must not linger";
  std::vector<uint8_t> Raw;
  ASSERT_EQ(FsOps::real().readFile(Path, Raw), FsStatus::Ok);
  std::string Body(Raw.begin(), Raw.end());
  std::string Err;
  EXPECT_TRUE(obs::validateJson(Body, &Err)) << Err;
  EXPECT_NE(Body.find("daemon.cycles"), std::string::npos);
}

TEST(Telemetry, MetricsSnapshotFailureIsCountedAndSurvived) {
  std::string Spool = freshDir("metrics_fail");
  std::string Path = freshDir("metrics_fail_out") + "/metrics.json";
  FaultFs FF;
  std::vector<Failpoint> Points;
  ASSERT_TRUE(parseFaultSpec("write:fail:path=metrics.json:fire=0", Points));
  for (const Failpoint &P : Points)
    FF.addFailpoint(P);

  TestDaemonRig Rig(Spool, "", &FF);
  Rig.Config.MetricsEveryCycles = 1;
  Rig.Config.MetricsJsonPath = Path;
  FleetScheduler Sched((FleetConfig()));
  CollectorDaemon Daemon(Rig.Config, Sched);
  // A failed snapshot is counted, never fatal to the cycle.
  ASSERT_TRUE(Daemon.runCycle());
  EXPECT_EQ(Daemon.getStats().MetricsSnapshots, 0u);
  EXPECT_EQ(Daemon.getStats().MetricsSnapshotFailures, 1u);
  EXPECT_FALSE(FsOps::real().exists(Path));
  EXPECT_FALSE(FsOps::real().exists(Path + ".tmp"));
}

TEST(Telemetry, ListenerServesConcurrentScrapesWhileCyclesRun) {
  std::string Spool = freshDir("live_listener");
  publishCraftedFile(Spool);

  // Real clock on purpose: the HTTP thread and the cycle thread race for
  // real here, which is what the TSan CI job is after. VirtualClock is a
  // single-threaded seam and must stay out of this test.
  DaemonConfig DC;
  DC.Collector.SpoolDir = Spool;
  DC.Listen = "127.0.0.1:0";
  DC.CycleDeadlineMs = 60'000; // Generous: must never trip on loopback.
  FleetScheduler Sched((FleetConfig()));
  CollectorDaemon Daemon(DC, Sched);
  std::string Err;
  ASSERT_TRUE(Daemon.start(&Err)) << Err;
  uint16_t Port = Daemon.listenPort();
  ASSERT_NE(Port, 0);

  std::atomic<bool> Done{false};
  std::atomic<unsigned> Scrapes{0}, Failures{0};
  std::thread Scraper([&] {
    const char *Paths[] = {"/metrics", "/healthz", "/status"};
    for (unsigned I = 0; !Done.load(std::memory_order_acquire); ++I) {
      net::HttpClientResponse R;
      if (net::httpGet("127.0.0.1", Port, Paths[I % 3], R) && R.Status == 200)
        Scrapes.fetch_add(1, std::memory_order_relaxed);
      else
        Failures.fetch_add(1, std::memory_order_relaxed);
    }
  });
  // At least five cycles, and more until the scraper's first request has
  // completed: five idle cycles can finish before the scraper thread is
  // even scheduled on a loaded machine, and then nothing overlapped.
  auto GiveUp = std::chrono::steady_clock::now() + std::chrono::seconds(30);
  for (int Cycle = 0;
       Cycle < 5 || (Scrapes.load() + Failures.load() == 0 &&
                     std::chrono::steady_clock::now() < GiveUp);
       ++Cycle)
    ASSERT_TRUE(Daemon.runCycle());
  Done.store(true, std::memory_order_release);
  Scraper.join();

  EXPECT_EQ(Failures.load(), 0u);
  EXPECT_GT(Scrapes.load(), 0u);

  // One final scrape of each endpoint, checked in full.
  net::HttpClientResponse R;
  ASSERT_TRUE(net::httpGet("127.0.0.1", Port, "/metrics", R, &Err)) << Err;
  EXPECT_TRUE(obs::promValidateExposition(R.Body, &Err)) << Err;
  ASSERT_TRUE(net::httpGet("127.0.0.1", Port, "/status", R, &Err)) << Err;
  EXPECT_TRUE(obs::validateJson(R.Body, &Err)) << Err;
  ASSERT_TRUE(net::httpGet("127.0.0.1", Port, "/healthz", R, &Err)) << Err;
  EXPECT_EQ(R.Status, 200);
  EXPECT_NE(R.Body.find("status: ok"), std::string::npos) << R.Body;
}

} // namespace

#include "obs/Watchdog.h"

//===----------------------------------------------------------------------===//
// Watchdog arm/disarm vs concurrent poll() — the TSan CI job runs this
// suite, so the test's job is to drive the exact interleaving where a
// late disarm races pollers observing the missed deadline, and assert
// the one-shot trip accounting stays exact either way.
//===----------------------------------------------------------------------===//

TEST(Watchdog, LateDisarmRacesConcurrentPollsWithExactTripAccounting) {
  obs::WatchdogConfig WC;
  WC.DeadlineMs = 1; // Real clock: late cycles genuinely blow the deadline.
  obs::CycleWatchdog Wd(WC);

  std::atomic<bool> Done{false};
  std::vector<std::thread> Pollers;
  for (int I = 0; I < 4; ++I)
    Pollers.emplace_back([&] {
      while (!Done.load(std::memory_order_acquire))
        Wd.poll();
    });

  constexpr uint64_t Cycles = 40;
  uint64_t LateCycles = 0;
  for (uint64_t Cycle = 1; Cycle <= Cycles; ++Cycle) {
    Wd.arm(Cycle);
    if (Cycle % 2) {
      // Guaranteed-late cycle: sleep past the deadline so the disarm
      // itself races the pollers' first-observer trip recording.
      std::this_thread::sleep_for(std::chrono::milliseconds(3));
      ++LateCycles;
    }
    Wd.disarm();
    // Disarm always returns to idle-healthy, trip recorded or not.
    EXPECT_FALSE(Wd.tripped());
    EXPECT_EQ(Wd.armedDeadlineNs(), 0u);
  }
  Done.store(true, std::memory_order_release);
  for (auto &T : Pollers)
    T.join();

  // Every late cycle trips exactly once — whoever observes it first —
  // so trips() is bounded by [late cycles, all cycles] even though
  // on-time cycles may be preempted past their 1ms deadline on a loaded
  // machine.
  EXPECT_GE(Wd.trips(), LateCycles);
  EXPECT_LE(Wd.trips(), Cycles);
  EXPECT_FALSE(Wd.poll()) << "disarmed watchdog must be quiescent";
  EXPECT_FALSE(Wd.tripped());
}
