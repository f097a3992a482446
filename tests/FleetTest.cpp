//===- FleetTest.cpp - Fleet service: triage, campaigns, cache, persistence ===//
//
// Covers the src/fleet/ subsystem:
//  - FailureSignature bucketing: schedule/thread-independent identity;
//    distinct bugs never share a bucket, reoccurrences always do.
//  - FleetScheduler: dedup + occurrence-ordered triage; same root seed =>
//    byte-identical per-campaign test cases at any worker count.
//  - Shared solver cache: cached answers equal fresh solves (also across
//    distinct ExprContexts), hit/eviction counters move.
//  - Persistence: save/load round-trips campaigns; a resumed scheduler does
//    not re-run completed campaigns.
//  - Rng::split: deterministic, parent-preserving, statistically sane.
//
//===----------------------------------------------------------------------===//

#include "fleet/FleetPersist.h"
#include "fleet/FleetScheduler.h"
#include "solver/SolverCache.h"
#include "vm/Interpreter.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <unistd.h>

using namespace er;

namespace {

/// Workloads whose campaigns reconstruct in milliseconds (keeps the fleet
/// tests tier-1 friendly); Memcached/Matrixssl/PHP stall at least once, so
/// their campaigns exercise multi-iteration reconstruction and the cache.
const char *FastCorpus[] = {"Bash-108885", "SQLite-4e8e485",
                            "Matrixssl-2014-1569", "Memcached-2019-11596",
                            "PHP-2012-2386"};

FleetConfig fastConfig(unsigned Jobs, uint64_t RootSeed = 20260807) {
  FleetConfig FC;
  FC.Jobs = Jobs;
  FC.RootSeed = RootSeed;
  return FC;
}

void harvestFastCorpus(FleetScheduler &Sched, unsigned Runs = 80) {
  for (const char *Id : FastCorpus)
    Sched.harvest(*findBug(Id), Runs, /*MachineId=*/1);
}

/// Lower-case hex of \p Bytes, for golden-byte comparisons.
std::string toHex(const std::vector<uint8_t> &Bytes) {
  static const char Digits[] = "0123456789abcdef";
  std::string S;
  for (uint8_t B : Bytes) {
    S += Digits[B >> 4];
    S += Digits[B & 15];
  }
  return S;
}

std::string tempPath(const std::string &Name) {
  return testing::TempDir() + "/" + Name;
}

/// Serialized scheduler state with the one wall-clock field scrubbed —
/// the byte-comparison proxy for "the same result".
std::string stateBytes(const FleetScheduler &Sched) {
  std::string Path =
      tempPath("er_fleet_state_cmp." + std::to_string(::getpid()) + ".txt");
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

//===----------------------------------------------------------------------===//
// FailureSignature
//===----------------------------------------------------------------------===//

FailureRecord record(FailureKind Kind, unsigned Instr,
                     std::vector<unsigned> Stack, uint32_t Tid = 0,
                     std::string Msg = "") {
  FailureRecord R;
  R.Kind = Kind;
  R.InstrGlobalId = Instr;
  R.CallStack = std::move(Stack);
  R.Tid = Tid;
  R.Message = std::move(Msg);
  return R;
}

TEST(FailureSignature, ExcludesScheduleDependentFields) {
  // Same bug, observed on different threads with different messages (what
  // two different schedule seeds produce): one bucket.
  auto A = FailureSignature::of(
      record(FailureKind::UseAfterFree, 42, {7, 9}, /*Tid=*/0, "use after free"));
  auto B = FailureSignature::of(
      record(FailureKind::UseAfterFree, 42, {7, 9}, /*Tid=*/3, "worker died"));
  EXPECT_EQ(A, B);
  EXPECT_EQ(A.Digest, B.Digest);
}

TEST(FailureSignature, DistinctBugsDiffer) {
  auto Base = FailureSignature::of(record(FailureKind::NullDeref, 42, {7, 9}));
  // Different kind at the same site.
  EXPECT_NE(Base.Digest,
            FailureSignature::of(record(FailureKind::OutOfBounds, 42, {7, 9}))
                .Digest);
  // Different faulting site.
  EXPECT_NE(Base.Digest,
            FailureSignature::of(record(FailureKind::NullDeref, 43, {7, 9}))
                .Digest);
  // Different call path to the same site.
  EXPECT_NE(Base.Digest,
            FailureSignature::of(record(FailureKind::NullDeref, 42, {8, 9}))
                .Digest);
  // Prefix call path.
  EXPECT_NE(Base.Digest,
            FailureSignature::of(record(FailureKind::NullDeref, 42, {7}))
                .Digest);
}

TEST(FailureSignature, DistinctWorkloadBugsDoNotCollide) {
  // Harvest two unrelated workloads; every cross-workload bucket pair must
  // have distinct signatures.
  FleetScheduler SchedA(fastConfig(1)), SchedB(fastConfig(1));
  ASSERT_GT(SchedA.harvest(*findBug("Bash-108885"), 200, 1), 0u);
  ASSERT_GT(SchedB.harvest(*findBug("SQLite-4e8e485"), 200, 1), 0u);
  for (const Campaign &CA : SchedA.getCampaigns())
    for (const Campaign &CB : SchedB.getCampaigns()) {
      EXPECT_NE(CA.Sig, CB.Sig);
      EXPECT_NE(CA.Sig.Digest, CB.Sig.Digest);
    }
}

TEST(FailureSignature, SameBugAcrossScheduleSeedsCollides) {
  // The pbzip2-style use-after-free only fails under particular
  // interleavings; collect occurrences under many distinct schedule seeds
  // and check they all land in one bucket.
  const BugSpec &Spec = *findBug("Pbzip2");
  auto M = compileBug(Spec);
  Rng R(7);
  FailureSignature First;
  unsigned Seen = 0;
  uint64_t FirstSeed = 0;
  bool DistinctSeeds = false;
  for (int Try = 0; Try < 4000 && Seen < 4; ++Try) {
    ProgramInput In = Spec.ProductionInput(R);
    VmConfig VC;
    VC.ChunkSize = Spec.VmChunkSize;
    VC.ScheduleSeed = R.next();
    Interpreter VM(*M, VC);
    RunResult RR = VM.run(In);
    if (RR.Status != ExitStatus::Failure)
      continue;
    FailureSignature S = FailureSignature::of(RR.Failure);
    if (Seen == 0) {
      First = S;
      FirstSeed = VC.ScheduleSeed;
    } else {
      EXPECT_EQ(First, S) << "occurrence " << Seen
                          << " bucketed differently: " << S.describe();
      DistinctSeeds |= VC.ScheduleSeed != FirstSeed;
    }
    ++Seen;
  }
  ASSERT_GE(Seen, 2u) << "bug did not reoccur";
  EXPECT_TRUE(DistinctSeeds);
}

//===----------------------------------------------------------------------===//
// FleetScheduler
//===----------------------------------------------------------------------===//

TEST(FleetScheduler, DedupsAndTriagesByOccurrenceCount) {
  FleetScheduler Sched(fastConfig(1));
  auto Hot = record(FailureKind::NullDeref, 10, {1});
  auto Cold = record(FailureKind::OutOfBounds, 20, {2});
  Sched.submit({"no-such-workload", Cold});
  for (int I = 0; I < 3; ++I)
    Sched.submit({"no-such-workload", Hot});
  ASSERT_EQ(Sched.numCampaigns(), 2u);

  FleetReport FR = Sched.run();
  ASSERT_EQ(FR.Campaigns.size(), 2u);
  // Triage order: the 3-occurrence bucket first.
  EXPECT_EQ(FR.Campaigns[0].Occurrences, 3u);
  EXPECT_EQ(FR.Campaigns[1].Occurrences, 1u);
  EXPECT_EQ(FR.Campaigns[0].Sig, FailureSignature::of(Hot));
  // Unknown workloads fail the campaign without taking the service down.
  EXPECT_FALSE(FR.Campaigns[0].Report.Success);
  EXPECT_NE(FR.Campaigns[0].Report.FailureDetail.find("unknown workload"),
            std::string::npos);
}

TEST(FleetScheduler, DeterministicAcrossJobCounts) {
  // Batch run() and daemon-style stepCampaigns() at 1 and 4 jobs: every
  // combination must land on the same campaigns, byte for byte.
  struct Mode {
    unsigned Jobs;
    bool Stepped;
  };
  const Mode Modes[] = {{1, false}, {4, false}, {1, true}, {4, true}};
  constexpr size_t NumModes = sizeof(Modes) / sizeof(Modes[0]);
  FleetReport Reports[NumModes];
  std::string States[NumModes];
  for (size_t I = 0; I < NumModes; ++I) {
    FleetScheduler Sched(fastConfig(Modes[I].Jobs));
    harvestFastCorpus(Sched);
    if (Modes[I].Stepped) {
      Sched.stepCampaigns();
      ASSERT_FALSE(Sched.hasPendingWork());
      Reports[I] = Sched.snapshotReport();
    } else {
      Reports[I] = Sched.run();
      // Exactly one worker interval per campaign run() executed.
      const FleetReport &FR = Reports[I];
      std::vector<unsigned> Claims(FR.Campaigns.size());
      size_t Intervals = 0;
      for (const WorkerUtilization &U : FR.Workers)
        for (const WorkerInterval &WI : U.Intervals) {
          ASSERT_LT(WI.CampaignIndex, Claims.size());
          ++Claims[WI.CampaignIndex];
          ++Intervals;
        }
      EXPECT_EQ(Intervals, FR.CampaignsRun);
      EXPECT_EQ(FR.CampaignsRun, FR.Campaigns.size());
      for (unsigned N : Claims)
        EXPECT_EQ(N, 1u);
    }
    States[I] = stateBytes(Sched);
  }
  const FleetReport &A = Reports[0];
  ASSERT_GE(A.Campaigns.size(), 3u) << "corpus produced too few buckets";
  unsigned Reproduced = 0;
  for (const Campaign &C : A.Campaigns)
    Reproduced += C.Report.Success;
  EXPECT_GT(Reproduced, 0u);
  for (size_t J = 1; J < NumModes; ++J) {
    SCOPED_TRACE(testing::Message()
                 << (Modes[J].Stepped ? "stepCampaigns" : "run") << " at "
                 << Modes[J].Jobs << " jobs vs run at 1 job");
    // The acceptance bar: byte-identical persisted state...
    EXPECT_EQ(States[J], States[0]);
    const FleetReport &B = Reports[J];
    ASSERT_EQ(A.Campaigns.size(), B.Campaigns.size());
    for (size_t I = 0; I < A.Campaigns.size(); ++I) {
      const Campaign &CA = A.Campaigns[I], &CB = B.Campaigns[I];
      EXPECT_EQ(CA.Sig, CB.Sig);
      EXPECT_EQ(CA.Occurrences, CB.Occurrences);
      EXPECT_EQ(CA.CampaignSeed, CB.CampaignSeed);
      EXPECT_EQ(CA.Report.Success, CB.Report.Success);
      EXPECT_EQ(CA.Report.Occurrences, CB.Report.Occurrences);
      // ...and byte-identical test cases per bucket.
      EXPECT_EQ(CA.Report.TestCase.Args, CB.Report.TestCase.Args);
      EXPECT_EQ(CA.Report.TestCase.Bytes, CB.Report.TestCase.Bytes);
      EXPECT_EQ(CA.Report.ReplayScheduleSeed, CB.Report.ReplayScheduleSeed);
      EXPECT_EQ(CA.RecordingSet, CB.RecordingSet);
    }
  }
}

TEST(FleetScheduler, SharedCacheGetsHits) {
  FleetScheduler Sched(fastConfig(2));
  harvestFastCorpus(Sched);
  FleetReport FR = Sched.run();
  EXPECT_GT(FR.Cache.Misses, 0u);
  EXPECT_GT(FR.Cache.Hits, 0u) << "no repeated query was memoized";
  EXPECT_GT(FR.Reproduced, 0u);
}

//===----------------------------------------------------------------------===//
// Solver cache
//===----------------------------------------------------------------------===//

/// Builds the same nontrivial query in any context: constraints over two
/// byte variables and a symbolic array forcing real solving.
static std::vector<ExprRef> buildQuery(ExprContext &Ctx) {
  ExprRef X = Ctx.makeVar("x", 32);
  ExprRef Y = Ctx.makeVar("y", 32);
  ExprRef A = Ctx.symArray("a", 8, 16);
  std::vector<ExprRef> Q;
  Q.push_back(Ctx.eq(Ctx.add(X, Y), Ctx.constant(77, 32)));
  Q.push_back(Ctx.ult(X, Ctx.constant(50, 32)));
  Q.push_back(Ctx.ult(Ctx.constant(20, 32), X));
  ExprRef Idx = Ctx.trunc(Y, 8);
  Q.push_back(Ctx.eq(Ctx.read(A, Ctx.bvand(Idx, Ctx.constant(15, 8))),
                     Ctx.constant(9, 8)));
  return Q;
}

TEST(SolverCache, CachedAnswerEqualsFreshSolve) {
  SolverResultCache Cache;

  ExprContext FreshCtx;
  ConstraintSolver Fresh(FreshCtx);
  QueryResult Want = Fresh.checkSat(buildQuery(FreshCtx));
  ASSERT_EQ(Want.Status, QueryStatus::Sat);

  ExprContext Ctx1;
  SolverConfig SC;
  SC.SharedCache = &Cache;
  ConstraintSolver S1(Ctx1, SC);
  auto Q1 = buildQuery(Ctx1);
  QueryResult Miss = S1.checkSat(Q1);
  EXPECT_EQ(Cache.getStats().Hits, 0u);
  EXPECT_EQ(Cache.getStats().Misses, 1u);

  QueryResult Hit = S1.checkSat(Q1);
  EXPECT_EQ(Cache.getStats().Hits, 1u);

  // A second, independently built context (another campaign) shares the
  // entry, and the model is valid there too.
  ExprContext Ctx2;
  ConstraintSolver S2(Ctx2, SC);
  auto Q2 = buildQuery(Ctx2);
  QueryResult CrossHit = S2.checkSat(Q2);
  EXPECT_EQ(Cache.getStats().Hits, 2u);

  for (const QueryResult *R : {&Miss, &Hit, &CrossHit}) {
    EXPECT_EQ(R->Status, Want.Status);
    EXPECT_EQ(R->WorkUsed, Want.WorkUsed);
    EXPECT_EQ(R->Model.VarValues, Want.Model.VarValues);
    EXPECT_EQ(R->Model.ArrayValues, Want.Model.ArrayValues);
  }
  for (ExprRef E : Q2)
    EXPECT_EQ(Ctx2.evaluate(E, CrossHit.Model), 1u);
}

TEST(SolverCache, EnumerationIsMemoized) {
  SolverResultCache Cache;
  ExprContext Ctx;
  SolverConfig SC;
  SC.SharedCache = &Cache;
  ConstraintSolver S(Ctx, SC);

  ExprRef X = Ctx.makeVar("x", 8);
  std::vector<ExprRef> Asserts = {Ctx.ult(X, Ctx.constant(3, 8))};

  std::vector<uint64_t> First, Second;
  bool CompleteA = false, CompleteB = false;
  ASSERT_EQ(S.enumerateValues(Asserts, X, 8, First, CompleteA),
            QueryStatus::Sat);
  EXPECT_EQ(Cache.getStats().Hits, 0u);
  ASSERT_EQ(S.enumerateValues(Asserts, X, 8, Second, CompleteB),
            QueryStatus::Sat);
  EXPECT_EQ(Cache.getStats().Hits, 1u);
  EXPECT_EQ(First, Second);
  EXPECT_EQ(CompleteA, CompleteB);
  EXPECT_TRUE(CompleteA);
  ASSERT_EQ(First.size(), 3u);
}

TEST(SolverCache, CostWeightedEvictionKeepsValuableEntries) {
  SolverCacheConfig CC;
  CC.NumShards = 1;
  CC.MaxEntriesPerShard = 2;
  SolverResultCache Cache(CC);

  auto Digest = [](uint64_t K) { return QueryDigest{K, K * 31}; };
  auto Result = [](uint64_t Work) {
    CachedQueryResult R;
    R.Status = QueryStatus::Sat;
    R.WorkUsed = Work;
    return R;
  };

  // Expensive entry A gets reused; cheap entry B never does.
  Cache.insert(Digest(1), Result(100));
  Cache.insert(Digest(2), Result(10));
  CachedQueryResult Out;
  ASSERT_TRUE(Cache.lookup(Digest(1), Out));
  ASSERT_TRUE(Cache.lookup(Digest(1), Out));

  // Overflow: the victim must be B (score 10x1), not A (score 100x3).
  Cache.insert(Digest(3), Result(50));
  EXPECT_TRUE(Cache.lookup(Digest(1), Out));
  EXPECT_EQ(Out.WorkUsed, 100u);
  EXPECT_TRUE(Cache.lookup(Digest(3), Out));
  EXPECT_FALSE(Cache.lookup(Digest(2), Out)) << "evicted the wrong entry";

  SolverCacheStats Stats = Cache.getStats();
  EXPECT_EQ(Stats.Insertions, 3u);
  EXPECT_EQ(Stats.Evictions, 1u);
  EXPECT_EQ(Stats.Entries, 2u);

  // Cost-weighted overflow doubles as admission control: a new entry
  // cheaper than everything cached is the victim of its own insertion.
  Cache.insert(Digest(4), Result(1));
  EXPECT_FALSE(Cache.lookup(Digest(4), Out));
  EXPECT_EQ(Cache.getStats().Entries, 2u);

  // Equal scores evict the oldest insertion: fill a fresh shard with two
  // never-hit entries of equal work, then overflow with a third.
  SolverResultCache Tied(CC);
  Tied.insert(Digest(5), Result(20));
  Tied.insert(Digest(6), Result(20));
  Tied.insert(Digest(7), Result(20));
  EXPECT_FALSE(Tied.lookup(Digest(5), Out)) << "tie must evict the oldest";
  EXPECT_TRUE(Tied.lookup(Digest(6), Out));
  EXPECT_TRUE(Tied.lookup(Digest(7), Out));
}

TEST(SolverCache, EvictionKeepsCorrectness) {
  SolverCacheConfig CC;
  CC.NumShards = 1;
  CC.MaxEntriesPerShard = 2;
  SolverResultCache Cache(CC);

  ExprContext Ctx;
  SolverConfig SC;
  SC.SharedCache = &Cache;
  ConstraintSolver S(Ctx, SC);

  ExprRef X = Ctx.makeVar("x", 16);
  for (uint64_t K = 1; K <= 5; ++K) {
    QueryResult R =
        S.checkSat({Ctx.eq(X, Ctx.constant(K * 1000, 16))});
    ASSERT_EQ(R.Status, QueryStatus::Sat);
    EXPECT_EQ(R.Model.getVar(X->getVarId()), K * 1000);
  }
  SolverCacheStats Stats = Cache.getStats();
  EXPECT_EQ(Stats.Insertions, 5u);
  EXPECT_EQ(Stats.Evictions, 3u);
  EXPECT_EQ(Stats.Entries, 2u);

  // An evicted query re-solves to the same answer.
  QueryResult R = S.checkSat({Ctx.eq(X, Ctx.constant(1000, 16))});
  EXPECT_EQ(R.Status, QueryStatus::Sat);
  EXPECT_EQ(R.Model.getVar(X->getVarId()), 1000u);
}

// Pins the exact solver-cache image bytes (docs/SOLVER.md): two fixed
// entries, one checkSat entry with var and array model values (hit once,
// so its HitCount rides along) and one enumeration entry with Values,
// plus both shards' NextSeq metadata and the trailing image CRC.
TEST(SolverCache, GoldenImageBytes) {
  SolverCacheConfig CC;
  CC.NumShards = 2;
  SolverResultCache Cache(CC);

  CachedQueryResult Model;
  Model.Status = QueryStatus::Sat;
  Model.Model.VarValues = {{5, 0x1234}, {1, 7}};
  Model.Model.ArrayValues[3] = {{2, 0xff}, {0, 9}};
  Model.WorkUsed = 100;
  CachedQueryResult Enum;
  Enum.Status = QueryStatus::Sat;
  Enum.Values = {1, 2, ~0ULL};
  Enum.Complete = true;
  Enum.WorkUsed = 55;
  Cache.insert(QueryDigest{0x1111, 0x2222}, Model);
  Cache.insert(QueryDigest{0x3333, 0x4445}, Enum);
  CachedQueryResult Out;
  ASSERT_TRUE(Cache.lookup(QueryDigest{0x1111, 0x2222}, Out));

  EXPECT_EQ(toHex(Cache.serialize()),
            "4552534301000000017600000004640690111100000000000022220000000000"
            "0000006400000000000000010000000000000000000000000000000200000001"
            "0000000700000000000000050000003412000000000000010000000300000002"
            "000000000000000000000009000000000000000200000000000000ff00000000"
            "00000000000000020c00000057f382a3000000000100000000000000014e0000"
            "00f42328c6333300000000000045440000000000000001370000000000000000"
            "0000000000000000000000000000000000000000000000030000000100000000"
            "0000000200000000000000ffffffffffffffff020c00000038bf273801000000"
            "0100000000000000d57ec6dd");
}

//===----------------------------------------------------------------------===//
// Persistence
//===----------------------------------------------------------------------===//

TEST(FleetPersist, RoundTripAndResume) {
  std::string Path = tempPath("er_fleet_state.txt");

  FleetReport Original;
  {
    FleetScheduler Sched(fastConfig(2));
    harvestFastCorpus(Sched);
    Original = Sched.run();
    ASSERT_GT(Original.Reproduced, 0u);
    std::string Err;
    ASSERT_TRUE(Sched.saveState(Path, &Err)) << Err;
  }

  FleetScheduler Resumed(fastConfig(2));
  std::string Err;
  ASSERT_TRUE(Resumed.loadState(Path, &Err)) << Err;
  ASSERT_EQ(Resumed.numCampaigns(), Original.Campaigns.size());

  // Submitting more occurrences of a known bucket must not reopen it.
  harvestFastCorpus(Resumed);
  FleetReport FR = Resumed.run();
  EXPECT_EQ(FR.CampaignsRun, 0u) << "resume re-ran completed campaigns";
  EXPECT_EQ(FR.CampaignsResumed, Original.Campaigns.size());

  for (size_t I = 0; I < FR.Campaigns.size(); ++I) {
    const Campaign &Want = Original.Campaigns[I], &Got = FR.Campaigns[I];
    EXPECT_EQ(Got.Sig, Want.Sig);
    EXPECT_EQ(Got.BugId, Want.BugId);
    EXPECT_EQ(Got.CampaignSeed, Want.CampaignSeed);
    EXPECT_TRUE(Got.Resumed);
    EXPECT_EQ(Got.Report.Success, Want.Report.Success);
    EXPECT_EQ(Got.Report.Occurrences, Want.Report.Occurrences);
    EXPECT_EQ(Got.Report.TestCase.Args, Want.Report.TestCase.Args);
    EXPECT_EQ(Got.Report.TestCase.Bytes, Want.Report.TestCase.Bytes);
    EXPECT_EQ(Got.Report.ReplayScheduleSeed, Want.Report.ReplayScheduleSeed);
    EXPECT_EQ(Got.Report.Failure.Kind, Want.Report.Failure.Kind);
    EXPECT_EQ(Got.Report.Failure.Message, Want.Report.Failure.Message);
    EXPECT_EQ(Got.RecordingSet, Want.RecordingSet);
  }
  std::remove(Path.c_str());
}

TEST(FleetPersist, RejectsMalformedFiles) {
  std::string Path = tempPath("er_fleet_bad.txt");
  {
    std::FILE *F = std::fopen(Path.c_str(), "w");
    ASSERT_NE(F, nullptr);
    std::fputs("not a fleet state file\n", F);
    std::fclose(F);
  }
  uint64_t RootSeed = 0;
  std::vector<Campaign> Campaigns;
  std::string Err;
  EXPECT_FALSE(loadFleetState(Path, RootSeed, Campaigns, &Err));
  EXPECT_NE(Err.find("magic"), std::string::npos);

  EXPECT_FALSE(loadFleetState(tempPath("er_fleet_missing.txt"), RootSeed,
                              Campaigns, &Err));
  std::remove(Path.c_str());
}

/// Writes \p Contents to a temp file and returns whether loadFleetState
/// survives it (crash/UB = test failure; accept or reject are both fine).
static bool loadFromString(const std::string &Contents, std::string *Err,
                           std::vector<Campaign> *Out = nullptr) {
  // Per-process name: ctest runs each fuzz test as its own process, and a
  // shared scratch file would let them tear each other's contents mid-read.
  std::string Path =
      tempPath("er_fleet_fuzz." + std::to_string(::getpid()) + ".txt");
  std::FILE *F = std::fopen(Path.c_str(), "wb");
  EXPECT_NE(F, nullptr);
  std::fwrite(Contents.data(), 1, Contents.size(), F);
  std::fclose(F);
  uint64_t RootSeed = 0;
  std::vector<Campaign> Campaigns;
  bool Ok = loadFleetState(Path, RootSeed, Campaigns, Err);
  if (Out)
    *Out = std::move(Campaigns);
  std::remove(Path.c_str());
  return Ok;
}

/// Produces one real, completed fleet state to mutate.
static std::string validStateText() {
  static const std::string Text = [] {
    FleetScheduler Sched(fastConfig(1));
    Sched.harvest(*findBug("Bash-108885"), 80, 1);
    Sched.harvest(*findBug("SQLite-4e8e485"), 80, 1);
    Sched.run();
    std::string Path =
        tempPath("er_fleet_fuzz_seed." + std::to_string(::getpid()) + ".txt");
    std::string Err;
    EXPECT_TRUE(Sched.saveState(Path, &Err)) << Err;
    std::ifstream IS(Path);
    std::string S((std::istreambuf_iterator<char>(IS)),
                  std::istreambuf_iterator<char>());
    std::remove(Path.c_str());
    EXPECT_FALSE(S.empty());
    return S;
  }();
  return Text;
}

TEST(FleetPersistFuzz, TruncationAtEveryOffsetNeverCrashes) {
  std::string Valid = validStateText();
  for (size_t Cut = 0; Cut < Valid.size(); ++Cut) {
    std::string Err;
    loadFromString(Valid.substr(0, Cut), &Err);
    // Either verdict is acceptable; surviving the parse is the assertion.
  }
}

TEST(FleetPersistFuzz, RandomByteFlipsNeverCrash) {
  std::string Valid = validStateText();
  ASSERT_FALSE(Valid.empty());
  Rng R(20260807);
  for (int Trial = 0; Trial < 400; ++Trial) {
    std::string Mutated = Valid;
    unsigned Flips = 1 + static_cast<unsigned>(R.nextBounded(4));
    for (unsigned F = 0; F < Flips; ++F) {
      size_t Pos = static_cast<size_t>(R.nextBounded(Mutated.size()));
      Mutated[Pos] = static_cast<char>(R.nextBounded(256));
    }
    std::string Err;
    loadFromString(Mutated, &Err);
  }
}

TEST(FleetPersistFuzz, DuplicatedLinesNeverCrashOrOverMerge) {
  std::string Valid = validStateText();
  // Duplicate every line in place; the loader may reject the file, but it
  // must neither crash nor invent campaigns beyond the duplicated count.
  std::string Doubled;
  size_t Start = 0, Lines = 0, CampaignLines = 0;
  while (Start < Valid.size()) {
    size_t End = Valid.find('\n', Start);
    if (End == std::string::npos)
      End = Valid.size() - 1;
    std::string Line = Valid.substr(Start, End - Start + 1);
    Doubled += Line;
    Doubled += Line;
    CampaignLines += Line.rfind("campaign ", 0) == 0;
    ++Lines;
    Start = End + 1;
  }
  ASSERT_GT(Lines, 4u);
  std::string Err;
  std::vector<Campaign> Out;
  if (loadFromString(Doubled, &Err, &Out)) {
    EXPECT_LE(Out.size(), 2 * CampaignLines);
  }
}

TEST(FleetPersistFuzz, HostileCountsRejectedNotAllocated) {
  // Each of these used to reach an unchecked `reserve(N)` / `N * 2`
  // overflow; they must now fail cleanly (and quickly).
  const char *Hostile[] = {
      // readIdList OOM: id-list length far beyond the line.
      "er-fleet-state v1\nrootseed 1\ncampaign 00\nbug b\n"
      "sig 1 1 18446744073709551615 1\nend\n",
      "er-fleet-state v1\nrootseed 1\ncampaign 00\nbug b\n"
      "sig 1 1 1 7\noccurrences 1\nseed 1\ncompleted 1\n"
      "recordingset 99999999999999 1 2\nend\n",
      // testbytes length check wrapped at N = 2^63: Hex.size() == 0
      // passed `N * 2 == 0` and the decode loop ran off the string.
      "er-fleet-state v1\nrootseed 1\ncampaign 00\nbug b\n"
      "sig 1 1 1 7\ncompleted 1\ntestbytes 9223372036854775808 \nend\n",
      // Out-of-range failure kinds must not reach digesting/naming.
      "er-fleet-state v1\nrootseed 1\ncampaign 00\nbug b\n"
      "sig 250 1 1 7\nend\n",
      "er-fleet-state v1\nrootseed 1\ncampaign 00\nbug b\n"
      "sig 1 1 1 7\ncompleted 1\nfailure 99 1 0 0\nend\n",
      // A campaign with no identity must not merge as the zero signature.
      "er-fleet-state v1\nrootseed 1\ncampaign 00\nbug b\n"
      "occurrences 3\nend\n",
  };
  for (const char *Text : Hostile) {
    std::string Err;
    EXPECT_FALSE(loadFromString(Text, &Err)) << Text;
    EXPECT_FALSE(Err.empty());
  }
}

//===----------------------------------------------------------------------===//
// Rng::split
//===----------------------------------------------------------------------===//

TEST(RngSplit, DeterministicAndParentPreserving) {
  Rng Root(123);
  Rng A1 = Root.split(7);
  Rng A2 = Root.split(7);
  Rng B = Root.split(8);
  // Same stream id: identical sequence. Different id: different sequence.
  bool Differs = false;
  for (int I = 0; I < 64; ++I) {
    uint64_t V = A1.next();
    EXPECT_EQ(V, A2.next());
    Differs |= V != B.next();
  }
  EXPECT_TRUE(Differs);

  // split() is const: the parent's sequence is unaffected by splitting.
  Rng P1(42), P2(42);
  (void)P1.split(999);
  for (int I = 0; I < 16; ++I)
    EXPECT_EQ(P1.next(), P2.next());

  // Splitting depends on parent state, not just the seed.
  Rng Root2(123);
  (void)Root2.next();
  Rng C = Root2.split(7);
  Rng A3 = Rng(123).split(7);
  bool StateMatters = false;
  for (int I = 0; I < 16; ++I)
    StateMatters |= C.next() != A3.next();
  EXPECT_TRUE(StateMatters);
}

TEST(RngSplit, StatisticalSmoke) {
  // Each split stream should look uniform, and streams should not be
  // correlated with each other.
  Rng Root(20260807);
  const int Streams = 8, Draws = 4096;
  for (int S = 0; S < Streams; ++S) {
    Rng Child = Root.split(S);
    double Sum = 0;
    int Buckets[8] = {0};
    for (int I = 0; I < Draws; ++I) {
      double D = Child.nextDouble();
      Sum += D;
      ++Buckets[static_cast<int>(D * 8)];
    }
    double Mean = Sum / Draws;
    EXPECT_NEAR(Mean, 0.5, 0.03) << "stream " << S;
    for (int B = 0; B < 8; ++B)
      EXPECT_NEAR(Buckets[B], Draws / 8, Draws / 8 * 0.25)
          << "stream " << S << " bucket " << B;
  }

  // Cross-stream correlation: matching draws from adjacent streams agree
  // only at chance level.
  Rng X = Root.split(1), Y = Root.split(2);
  int TopBitAgree = 0;
  for (int I = 0; I < Draws; ++I)
    TopBitAgree += (X.next() >> 63) == (Y.next() >> 63);
  EXPECT_NEAR(TopBitAgree, Draws / 2, Draws / 8);
}

} // namespace
