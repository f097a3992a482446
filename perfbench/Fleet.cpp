//===- Fleet.cpp - The fleet-wait workload --------------------------------===//
//
// A seeded generated corpus harvested from 2 machines; every report is
// queued at t0, then FleetScheduler::run() reconstructs all campaigns at
// jobs = 4 with the shared solver cache and a 0.1 s modelled reoccurrence
// latency. Scheduling and overlapping the reoccurrence waits dominate;
// each campaign does little solving.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "er/Instrumenter.h"
#include "fleet/FleetScheduler.h"
#include "gen/GenConfig.h"
#include "workloads/Workloads.h"

using namespace er;

namespace perfbench {
namespace {

// 100 programs give ~110 campaigns, so campaign_latency_s.p90 has at least
// 10 campaigns beyond it.
constexpr unsigned CorpusPrograms = 100;
constexpr unsigned Machines = 2;
constexpr unsigned RunsPerMachine = 150;
constexpr unsigned Jobs = 4;
constexpr double ReoccurrenceLatency = 0.1;

FleetConfig fleetConfig(uint64_t Seed) {
  FleetConfig FC;
  FC.Jobs = Jobs;
  FC.RootSeed = Rng(Seed).split(0xf1ee7).next();
  FC.DriverBase.OccurrenceLatencySeconds = ReoccurrenceLatency;
  FC.ShareSolverCache = true;
  return FC;
}

/// Generates and registers the corpus; returns generateCorpus's time.
double generate(uint64_t Seed) {
  Scope S("gen.corpus");
  gen::GenConfig GC;
  GC.Seed = Rng(Seed).split(0x9e4).next();
  GC.Count = CorpusPrograms;
  auto T0 = Clock::now();
  std::vector<gen::GeneratedCampaign> Corpus = gen::generateCorpus(GC);
  double Secs = secondsSince(T0);
  std::vector<BugSpec> Specs;
  for (const gen::GeneratedCampaign &C : Corpus)
    Specs.push_back(gen::toBugSpec(C));
  registerGeneratedSpecs(std::move(Specs));
  return Secs;
}

std::unique_ptr<FleetScheduler> harvest(uint64_t Seed) {
  Scope S("fleet.harvest");
  auto Sched = std::make_unique<FleetScheduler>(fleetConfig(Seed));
  for (unsigned Machine = 0; Machine < Machines; ++Machine)
    for (const BugSpec &Spec : generatedBugSpecs())
      Sched->harvest(Spec, RunsPerMachine, Machine);
  return Sched;
}

std::string campaignKey(const Campaign &C) {
  return C.Sig.hex() + "/" + C.BugId;
}

/// One digest line per campaign, plus the fleet-wide timeout count
/// (timeouts cannot be attributed to campaigns that ran in parallel).
std::vector<std::string> digestLines(const FleetReport &FR,
                                     uint64_t Timeouts) {
  std::vector<std::string> Lines;
  for (const Campaign &C : FR.Campaigns)
    Lines.push_back(fmt("%s reproduced=%d occ=%u testcase=%016llx",
                        campaignKey(C).c_str(), C.Report.Success ? 1 : 0,
                        C.Report.Occurrences,
                        (unsigned long long)testCaseHash(C.Report.TestCase)));
  std::sort(Lines.begin(), Lines.end());
  Lines.push_back(fmt("~fleet timeouts=%llu", (unsigned long long)Timeouts));
  return Lines;
}

/// Replays every campaign's test case on its program with the campaign's
/// final recording set redeployed; returns how many do not reproduce and
/// names them in \p Out.
uint64_t replayFailures(const FleetReport &FR, ReplayStats *Stats,
                        std::vector<std::string> &Out) {
  uint64_t Failed = 0;
  for (const Campaign &C : FR.Campaigns) {
    bool Ok = false;
    if (const BugSpec *Spec = findBug(C.BugId)) {
      auto M = compileBug(*Spec);
      RecordingPlan Plan;
      for (unsigned Site : C.RecordingSet) {
        RecordedValue V;
        V.OriginInstr = Site;
        Plan.Values.push_back(V);
      }
      instrumentModule(*M, Plan);
      DriverConfig DC = fleetConfig(0).DriverBase;
      DC.Vm.ChunkSize = Spec->VmChunkSize;
      Ok = replayReproduces(*M, DC, C.Report, C.BugId, Stats);
    }
    if (!Ok)
      Out.push_back("replay FAILED: " + campaignKey(C) + " reproduced=" +
                    (C.Report.Success ? "1" : "0 (" + C.Report.FailureDetail +
                                              ")"));
    Failed += !Ok;
  }
  return Failed;
}

/// Campaigns of a later pass whose digest line differs from the first
/// pass's. A changed fleet-wide timeout count fails every campaign: it
/// cannot be pinned on one.
uint64_t passMismatches(const std::vector<std::string> &First,
                        const std::vector<std::string> &Got, const char *What,
                        std::vector<std::string> &Out) {
  uint64_t Bad = diffLines(First, Got, What, Out);
  return Got.back() != First.back() ? First.size() - 1 : Bad;
}

struct Latencies {
  std::vector<double> Done, Queued;
};

Latencies latencies(const FleetReport &FR) {
  Latencies L;
  for (const WorkerUtilization &W : FR.Workers)
    for (const WorkerInterval &I : W.Intervals) {
      L.Done.push_back(I.EndNs / 1e9);
      L.Queued.push_back(I.StartNs / 1e9);
    }
  return L;
}

} // namespace

Result runFleet(const Options &Opt) {
  Result Res;
  std::vector<std::string> &Out = Res.Report;

  std::vector<double> Setups, Gens, Walls;
  std::vector<std::string> FirstLines;
  Latencies FirstLat;
  uint64_t Occurrences = 0, Campaigns = 0;
  auto Start = Clock::now();
  do {
    // Set-up: corpus generation and harvest, all reports queued at t0.
    auto S0 = Clock::now();
    Gens.push_back(generate(Opt.Seed));
    std::unique_ptr<FleetScheduler> Sched = harvest(Opt.Seed);
    Setups.push_back(secondsSince(S0));

    ObsCounters Before = ObsCounters::capture();
    auto T0 = Clock::now();
    FleetReport FR = Sched->run();
    Walls.push_back(secondsSince(T0));
    uint64_t Timeouts = (ObsCounters::capture() - Before).Timeouts;

    uint64_t Failed = 0;
    std::vector<std::string> Lines = digestLines(FR, Timeouts);
    Res.Attempted += FR.Campaigns.size();
    if (FirstLines.empty()) {
      // Later passes must repeat these lines; identical test cases replay
      // identically, so only the first pass replays them.
      Failed += replayFailures(FR, nullptr, Out);
      Out.push_back(fmt("replay: %llu of %zu test cases do not reproduce",
                        (unsigned long long)Failed, FR.Campaigns.size()));
      bool Have = false;
      Failed += checkGolden(Opt, Opt.Seed, Lines, Have, Out);
      FirstLines = Lines;
      FirstLat = latencies(FR);
      Campaigns = FR.Campaigns.size();
      for (const Campaign &C : FR.Campaigns)
        Occurrences += C.Report.Occurrences;
    } else {
      Failed += passMismatches(FirstLines, Lines, "later pass", Out);
    }
    Res.Failed += std::min<uint64_t>(Failed, FR.Campaigns.size());
  } while (secondsSince(Start) < Opt.Seconds);

  Res.SetupSeconds = median(Setups);
  Res.WallSeconds = median(Walls);
  double Cpm = 60.0 * Campaigns / Res.WallSeconds;
  Out.push_back(fmt("corpus: %u programs -> %llu campaigns, %u machines x %u "
                    "runs, jobs=%u, %.1f s reoccurrence latency",
                    CorpusPrograms, (unsigned long long)Campaigns, Machines,
                    RunsPerMachine, Jobs, ReoccurrenceLatency));
  Out.push_back(fmt("campaigns_per_min = %.2f 1/min (median run() wall %.4f "
                    "s over %zu pass(es))",
                    Cpm, Res.WallSeconds, Walls.size()));
  std::string PerPass = "passes (setup, run() s):";
  for (size_t I = 0; I < Walls.size(); ++I)
    PerPass += fmt(" %.3f,%.3f", Setups[I], Walls[I]);
  Out.push_back(PerPass);
  Out.push_back(fmt("campaign_latency_s.p50 = %.4f s, .p90 = %.4f s "
                    "(n = %zu, first pass)",
                    quantile(FirstLat.Done, 0.5), quantile(FirstLat.Done, 0.9),
                    FirstLat.Done.size()));
  Out.push_back(fmt("occurrences = %llu count",
                    (unsigned long long)Occurrences));

  if (!Opt.Trace)
    return Res;

  MetricMap &L = Res.Layers;
  tracer().setEnabled(true);
  L["gen.corpus_s"] = median(Gens);
  generate(Opt.Seed);
  {
    Scope S("lang.compile");
    auto T0 = Clock::now();
    for (const BugSpec &Spec : generatedBugSpecs())
      compileBug(Spec);
    L["lang.compile_s"] = secondsSince(T0);
  }
  std::unique_ptr<FleetScheduler> Sched = harvest(Opt.Seed);
  ObsCounters Before = ObsCounters::capture();
  FleetReport FR;
  double Traced = 0, TraceCost = spanSeconds();
  {
    Scope S("fleet.run");
    uint64_t RunStart = tracer().nowNs();
    auto T0 = Clock::now();
    FR = Sched->run();
    Traced = secondsSince(T0);
    // Worker intervals are what run() returns; they become the campaign
    // spans, one lane per worker.
    for (const WorkerUtilization &W : FR.Workers)
      for (const WorkerInterval &I : W.Intervals)
        recordSpan("fleet.campaign",
                   campaignKey(FR.Campaigns[I.CampaignIndex]),
                   RunStart + I.StartNs, RunStart + I.EndNs,
                   1000 + W.WorkerId, S.number());
  }
  ObsCounters Delta = ObsCounters::capture() - Before;
  TraceCost = spanSeconds() - TraceCost;

  ReplayStats RS;
  uint64_t Failed = replayFailures(FR, &RS, Out);
  Failed += passMismatches(FirstLines, digestLines(FR, Delta.Timeouts),
                           "traced pass", Out);
  Res.Attempted += FR.Campaigns.size();
  Res.Failed += std::min<uint64_t>(Failed, FR.Campaigns.size());

  IterationTotals T;
  double CampaignWall = 0;
  for (const Campaign &C : FR.Campaigns) {
    T.add(C.Report);
    CampaignWall += C.WallNs / 1e9;
  }
  fillReconstructionLayers(L, T, Delta, RS);
  Latencies Lat = latencies(FR);
  L["campaigns_per_min"] = Cpm;
  L["campaign_latency_s.p50"] = quantile(FirstLat.Done, 0.5);
  L["campaign_latency_s.p90"] = quantile(FirstLat.Done, 0.9);
  L["campaign_latency_s.n"] = FirstLat.Done.size();
  // Online = campaign wall not spent in symex or selection: production
  // runs, the modelled reoccurrence waits, validation.
  L["er.online_s"] = CampaignWall - T.SymexSeconds - T.SelectionSeconds;
  L["solver.cache.hit_rate"] = FR.Cache.hitRate();
  L["fleet.busy_frac"] = FR.BusyFrac;
  L["fleet.cpu_s"] = FR.CpuSeconds;
  L["fleet.critical_path_s"] = FR.CriticalPathSeconds;
  L["fleet.queue_wait_s.p50"] = quantile(Lat.Queued, 0.5);
  L["fleet.queue_wait_s.p90"] = quantile(Lat.Queued, 0.9);
  L["fleet.lock_wait_s"] = Delta.LockWaitNs / 1e9;
  L["obs.trace_overhead_frac"] = TraceCost / Traced;
  return Res;
}

} // namespace perfbench
