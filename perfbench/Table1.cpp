//===- Table1.cpp - The table1-offline workload ---------------------------===//
//
// The 13 Table-1 bugs reconstructed one after another, closed loop with one
// client, under the Table-1 driver config (bench_table1_bugs): no modelled
// reoccurrence wait, no shared solver cache. Symex, solver and selection do
// nearly all the work; fleet and ingest do none.
//
// The driver seed is the Table-1 seed, not derived from --seed: the cost of
// SQLite-7be932d alone swings between 11 s and 48 s across driver seeds
// 1..8, so a seed-derived workload would measure the seed, not the code.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "workloads/Workloads.h"

#include <functional>

using namespace er;

namespace perfbench {
namespace {

constexpr uint64_t Table1Seed = 20260706;

DriverConfig table1Config(const BugSpec &Spec) {
  DriverConfig DC;
  DC.Solver.WorkBudget = Spec.SolverWorkBudget;
  DC.Vm.ChunkSize = Spec.VmChunkSize;
  DC.Seed = Table1Seed;
  DC.MaxIterations = 16;
  return DC;
}

struct BugRun {
  ReconstructionReport Report;
  double Seconds = 0;
  uint64_t Timeouts = 0;
};

/// One pass over all 13 bugs. Untraced, each bug is one
/// ReconstructionDriver::reconstruct call. Traced, the bench steps a
/// ReconstructionSession itself (reconstruct's own loop) so each step gets
/// a span; er.online_s is the step wall time symex and selection do not
/// account for. \p AfterBug, if set, runs untimed after each bug.
std::vector<BugRun> runPass(std::vector<std::unique_ptr<Module>> &Mods,
                            bool Traced, double *StepSeconds,
                            const std::function<void()> &AfterBug) {
  const std::vector<BugSpec> &Specs = allBugSpecs();
  std::vector<BugRun> Runs(Specs.size());
  for (size_t I = 0; I < Specs.size(); ++I) {
    const BugSpec &Spec = Specs[I];
    DriverConfig DC = table1Config(Spec);
    auto Gen = [&Spec](Rng &R) { return Spec.ProductionInput(R); };
    ObsCounters Before = ObsCounters::capture();
    auto T0 = Clock::now();
    if (!Traced) {
      ReconstructionDriver Driver(*Mods[I], DC);
      Runs[I].Report = Driver.reconstruct(Gen);
    } else {
      Scope S("er.reconstruct", Spec.Id);
      ExprContext Ctx;
      ConstraintSolver Solver(Ctx, DC.Solver);
      ReconstructionSession Session(*Mods[I], DC, Ctx, Solver, Gen);
      bool More = true;
      while (More) {
        Scope Step("er.step", Spec.Id);
        auto S0 = Clock::now();
        More = Session.step();
        *StepSeconds += secondsSince(S0);
      }
      Runs[I].Report = Session.takeReport();
    }
    Runs[I].Seconds = secondsSince(T0);
    Runs[I].Timeouts = (ObsCounters::capture() - Before).Timeouts;
    if (AfterBug)
      AfterBug();
  }
  return Runs;
}

std::vector<std::unique_ptr<Module>> compileAll() {
  Scope S("lang.compile");
  std::vector<std::unique_ptr<Module>> Mods;
  for (const BugSpec &Spec : allBugSpecs())
    Mods.push_back(compileBug(Spec));
  return Mods;
}

/// Replays every test case (failures go to \p Failed); returns one digest
/// line per bug.
std::vector<std::string> checkPass(const std::vector<BugRun> &Runs,
                                   const std::vector<std::unique_ptr<Module>> &Mods,
                                   uint64_t &Failed, ReplayStats *Stats) {
  const std::vector<BugSpec> &Specs = allBugSpecs();
  std::vector<std::string> Lines;
  for (size_t I = 0; I < Runs.size(); ++I) {
    const ReconstructionReport &R = Runs[I].Report;
    Failed += !replayReproduces(*Mods[I], table1Config(Specs[I]), R,
                                Specs[I].Id, Stats);
    Lines.push_back(fmt("%s reproduced=%d occ=%u testcase=%016llx "
                        "timeouts=%llu",
                        Specs[I].Id.c_str(), R.Success ? 1 : 0,
                        R.Occurrences,
                        (unsigned long long)testCaseHash(R.TestCase),
                        (unsigned long long)Runs[I].Timeouts));
  }
  return Lines;
}

double passSeconds(const std::vector<BugRun> &Runs) {
  double S = 0;
  for (const BugRun &B : Runs)
    S += B.Seconds;
  return S;
}

} // namespace

Result runTable1(const Options &Opt) {
  Result Res;
  std::vector<std::string> &Out = Res.Report;
  const size_t NumBugs = allBugSpecs().size();

  // Set-up: compiling the 13 programs. Reconstruction instruments the
  // modules it works on, so every pass gets freshly compiled ones. An
  // untraced pass also times compile rounds between its bugs (their
  // modules are dropped), so set-up is sampled across the whole pass.
  std::vector<std::unique_ptr<Module>> Mods;
  std::vector<double> SetupS;
  timeRounds(5, 0.25, SetupS, [&] { Mods = compileAll(); });
  std::function<void()> SampleSetup;
  if (!Opt.Trace)
    SampleSetup = [&SetupS] { timeRounds(10, 0, SetupS, compileAll); };

  // Whole passes until --seconds has elapsed, tracing off. A traced run
  // makes exactly one pass, traced: a second ~35-90 s pass would not fit
  // the run's time limit, and the golden digest (made by untraced passes)
  // already shows the traced pass reconstructs the same test cases.
  if (Opt.Trace)
    tracer().setEnabled(true);
  std::vector<double> Walls;
  std::vector<std::string> FirstLines;
  std::vector<BugRun> Runs;
  ReplayStats RS;
  ObsCounters Delta;
  double StepSeconds = 0, TraceCost = 0;
  auto Start = Clock::now();
  do {
    if (!Walls.empty())
      Mods = compileAll();
    ObsCounters Before = ObsCounters::capture();
    {
      Scope S("table1.pass");
      Runs = runPass(Mods, Opt.Trace, &StepSeconds, SampleSetup);
    }
    Delta = ObsCounters::capture() - Before;
    TraceCost = spanSeconds();
    Walls.push_back(passSeconds(Runs));
    uint64_t Failed = 0;
    std::vector<std::string> Lines =
        checkPass(Runs, Mods, Failed, Opt.Trace ? &RS : nullptr);
    Res.Attempted += NumBugs;
    if (FirstLines.empty()) {
      Out.push_back(fmt("replay: %llu of %zu test cases do not reproduce",
                        (unsigned long long)Failed, NumBugs));
      bool Have = false;
      Failed += checkGolden(Opt, Table1Seed, Lines, Have, Out);
      FirstLines = Lines;
      for (size_t I = 0; I < Runs.size(); ++I)
        Out.push_back(fmt("  %-22s %8.3f s  %s", allBugSpecs()[I].Id.c_str(),
                          Runs[I].Seconds, Lines[I].c_str()));
    } else {
      Failed += diffLines(FirstLines, Lines, "later pass", Out);
    }
    Res.Failed += std::min<uint64_t>(Failed, NumBugs);
  } while (!Opt.Trace && secondsSince(Start) < Opt.Seconds);
  Res.WallSeconds = median(Walls);
  Res.SetupSeconds = median(SetupS);

  IterationTotals T;
  for (const BugRun &B : Runs)
    T.add(B.Report);
  Out.push_back(fmt("reconstruct_s = %.4f s (median of %zu %s pass(es))",
                    Res.WallSeconds, Walls.size(),
                    Opt.Trace ? "traced" : "untraced"));
  Out.push_back(
      fmt("occurrences = %llu count", (unsigned long long)T.Occurrences));
  Out.push_back(fmt("setup_s = %.6f s (median of %zu compile rounds)",
                    Res.SetupSeconds, SetupS.size()));
  if (!Opt.Trace)
    return Res;

  // Per-layer figures from the iteration reports and obs deltas over the
  // traced pass.
  MetricMap &L = Res.Layers;
  fillReconstructionLayers(L, T, Delta, RS);
  L["lang.compile_s"] = Res.SetupSeconds;
  L["reconstruct_s"] = Res.WallSeconds;
  L["er.online_s"] = StepSeconds - T.SymexSeconds - T.SelectionSeconds;
  // What the four layers do not cover: driver and session bookkeeping
  // between steps (and timer granularity).
  L["er.unattributed_s"] = Res.WallSeconds - StepSeconds;
  L["obs.trace_overhead_frac"] = TraceCost / Res.WallSeconds;
  Out.push_back(fmt("traced pass: %.4f s = solver.busy %.4f + symex.self "
                    "%.4f + selection.busy %.4f + er.online %.4f + "
                    "unattributed %.4f",
                    Res.WallSeconds, L["solver.busy_s"], L["symex.self_s"],
                    L["selection.busy_s"], L["er.online_s"],
                    L["er.unattributed_s"]));
  return Res;
}

} // namespace perfbench
