//===- ErCoreTest.cpp - Constraint graph, selection, driver tests -----------===//
//
// Tests ER's core: constraint-graph construction, key data value selection
// (including the Fig. 3/Fig. 4 walkthrough), ptwrite instrumentation, and
// the end-to-end iterative reconstruction driver.
//
//===----------------------------------------------------------------------===//

#include "er/ConstraintGraph.h"
#include "er/Driver.h"
#include "er/Instrumenter.h"
#include "er/Selection.h"
#include "lang/Codegen.h"
#include "support/Rng.h"
#include "vm/Interpreter.h"

#include <gtest/gtest.h>

using namespace er;

namespace {

/// The paper's running example (Fig. 3) with inputs as program arguments.
const char *Fig3Source = R"(
global V: u32[256];

fn foo(a: u32, b: u32, c: u32, d: u32) {
  var x: u32 = a + b;
  if ((x < 256 && c < 256) && d < 256) {
    V[x] = 1;
    if (V[c] == 0) {
      V[c] = 512;
    }
    V[V[x]] = x;
    if (c < d) {
      if (V[V[d]] == x) {
        abort("fig3 failure");
      }
    }
  }
}

fn main() -> i64 {
  foo(input_arg(0) as u32, input_arg(1) as u32,
      input_arg(2) as u32, input_arg(3) as u32);
  return 0;
}
)";

std::unique_ptr<Module> compile(const std::string &Src) {
  CompileResult R = compileMiniLang(Src);
  EXPECT_TRUE(R.ok()) << R.Error;
  return std::move(R.M);
}

/// Produces a stalled snapshot for the Fig. 3 program under a small budget.
SymexResult stallFig3(Module &M, ExprContext &Ctx, uint64_t Budget) {
  TraceConfig TC;
  TraceRecorder Rec(TC);
  Interpreter VM(M, VmConfig());
  ProgramInput In;
  In.Args = {0, 2, 0, 2};
  RunResult RR = VM.run(In, &Rec);
  EXPECT_EQ(RR.Status, ExitStatus::Failure);

  SolverConfig SC;
  SC.WorkBudget = Budget;
  static ConstraintSolver *Leaked = nullptr; // Keep the solver alive.
  Leaked = new ConstraintSolver(Ctx, SC);
  ShepherdedExecutor SE(M, Ctx, *Leaked, SymexConfig());
  return SE.run(Rec.decode(), RR.Failure);
}

} // namespace

//===----------------------------------------------------------------------===//
// Constraint graph
//===----------------------------------------------------------------------===//

TEST(ConstraintGraph, CapturesChainsAndSizes) {
  auto M = compile(Fig3Source);
  ExprContext Ctx;
  SymexResult SR = stallFig3(*M, Ctx, 2000);
  ASSERT_EQ(SR.Status, SymexStatus::Stalled) << SR.Detail;

  ConstraintGraph G(SR.Snapshot);
  EXPECT_GT(G.numNodes(), 10u);
  EXPECT_GT(G.numEdges(), G.numNodes() / 2);
  ASSERT_NE(G.longestChain(), nullptr);
  EXPECT_EQ(G.longestChain()->Name, "V");
  // V is 256 x u32 = 1024 bytes, the largest symbolic object.
  ASSERT_NE(G.largestObjectChain(), nullptr);
  EXPECT_EQ(G.largestObjectChain()->byteSize(), 1024u);
}

//===----------------------------------------------------------------------===//
// Key data value selection on the running example
//===----------------------------------------------------------------------===//

TEST(Selection, BottleneckSetMatchesPaperNarrative) {
  auto M = compile(Fig3Source);
  ExprContext Ctx;
  SymexResult SR = stallFig3(*M, Ctx, 2000);
  ASSERT_EQ(SR.Status, SymexStatus::Stalled) << SR.Detail;

  ConstraintGraph G(SR.Snapshot);
  KeyValueSelector Sel(G);
  // The bottleneck set contains the symbolic indices of the write chain
  // over V (x and c in the paper's notation).
  EXPECT_GE(Sel.bottleneckSet().size(), 2u);
}

TEST(Selection, RecordingSetCheaperThanBottleneck) {
  auto M = compile(Fig3Source);
  ExprContext Ctx;
  SymexResult SR = stallFig3(*M, Ctx, 2000);
  ASSERT_EQ(SR.Status, SymexStatus::Stalled) << SR.Detail;

  ConstraintGraph G(SR.Snapshot);
  KeyValueSelector Sel(G);
  RecordingPlan Plan = Sel.computeRecordingSet();
  ASSERT_FALSE(Plan.Values.empty());

  uint64_t BottleneckCost = 0;
  for (ExprRef E : Sel.bottleneckSet()) {
    uint64_t C = Sel.costOf(E);
    if (C != UINT64_MAX)
      BottleneckCost += C;
  }
  EXPECT_LE(Plan.totalCost(), BottleneckCost)
      << "minimization must never increase the recording cost";
  // Every selected value has an instrumentation site.
  for (const auto &V : Plan.Values) {
    EXPECT_NE(V.E, nullptr);
    EXPECT_GT(V.WidthBytes, 0u);
  }
}

TEST(Selection, InferableElementsDropped) {
  // Build the paper's exact scenario at the expression level: bottleneck
  // {x, c, V[x]} where V[x] reads a chain written at x and c. With x and c
  // recorded, V[x] is inferable and must be dropped.
  ExprContext Ctx;
  ExprRef A = Ctx.makeVar("a", 32);
  ExprRef B = Ctx.makeVar("b", 32);
  ExprRef C = Ctx.makeVar("c", 32);
  ExprRef X = Ctx.add(A, B);
  ExprRef V0 = Ctx.constArray(32, 256, 0);
  ExprRef V1 = Ctx.write(V0, X, Ctx.constant(1, 32));
  ExprRef V2 = Ctx.write(V1, C, Ctx.constant(512, 32));
  ExprRef ReadVx = Ctx.read(V2, X);

  SymexSnapshot Snap;
  Snap.PathConstraint = {Ctx.ult(X, Ctx.constant(256, 32)),
                         Ctx.ult(C, Ctx.constant(256, 32))};
  Snap.ExecCounts.assign(10, 1);
  // Origins: x defined at instr 1, c at 2, V[x] at 3; a, b at 4 and 5.
  Snap.Origins = {{X, 1}, {C, 2}, {ReadVx, 3}, {A, 4}, {B, 5}};
  ObjectChain Chain;
  Chain.ObjId = 0;
  Chain.Name = "V";
  Chain.ElemWidthBits = 32;
  Chain.NumElems = 256;
  Chain.Writes = {{X, Ctx.constant(1, 32), 10},
                  {C, Ctx.constant(512, 32), 11}};
  Snap.Chains.push_back(Chain);
  Snap.CulpritExpr = ReadVx;

  ConstraintGraph G(Snap);
  KeyValueSelector Sel(G);

  // Bottleneck = {x, c, V[x]} as in Fig. 4.
  EXPECT_EQ(Sel.bottleneckSet().size(), 3u);

  RecordingPlan Plan = Sel.computeRecordingSet();
  // Recording set = {x, c}: V[x] is inferable once x and c are known
  // (Section 3.3.2), and decomposing x into {a, b} costs 8 > 4.
  ASSERT_EQ(Plan.Values.size(), 2u);
  std::vector<ExprRef> Got{Plan.Values[0].E, Plan.Values[1].E};
  EXPECT_TRUE((Got[0] == X && Got[1] == C) || (Got[0] == C && Got[1] == X));
  EXPECT_EQ(Plan.totalCost(), 8u); // 4 bytes for x + 4 bytes for c.
}

TEST(Selection, DecomposesWhenCheaper) {
  // y is a 64-bit value derived from one 8-bit input executed once;
  // recording the input byte (1 byte) beats recording y (8 bytes).
  ExprContext Ctx;
  ExprRef B = Ctx.makeVar("b", 8);
  ExprRef Y = Ctx.mul(Ctx.zext(B, 64), Ctx.constant(3, 64));

  SymexSnapshot Snap;
  Snap.ExecCounts.assign(4, 1);
  Snap.Origins = {{Y, 1}, {B, 2}, {Ctx.zext(B, 64), 3}};
  Snap.CulpritExpr = Y;

  ConstraintGraph G(Snap);
  KeyValueSelector Sel(G);
  RecordingPlan Plan = Sel.computeRecordingSet();
  ASSERT_EQ(Plan.Values.size(), 1u);
  EXPECT_EQ(Plan.Values[0].E, B) << "should record the cheap input byte";
  EXPECT_EQ(Plan.totalCost(), 1u);
}

TEST(Selection, SharedDescendantsCountedOnceInACover) {
  // e = a*b + a*c over 8-bit inputs widened to 32 bits. Recording e costs
  // 4 bytes; its cover {a, b, c} costs 3 only if the a shared by both
  // products is counted once (counting it twice gives 4, not cheaper).
  ExprContext Ctx;
  ExprRef A = Ctx.makeVar("a", 8);
  ExprRef B = Ctx.makeVar("b", 8);
  ExprRef C = Ctx.makeVar("c", 8);
  ExprRef WA = Ctx.zext(A, 32), WB = Ctx.zext(B, 32), WC = Ctx.zext(C, 32);
  ExprRef E = Ctx.add(Ctx.mul(WA, WB), Ctx.mul(WA, WC));

  SymexSnapshot Snap;
  Snap.ExecCounts.assign(5, 1);
  Snap.Origins = {{E, 1}, {A, 2}, {B, 3}, {C, 4}};
  Snap.CulpritExpr = E;

  ConstraintGraph G(Snap);
  KeyValueSelector Sel(G);
  RecordingPlan Plan = Sel.computeRecordingSet();
  ASSERT_EQ(Plan.Values.size(), 3u);
  EXPECT_EQ(Plan.Values[0].E, A);
  EXPECT_EQ(Plan.Values[1].E, B);
  EXPECT_EQ(Plan.Values[2].E, C);
  EXPECT_EQ(Plan.totalCost(), 3u);
}

TEST(Selection, HighCountDefSitesAvoided) {
  // z is defined in a loop (1000 executions); its single-shot inputs are
  // cheaper even though wider.
  ExprContext Ctx;
  ExprRef A = Ctx.makeVar("a", 64);
  ExprRef Z = Ctx.add(A, Ctx.constant(1, 64));

  SymexSnapshot Snap;
  Snap.ExecCounts.assign(4, 1);
  Snap.ExecCounts[1] = 1000; // z's def site is hot.
  Snap.Origins = {{Z, 1}, {A, 2}};
  Snap.CulpritExpr = Z;

  ConstraintGraph G(Snap);
  KeyValueSelector Sel(G);
  RecordingPlan Plan = Sel.computeRecordingSet();
  ASSERT_EQ(Plan.Values.size(), 1u);
  EXPECT_EQ(Plan.Values[0].E, A);
}

//===----------------------------------------------------------------------===//
// Instrumentation
//===----------------------------------------------------------------------===//

TEST(Instrumenter, InsertsAndIsIdempotent) {
  auto M = compile(Fig3Source);
  ExprContext Ctx;
  SymexResult SR = stallFig3(*M, Ctx, 2000);
  ASSERT_EQ(SR.Status, SymexStatus::Stalled) << SR.Detail;

  ConstraintGraph G(SR.Snapshot);
  KeyValueSelector Sel(G);
  RecordingPlan Plan = Sel.computeRecordingSet();
  ASSERT_FALSE(Plan.Values.empty());

  unsigned Before = countInstrumentation(*M);
  unsigned Inserted = instrumentModule(*M, Plan);
  EXPECT_GT(Inserted, 0u);
  EXPECT_EQ(countInstrumentation(*M), Before + Inserted);
  // Re-applying the same plan adds nothing.
  EXPECT_EQ(instrumentModule(*M, Plan), 0u);

  std::string Err;
  EXPECT_TRUE(verifyModule(*M, &Err)) << Err;

  // The instrumented module still runs and still fails identically.
  Interpreter VM(*M, VmConfig());
  ProgramInput In;
  In.Args = {0, 2, 0, 2};
  RunResult RR = VM.run(In);
  ASSERT_EQ(RR.Status, ExitStatus::Failure);
  EXPECT_EQ(RR.Failure.Kind, FailureKind::Abort);
}

TEST(Instrumenter, GlobalIdsAreSticky) {
  auto M = compile(Fig3Source);
  // Capture ids before instrumentation.
  Interpreter VM(*M, VmConfig());
  ProgramInput In;
  In.Args = {0, 2, 0, 2};
  RunResult Before = VM.run(In);
  ASSERT_EQ(Before.Status, ExitStatus::Failure);

  ExprContext Ctx;
  SymexResult SR = stallFig3(*M, Ctx, 2000);
  ASSERT_EQ(SR.Status, SymexStatus::Stalled);
  ConstraintGraph G(SR.Snapshot);
  KeyValueSelector Sel(G);
  instrumentModule(*M, Sel.computeRecordingSet());

  Interpreter VM2(*M, VmConfig());
  RunResult After = VM2.run(In);
  ASSERT_EQ(After.Status, ExitStatus::Failure);
  EXPECT_TRUE(After.Failure.sameFailure(Before.Failure))
      << "failure identity must survive instrumentation";
}

//===----------------------------------------------------------------------===//
// End-to-end iterative reconstruction (the Fig. 3 story)
//===----------------------------------------------------------------------===//

TEST(Driver, Fig3IterativeReconstruction) {
  auto M = compile(Fig3Source);
  DriverConfig DC;
  DC.Solver.WorkBudget = 2000; // Small budget: forces the iterative path.
  DC.Seed = 42;

  ReconstructionDriver Driver(*M, DC);
  // Production inputs: mostly benign, sometimes the failing pattern.
  auto Gen = [](Rng &R) {
    ProgramInput In;
    if (R.nextBool(0.3)) {
      In.Args = {0, 2, 0, 2}; // The paper's failing call foo(0,2,0,2).
    } else {
      In.Args = {R.nextBounded(300), R.nextBounded(300), R.nextBounded(300),
                 R.nextBounded(300)};
    }
    return In;
  };
  ReconstructionReport Report = Driver.reconstruct(Gen);
  ASSERT_TRUE(Report.Success) << Report.FailureDetail;
  EXPECT_GE(Report.Occurrences, 2u)
      << "a tiny budget must require data recording iterations";
  EXPECT_LE(Report.Occurrences, 6u);

  // The test case reproduces the failure on a fresh VM.
  VmConfig VC;
  VC.ScheduleSeed = Report.ReplayScheduleSeed;
  Interpreter Replay(*M, VC);
  RunResult RR = Replay.run(Report.TestCase);
  ASSERT_EQ(RR.Status, ExitStatus::Failure);
  EXPECT_TRUE(RR.Failure.sameFailure(Report.Failure));
}

TEST(Driver, SingleOccurrenceWhenBudgetSuffices) {
  auto M = compile(Fig3Source);
  DriverConfig DC;
  DC.Solver.WorkBudget = 4'000'000; // Generous: no stalls expected.
  DC.Seed = 43;
  ReconstructionDriver Driver(*M, DC);
  auto Gen = [](Rng &R) {
    ProgramInput In;
    In.Args = {0, 2, 0, 2};
    (void)R;
    return In;
  };
  ReconstructionReport Report = Driver.reconstruct(Gen);
  ASSERT_TRUE(Report.Success) << Report.FailureDetail;
  EXPECT_EQ(Report.Occurrences, 1u);
}

TEST(Driver, RandomRecordingFailsWhereSelectionSucceeds) {
  // The Section 5.2 ablation: random recording of equal cost does not
  // relieve the stall.
  auto MakeModule = [] { return compile(Fig3Source); };
  auto Gen = [](Rng &R) {
    ProgramInput In;
    In.Args = {0, 2, 0, 2};
    (void)R;
    return In;
  };

  auto MSel = MakeModule();
  DriverConfig DC;
  DC.Solver.WorkBudget = 2000;
  DC.Seed = 44;
  DC.MaxIterations = 6;
  ReconstructionDriver DSel(*MSel, DC);
  ReconstructionReport RSel = DSel.reconstruct(Gen);
  EXPECT_TRUE(RSel.Success) << RSel.FailureDetail;

  auto MRnd = MakeModule();
  DC.UseRandomSelection = true;
  ReconstructionDriver DRnd(*MRnd, DC);
  ReconstructionReport RRnd = DRnd.reconstruct(Gen);
  if (RRnd.Success) {
    // If random recording got lucky, it must at least need more
    // occurrences than guided selection.
    EXPECT_GT(RRnd.Occurrences, RSel.Occurrences);
  }
}

TEST(Driver, MultithreadedUafReconstruction) {
  // A pbzip2-style use-after-free: the consumer uses a block after the
  // producer freed it, under a specific interleaving.
  auto M = compile(R"(
    global slot: i64[1];
    global done: i64[1];
    fn consumer(p: *i64) {
      var v: i64 = p[0];
      var sink: i64 = 0;
      for (var i: i64 = 0; i < 40; i = i + 1) { sink = sink + i; }
      slot[0] = v + sink;
      done[0] = 1;
    }
    fn main() -> i64 {
      var buf: *i64 = new i64[4];
      buf[0] = input_arg(0);
      var t: i64 = spawn(consumer, buf);
      var trigger: i64 = input_arg(1);
      if (trigger == 9) {
        // Frees while the consumer may still be running.
        delete buf;
      }
      join(t);
      return slot[0];
    }
  )");
  DriverConfig DC;
  DC.Seed = 7;
  DC.Vm.ChunkSize = 16; // Fine-grained interleaving.
  ReconstructionDriver Driver(*M, DC);
  auto Gen = [](Rng &R) {
    ProgramInput In;
    In.Args = {R.nextBounded(100), R.nextBool(0.5) ? 9u : R.nextBounded(8)};
    return In;
  };
  ReconstructionReport Report = Driver.reconstruct(Gen);
  ASSERT_TRUE(Report.Success) << Report.FailureDetail;
  EXPECT_EQ(Report.Failure.Kind, FailureKind::UseAfterFree);

  VmConfig VC;
  VC.ChunkSize = 16;
  VC.ScheduleSeed = Report.ReplayScheduleSeed;
  Interpreter Replay(*M, VC);
  RunResult RR = Replay.run(Report.TestCase);
  ASSERT_EQ(RR.Status, ExitStatus::Failure);
  EXPECT_TRUE(RR.Failure.sameFailure(Report.Failure));
}

TEST(Driver, DeferredTracingCountsWarmupOccurrences) {
  // Section 3.1: tracing can stay off until the failure has recurred; the
  // warm-up occurrences still count, and reconstruction proceeds normally
  // afterwards.
  auto M = compile(Fig3Source);
  DriverConfig DC;
  DC.Seed = 42;
  DC.EnableTracingAfterOccurrences = 3;
  ReconstructionDriver Driver(*M, DC);
  auto Gen = [](Rng &R) {
    ProgramInput In;
    In.Args = {0, 2, 0, 2};
    (void)R;
    return In;
  };
  ReconstructionReport Report = Driver.reconstruct(Gen);
  ASSERT_TRUE(Report.Success) << Report.FailureDetail;
  EXPECT_GE(Report.Occurrences, 4u)
      << "3 untraced occurrences + at least 1 traced";
}

TEST(Driver, CoarseTimerTiesResolvedByTieBreakRetries) {
  // Section 3.4: with a very coarse timer, chunk timestamps collapse and
  // the cross-thread order becomes ambiguous; the driver's bounded
  // exploration of tie-break orders must still land a validated
  // reconstruction.
  auto M = compile(R"(
    global cells: i64[8];
    global out: i64[1];
    fn worker(p: *i64) {
      for (var i: i64 = 0; i < 30; i = i + 1) {
        cells[i % 8] = cells[i % 8] + p[0];
      }
    }
    fn main() -> i64 {
      var x: i64 = input_arg(0);
      var a: i64[1];
      a[0] = 2;
      var t: i64 = spawn(worker, a);
      for (var i: i64 = 0; i < 30; i = i + 1) {
        cells[i % 8] = cells[i % 8] + 1;
      }
      join(t);
      out[0] = cells[0] + cells[1];
      if (out[0] > 10) {
        assert(x != 99);
      }
      return out[0];
    }
  )");
  DriverConfig DC;
  DC.Seed = 17;
  DC.Vm.ChunkSize = 12;
  DC.Trace.TimerGranularityShift = 12; // Coarse: most timestamps tie.
  ReconstructionDriver Driver(*M, DC);
  ReconstructionReport Report = Driver.reconstruct([](Rng &R) {
    ProgramInput In;
    In.Args = {R.nextBool(0.5) ? 99u : R.nextBounded(50)};
    return In;
  });
  ASSERT_TRUE(Report.Success) << Report.FailureDetail;
  VmConfig VC;
  VC.ChunkSize = 12;
  VC.ScheduleSeed = Report.ReplayScheduleSeed;
  Interpreter Replay(*M, VC);
  RunResult RR = Replay.run(Report.TestCase);
  ASSERT_EQ(RR.Status, ExitStatus::Failure);
  EXPECT_TRUE(RR.Failure.sameFailure(Report.Failure));
}

TEST(Driver, TargetsOneFailureAmongSeveralBugs) {
  // Production programs have more than one bug; the driver locks onto the
  // first observed failure identity and ignores occurrences of the others
  // (FailureRecord::sameFailure filtering).
  auto M = compile(R"(
    global buf: u8[16];
    fn main() -> i64 {
      var k: i64 = input_arg(0);
      var v: i64 = input_arg(1);
      if (k == 1) {
        buf[v] = 1;            // Bug A: out-of-bounds for v >= 16.
      }
      if (k == 2) {
        return 100 / v;        // Bug B: division by zero.
      }
      if (k == 3) {
        assert(v != 7);        // Bug C: assertion.
      }
      return 0;
    }
  )");
  DriverConfig DC;
  DC.Seed = 31;
  ReconstructionDriver Driver(*M, DC);
  unsigned Emitted = 0;
  ReconstructionReport Report = Driver.reconstruct([&](Rng &R) {
    ProgramInput In;
    // First failing input is always bug B; later ones hit all three bugs.
    ++Emitted;
    if (Emitted == 1) {
      In.Args = {2, 0};
    } else {
      uint64_t K = 1 + R.nextBounded(3);
      In.Args = {K, K == 1 ? 20 + R.nextBounded(10)
                           : (K == 2 ? 0 : 7)};
    }
    return In;
  });
  ASSERT_TRUE(Report.Success) << Report.FailureDetail;
  EXPECT_EQ(Report.Failure.Kind, FailureKind::DivByZero)
      << "must reproduce the first observed bug, not a different one";
  Interpreter VM(*M, VmConfig());
  RunResult RR = VM.run(Report.TestCase);
  ASSERT_EQ(RR.Status, ExitStatus::Failure);
  EXPECT_TRUE(RR.Failure.sameFailure(Report.Failure));
}

TEST(Driver, TruncatedTraceReportedAsHardFailure) {
  // A ring buffer smaller than the failing trace is a deployment
  // configuration error the driver must surface, not mask.
  auto M = compile(Fig3Source);
  DriverConfig DC;
  DC.Seed = 3;
  DC.Trace.BufferBytes = 8; // Below a single chunk packet: must truncate.
  ReconstructionDriver Driver(*M, DC);
  ReconstructionReport Report = Driver.reconstruct([](Rng &R) {
    ProgramInput In;
    In.Args = {0, 2, 0, 2};
    (void)R;
    return In;
  });
  EXPECT_FALSE(Report.Success);
  EXPECT_NE(Report.FailureDetail.find("trace-truncated"), std::string::npos)
      << Report.FailureDetail;
}

TEST(Driver, IterationReportsShowRecordingGrowth) {
  // The per-iteration telemetry must reflect the instrumentation ramp-up:
  // ptwrite packets appear in the traces of later iterations.
  auto M = compile(Fig3Source);
  DriverConfig DC;
  DC.Solver.WorkBudget = 2000;
  DC.Seed = 42;
  ReconstructionDriver Driver(*M, DC);
  ReconstructionReport Report = Driver.reconstruct([](Rng &R) {
    ProgramInput In;
    In.Args = {0, 2, 0, 2};
    (void)R;
    return In;
  });
  ASSERT_TRUE(Report.Success) << Report.FailureDetail;
  ASSERT_GE(Report.Iterations.size(), 2u);
  EXPECT_EQ(Report.Iterations.front().Trace.PtwPackets, 0u)
      << "first occurrence is control flow only";
  EXPECT_GT(Report.Iterations.back().Trace.PtwPackets, 0u)
      << "later occurrences carry recorded data values";
  EXPECT_GT(Report.Iterations.back().TotalInstrumentationSites, 0u);
}
