//===- IrTraceTest.cpp - IR structure, verifier, trace property tests ---------===//

#include "ir/Builder.h"
#include "ir/IR.h"
#include "solver/Solver.h"
#include "support/Rng.h"
#include "trace/OverheadModel.h"
#include "trace/Trace.h"

#include <gtest/gtest.h>

using namespace er;

//===----------------------------------------------------------------------===//
// IR structure and verifier
//===----------------------------------------------------------------------===//

namespace {

/// Builds: fn main() { x = 2 + 3; ret x }.
std::unique_ptr<Module> tinyModule() {
  auto M = std::make_unique<Module>();
  Function *F = M->createFunction("main", Type::makeInt(64), {});
  IRBuilder B(*M);
  B.setInsertPoint(F->createBlock("entry"));
  Value *Sum = B.binary(Opcode::Add, M->getInt64(2), M->getInt64(3));
  B.ret(Sum);
  M->finalize();
  return M;
}

} // namespace

TEST(Ir, VerifyAcceptsWellFormed) {
  auto M = tinyModule();
  std::string Err;
  EXPECT_TRUE(verifyModule(*M, &Err)) << Err;
}

TEST(Ir, VerifyRejectsMissingTerminator) {
  auto M = std::make_unique<Module>();
  Function *F = M->createFunction("main", Type::makeInt(64), {});
  IRBuilder B(*M);
  B.setInsertPoint(F->createBlock("entry"));
  B.binary(Opcode::Add, M->getInt64(1), M->getInt64(2)); // No terminator.
  M->finalize();
  std::string Err;
  EXPECT_FALSE(verifyModule(*M, &Err));
  EXPECT_NE(Err.find("terminator"), std::string::npos);
}

TEST(Ir, VerifyRejectsCrossBlockValue) {
  auto M = std::make_unique<Module>();
  Function *F = M->createFunction("main", Type::makeInt(64), {});
  IRBuilder B(*M);
  BasicBlock *BB1 = F->createBlock("a");
  BasicBlock *BB2 = F->createBlock("b");
  B.setInsertPoint(BB1);
  Value *V = B.binary(Opcode::Add, M->getInt64(1), M->getInt64(2));
  B.br(BB2);
  B.setInsertPoint(BB2);
  B.ret(V); // Uses a non-alloca result from another block.
  M->finalize();
  std::string Err;
  EXPECT_FALSE(verifyModule(*M, &Err));
}

TEST(Ir, AllocaResultsMayCrossBlocks) {
  auto M = std::make_unique<Module>();
  Function *F = M->createFunction("main", Type::makeInt(64), {});
  IRBuilder B(*M);
  BasicBlock *BB1 = F->createBlock("a");
  BasicBlock *BB2 = F->createBlock("b");
  B.setInsertPoint(BB1);
  Instruction *Slot = B.alloca_(Type::makeInt(64), 1, "x");
  B.store(M->getInt64(9), Slot);
  B.br(BB2);
  B.setInsertPoint(BB2);
  Value *L = B.load(Slot, Type::makeInt(64));
  B.ret(L);
  M->finalize();
  std::string Err;
  EXPECT_TRUE(verifyModule(*M, &Err)) << Err;
}

TEST(Ir, VerifyRejectsTypeMismatchedBinary) {
  auto M = std::make_unique<Module>();
  Function *F = M->createFunction("main", Type::makeInt(64), {});
  IRBuilder B(*M);
  B.setInsertPoint(F->createBlock("entry"));
  // Bypass builder asserts by constructing the instruction by hand.
  auto I = std::make_unique<Instruction>(Opcode::Add, Type::makeInt(64));
  I->addOperand(M->getInt64(1));
  I->addOperand(M->getConstant(Type::makeInt(32), 2));
  B.getInsertBlock()->append(std::move(I));
  B.ret(M->getInt64(0));
  M->finalize();
  std::string Err;
  EXPECT_FALSE(verifyModule(*M, &Err));
}

TEST(Ir, PrinterShowsStructure) {
  auto M = tinyModule();
  std::string Text = printModule(*M);
  EXPECT_NE(Text.find("func main"), std::string::npos);
  EXPECT_NE(Text.find("add"), std::string::npos);
  EXPECT_NE(Text.find("ret"), std::string::npos);
}

TEST(Ir, StickyIdsSurviveRefinalization) {
  auto M = tinyModule();
  Instruction *First = M->getInstructionById(0);
  ASSERT_NE(First, nullptr);
  unsigned OldId = First->getGlobalId();
  // Add an instruction and re-finalize: old ids keep their values.
  IRBuilder B(*M);
  Function *F = M->getFunction("main");
  BasicBlock *BB = F->blocks().front().get();
  auto PtW = std::make_unique<Instruction>(Opcode::PtWrite, Type::makeVoid());
  PtW->addOperand(BB->getInst(0));
  BB->insertAfter(BB->getInst(0), std::move(PtW));
  M->finalize();
  EXPECT_EQ(First->getGlobalId(), OldId);
  // The new instruction got a fresh id past the old range.
  EXPECT_GE(M->getNumInstructionIds(), 3u);
}

TEST(Ir, PackedPtrRoundTrips) {
  Rng R(3);
  for (int I = 0; I < 200; ++I) {
    uint32_t Obj = static_cast<uint32_t>(R.nextBounded(1u << 20));
    uint64_t Off = R.nextBounded(1ull << 39);
    uint64_t P = PackedPtr::make(Obj, Off);
    EXPECT_FALSE(PackedPtr::isNull(P));
    EXPECT_EQ(PackedPtr::objectId(P), Obj);
    EXPECT_EQ(PackedPtr::offset(P), Off);
  }
  EXPECT_TRUE(PackedPtr::isNull(0));
}

//===----------------------------------------------------------------------===//
// Trace encoding properties
//===----------------------------------------------------------------------===//

TEST(TraceProperty, RandomEventSequencesRoundTrip) {
  Rng R(99);
  for (int Round = 0; Round < 30; ++Round) {
    TraceConfig TC;
    TraceRecorder Rec(TC);
    Rec.beginThread(0);

    struct Ev {
      int Kind; // 0 branch, 1 ret, 2 data.
      bool Taken;
      uint64_t Value;
    };
    std::vector<Ev> Sent;
    unsigned N = 1 + R.nextBounded(300);
    for (unsigned I = 0; I < N; ++I) {
      int Kind = static_cast<int>(R.nextBounded(3));
      Ev E{Kind, R.nextBool(), R.next() >> R.nextBounded(40)};
      if (Kind == 0)
        Rec.condBranch(0, E.Taken);
      else if (Kind == 1)
        Rec.returnTarget(0, static_cast<uint32_t>(E.Value & 0xffffffff));
      else
        Rec.ptWrite(0, E.Value);
      Sent.push_back(E);
    }
    Rec.finish();

    DecodedTrace D = Rec.decode();
    ASSERT_EQ(D.Threads.size(), 1u);
    const auto &Events = D.Threads[0].Events;
    ASSERT_EQ(Events.size(), Sent.size()) << "round " << Round;
    for (size_t I = 0; I < Sent.size(); ++I) {
      const Ev &S = Sent[I];
      const TraceEvent &E = Events[I];
      switch (S.Kind) {
      case 0:
        EXPECT_EQ(E.K, TraceEvent::Kind::CondBranch);
        EXPECT_EQ(E.Taken, S.Taken);
        break;
      case 1:
        EXPECT_EQ(E.K, TraceEvent::Kind::ReturnTarget);
        EXPECT_EQ(E.Value, S.Value & 0xffffffff);
        break;
      default:
        EXPECT_EQ(E.K, TraceEvent::Kind::Data);
        EXPECT_EQ(E.Value, S.Value);
        break;
      }
    }
  }
}

TEST(TraceProperty, ChunkCountsArePreserved) {
  TraceConfig TC;
  TraceRecorder Rec(TC);
  Rec.beginThread(0);
  Rec.beginThread(1);
  Rng R(5);
  std::vector<std::pair<uint32_t, uint64_t>> Chunks;
  uint64_t Ts = 0;
  for (int I = 0; I < 50; ++I) {
    uint32_t Tid = static_cast<uint32_t>(R.nextBounded(2));
    uint64_t N = 1 + R.nextBounded(200000); // Exercises count splitting.
    Rec.endChunk(Tid, Ts, N);
    Chunks.push_back({Tid, N});
    Ts += N;
  }
  Rec.finish();
  DecodedTrace D = Rec.decode();
  uint64_t Sent[2] = {0, 0}, Got[2] = {0, 0};
  for (auto &[Tid, N] : Chunks)
    Sent[Tid] += N;
  for (const auto &T : D.Threads)
    for (const auto &C : T.Chunks)
      Got[T.Tid] += C.NumInstrs;
  EXPECT_EQ(Got[0], Sent[0]);
  EXPECT_EQ(Got[1], Sent[1]);
}

TEST(TraceProperty, TimestampsAreQuantizedMonotonically) {
  TraceConfig TC;
  TC.TimerGranularityShift = 6;
  TraceRecorder Rec(TC);
  Rec.beginThread(0);
  for (uint64_t Ts = 0; Ts < 10000; Ts += 700)
    Rec.endChunk(0, Ts, 10);
  Rec.finish();
  DecodedTrace D = Rec.decode();
  uint64_t Prev = 0;
  for (const auto &C : D.Threads[0].Chunks) {
    EXPECT_GE(C.Timestamp, Prev);
    Prev = C.Timestamp;
  }
}

TEST(OverheadModel, MoreTraceBytesMoreOverhead) {
  TraceStats Small, Large;
  Small.BytesWritten = 1000;
  Large.BytesWritten = 100000;
  OverheadParams P;
  EXPECT_LT(erOverheadPercentExact(1'000'000, Small, P),
            erOverheadPercentExact(1'000'000, Large, P));
  // Same trace over a longer run = lower relative overhead.
  EXPECT_GT(erOverheadPercentExact(100'000, Large, P),
            erOverheadPercentExact(10'000'000, Large, P));
}

//===----------------------------------------------------------------------===//
// Array lowering equivalence (solver property)
//===----------------------------------------------------------------------===//

TEST(SolverProperty2, LoweredArraysEvaluateIdentically) {
  // lowerArrays must be semantics-preserving: for random write chains and
  // random assignments, the lowered (array-free) expression evaluates to
  // the same value as the original.
  ExprContext Ctx;
  ConstraintSolver Solver(Ctx);
  Rng R(2024);

  for (int Round = 0; Round < 40; ++Round) {
    ExprRef I = Ctx.makeVar("i" + std::to_string(Round), 8);
    ExprRef J = Ctx.makeVar("j" + std::to_string(Round), 8);
    ExprRef Arr = R.nextBool(0.5)
                      ? Ctx.symArray("A" + std::to_string(Round), 8, 8)
                      : Ctx.dataArray(8, {5, 6, 7, 8, 9, 10, 11, 12});
    unsigned Writes = R.nextBounded(4);
    for (unsigned W = 0; W < Writes; ++W) {
      ExprRef Idx = R.nextBool(0.5)
                        ? Ctx.urem(I, Ctx.constant(8, 8))
                        : Ctx.constant(R.nextBounded(8), 8);
      ExprRef Val = R.nextBool(0.5)
                        ? Ctx.bvxor(J, Ctx.constant(R.nextBounded(256), 8))
                        : Ctx.constant(R.nextBounded(256), 8);
      Arr = Ctx.write(Arr, Idx, Val);
    }
    ExprRef Read = Ctx.read(Arr, Ctx.urem(Ctx.add(I, J), Ctx.constant(8, 8)));

    uint64_t Work = 0;
    ExprRef Lowered = Solver.lowerArrays(Read, 1ull << 40, Work);
    ASSERT_NE(Lowered, nullptr);

    for (int Sample = 0; Sample < 20; ++Sample) {
      Assignment A;
      A.VarValues[I->getVarId()] = R.nextBounded(256);
      A.VarValues[J->getVarId()] = R.nextBounded(256);
      for (uint64_t K = 0; K < 8; ++K) {
        // Populate symbolic array cells (ignored for DataArray).
        uint32_t ArrId = 0;
        ExprRef Base = Arr;
        while (Base->getKind() == ExprKind::Write)
          Base = Base->getOp0();
        if (Base->getKind() == ExprKind::SymArray) {
          ArrId = Base->getVarId();
          A.ArrayValues[ArrId][K] = R.nextBounded(256);
        }
      }
      EXPECT_EQ(Ctx.evaluate(Read, A), Ctx.evaluate(Lowered, A))
          << "round " << Round << " sample " << Sample;
    }
  }
}

