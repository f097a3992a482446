//===- SolverTest.cpp - Solver unit and property tests ---------------------===//
//
// Unit tests for the expression DAG, SAT core, bit-blaster, and the budgeted
// constraint solver, plus randomized property tests checking the full solve
// pipeline against the reference evaluator.
//
//===----------------------------------------------------------------------===//

#include "er/Driver.h"
#include "gen/BugPlanter.h"
#include "obs/Metrics.h"
#include "solver/BitBlaster.h"
#include "solver/Expr.h"
#include "solver/Sat.h"
#include "solver/Solver.h"
#include "solver/SolverCache.h"
#include "support/Rng.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <functional>

using namespace er;

//===----------------------------------------------------------------------===//
// Expression construction and simplification
//===----------------------------------------------------------------------===//

TEST(Expr, HashConsingSharesNodes) {
  ExprContext Ctx;
  ExprRef A = Ctx.makeVar("a", 32);
  ExprRef B = Ctx.makeVar("b", 32);
  EXPECT_EQ(Ctx.add(A, B), Ctx.add(A, B));
  EXPECT_EQ(Ctx.add(A, B), Ctx.add(B, A)) << "commutative canonicalization";
  EXPECT_NE(Ctx.add(A, B), Ctx.sub(A, B));
}

TEST(Expr, ConstantFolding) {
  ExprContext Ctx;
  ExprRef C3 = Ctx.constant(3, 32);
  ExprRef C4 = Ctx.constant(4, 32);
  EXPECT_EQ(Ctx.add(C3, C4), Ctx.constant(7, 32));
  EXPECT_EQ(Ctx.mul(C3, C4), Ctx.constant(12, 32));
  EXPECT_EQ(Ctx.sub(C3, C4), Ctx.constant(0xffffffffu, 32));
  EXPECT_TRUE(Ctx.ult(C3, C4)->isTrue());
  EXPECT_TRUE(Ctx.slt(C4, C3)->isFalse());
}

TEST(Expr, AlgebraicIdentities) {
  ExprContext Ctx;
  ExprRef A = Ctx.makeVar("a", 32);
  ExprRef Zero = Ctx.constant(0, 32);
  ExprRef One = Ctx.constant(1, 32);
  EXPECT_EQ(Ctx.add(A, Zero), A);
  EXPECT_EQ(Ctx.mul(A, One), A);
  EXPECT_EQ(Ctx.mul(A, Zero), Zero);
  EXPECT_EQ(Ctx.sub(A, A), Zero);
  EXPECT_EQ(Ctx.bvxor(A, A), Zero);
  EXPECT_TRUE(Ctx.eq(A, A)->isTrue());
  EXPECT_EQ(Ctx.bvnot(Ctx.bvnot(A)), A);
}

TEST(Expr, AddConstantChainsCollapse) {
  ExprContext Ctx;
  ExprRef A = Ctx.makeVar("a", 32);
  ExprRef E = Ctx.add(Ctx.add(A, Ctx.constant(5, 32)), Ctx.constant(7, 32));
  // (a + 5) + 7 -> a + 12.
  EXPECT_EQ(E, Ctx.add(A, Ctx.constant(12, 32)));
}

TEST(Expr, SignedConstantFolding) {
  ExprContext Ctx;
  // -5 sdiv 2 == -2 (C-style truncation).
  ExprRef A = Ctx.constant(static_cast<uint64_t>(-5) & 0xff, 8);
  ExprRef B = Ctx.constant(2, 8);
  ExprRef Q = Ctx.sdiv(A, B);
  ASSERT_TRUE(Q->isConst());
  EXPECT_EQ(signExtend(Q->getConstVal(), 8), -2);
  ExprRef R = Ctx.srem(A, B);
  ASSERT_TRUE(R->isConst());
  EXPECT_EQ(signExtend(R->getConstVal(), 8), -1);
}

TEST(Expr, ReadOverWriteFolding) {
  ExprContext Ctx;
  ExprRef Arr = Ctx.constArray(32, 16, 0);
  ExprRef I2 = Ctx.constant(2, 32);
  ExprRef I3 = Ctx.constant(3, 32);
  ExprRef V = Ctx.constant(99, 32);
  ExprRef W = Ctx.write(Arr, I2, V);
  // Concrete write over concrete array folds into concrete storage.
  EXPECT_EQ(W->getKind(), ExprKind::DataArray);
  EXPECT_EQ(Ctx.read(W, I2), V);
  EXPECT_EQ(Ctx.read(W, I3), Ctx.constant(0, 32));
}

TEST(Expr, SymbolicWriteChainPreserved) {
  ExprContext Ctx;
  ExprRef Arr = Ctx.constArray(32, 16, 0);
  ExprRef X = Ctx.makeVar("x", 32);
  ExprRef W = Ctx.write(Arr, X, Ctx.constant(1, 32));
  EXPECT_EQ(W->getKind(), ExprKind::Write);
  // Read at the same symbolic index sees the written value.
  EXPECT_EQ(Ctx.read(W, X), Ctx.constant(1, 32));
  // Read at a different symbolic index stays symbolic.
  ExprRef Y = Ctx.makeVar("y", 32);
  EXPECT_EQ(Ctx.read(W, Y)->getKind(), ExprKind::Read);
}

TEST(Expr, EvaluateMatchesSemantics) {
  ExprContext Ctx;
  ExprRef A = Ctx.makeVar("a", 16);
  ExprRef B = Ctx.makeVar("b", 16);
  ExprRef E = Ctx.add(Ctx.mul(A, B), Ctx.constant(10, 16));
  Assignment Asgn;
  Asgn.VarValues[A->getVarId()] = 7;
  Asgn.VarValues[B->getVarId()] = 9;
  EXPECT_EQ(Ctx.evaluate(E, Asgn), 73u);
}

TEST(Expr, SubstituteConcretizes) {
  ExprContext Ctx;
  ExprRef A = Ctx.makeVar("a", 32);
  ExprRef B = Ctx.makeVar("b", 32);
  ExprRef Sum = Ctx.add(A, B);
  std::unordered_map<ExprRef, ExprRef> Map{{Sum, Ctx.constant(5, 32)}};
  ExprRef E = Ctx.mul(Sum, Ctx.constant(3, 32));
  EXPECT_EQ(Ctx.substitute(E, Map), Ctx.constant(15, 32));
}

TEST(Expr, ArrayEvaluation) {
  ExprContext Ctx;
  ExprRef Arr = Ctx.symArray("A", 8, 16);
  ExprRef I = Ctx.makeVar("i", 8);
  ExprRef R = Ctx.read(Ctx.write(Arr, I, Ctx.constant(42, 8)),
                       Ctx.constant(3, 8));
  Assignment Asgn;
  Asgn.VarValues[I->getVarId()] = 3;
  EXPECT_EQ(Ctx.evaluate(R, Asgn), 42u);
  Asgn.VarValues[I->getVarId()] = 4;
  Asgn.ArrayValues[Arr->getVarId()][3] = 17;
  EXPECT_EQ(Ctx.evaluate(R, Asgn), 17u);
}

//===----------------------------------------------------------------------===//
// SAT core
//===----------------------------------------------------------------------===//

TEST(Sat, TrivialSatAndUnsat) {
  SatSolver S;
  unsigned A = S.newVar();
  unsigned B = S.newVar();
  S.addBinary(Lit(A, false), Lit(B, false));
  S.addUnit(Lit(A, true));
  EXPECT_EQ(S.solve(SatBudget{}), SatStatus::Sat);
  EXPECT_FALSE(S.modelValue(A));
  EXPECT_TRUE(S.modelValue(B));

  SatSolver U;
  unsigned X = U.newVar();
  U.addUnit(Lit(X, false));
  U.addUnit(Lit(X, true));
  EXPECT_EQ(U.solve(SatBudget{}), SatStatus::Unsat);
}

TEST(Sat, PigeonholeUnsat) {
  // 4 pigeons, 3 holes: classic small UNSAT instance requiring learning.
  SatSolver S;
  const int P = 4, H = 3;
  unsigned V[4][3];
  for (int I = 0; I < P; ++I)
    for (int J = 0; J < H; ++J)
      V[I][J] = S.newVar();
  for (int I = 0; I < P; ++I) {
    std::vector<Lit> C;
    for (int J = 0; J < H; ++J)
      C.push_back(Lit(V[I][J], false));
    S.addClause(C);
  }
  for (int J = 0; J < H; ++J)
    for (int I1 = 0; I1 < P; ++I1)
      for (int I2 = I1 + 1; I2 < P; ++I2)
        S.addBinary(Lit(V[I1][J], true), Lit(V[I2][J], true));
  EXPECT_EQ(S.solve(SatBudget{}), SatStatus::Unsat);
}

TEST(Sat, BudgetExhaustionReportsUnknown) {
  // A hard pigeonhole instance with a tiny conflict budget.
  SatSolver S;
  const int P = 8, H = 7;
  std::vector<std::vector<unsigned>> V(P, std::vector<unsigned>(H));
  for (int I = 0; I < P; ++I)
    for (int J = 0; J < H; ++J)
      V[I][J] = S.newVar();
  for (int I = 0; I < P; ++I) {
    std::vector<Lit> C;
    for (int J = 0; J < H; ++J)
      C.push_back(Lit(V[I][J], false));
    S.addClause(C);
  }
  for (int J = 0; J < H; ++J)
    for (int I1 = 0; I1 < P; ++I1)
      for (int I2 = I1 + 1; I2 < P; ++I2)
        S.addBinary(Lit(V[I1][J], true), Lit(V[I2][J], true));
  SatBudget B;
  B.MaxConflicts = 10;
  EXPECT_EQ(S.solve(B), SatStatus::Unknown);
}

TEST(Sat, RandomInstancesAgreeWithBruteForce) {
  // Random 3-CNF over 10 vars; compare CDCL verdict with exhaustive check.
  Rng R(1234);
  for (int Round = 0; Round < 50; ++Round) {
    const unsigned N = 10;
    unsigned NumClauses = 20 + R.nextBounded(30);
    std::vector<std::vector<Lit>> Clauses;
    SatSolver S;
    std::vector<unsigned> Vars;
    for (unsigned I = 0; I < N; ++I)
      Vars.push_back(S.newVar());
    for (unsigned C = 0; C < NumClauses; ++C) {
      std::vector<Lit> Clause;
      for (int K = 0; K < 3; ++K)
        Clause.push_back(
            Lit(Vars[R.nextBounded(N)], R.nextBool()));
      Clauses.push_back(Clause);
      S.addClause(Clause);
    }
    bool BruteSat = false;
    for (uint32_t M = 0; M < (1u << N) && !BruteSat; ++M) {
      bool All = true;
      for (const auto &C : Clauses) {
        bool Any = false;
        for (Lit L : C) {
          bool Val = (M >> (L.var() - Vars[0])) & 1;
          if (Val != L.negated()) {
            Any = true;
            break;
          }
        }
        if (!Any) {
          All = false;
          break;
        }
      }
      BruteSat = All;
    }
    SatStatus St = S.solve(SatBudget{});
    EXPECT_EQ(St, BruteSat ? SatStatus::Sat : SatStatus::Unsat)
        << "round " << Round;
    if (St == SatStatus::Sat) {
      // The returned model must satisfy every clause.
      for (const auto &C : Clauses) {
        bool Any = false;
        for (Lit L : C)
          if (S.modelValue(L.var()) != L.negated())
            Any = true;
        EXPECT_TRUE(Any);
      }
    }
  }
}

namespace {

/// Pigeonhole principle, \p P pigeons into \p H holes: unsatisfiable when
/// P > H, and it needs real conflict analysis (and learned clauses) to see.
void addPigeonhole(SatSolver &S, int P, int H) {
  std::vector<std::vector<unsigned>> V(P, std::vector<unsigned>(H));
  for (int I = 0; I < P; ++I)
    for (int J = 0; J < H; ++J)
      V[I][J] = S.newVar();
  for (int I = 0; I < P; ++I) {
    std::vector<Lit> C;
    for (int J = 0; J < H; ++J)
      C.push_back(Lit(V[I][J], false));
    S.addClause(C);
  }
  for (int J = 0; J < H; ++J)
    for (int I1 = 0; I1 < P; ++I1)
      for (int I2 = I1 + 1; I2 < P; ++I2)
        S.addBinary(Lit(V[I1][J], true), Lit(V[I2][J], true));
}

/// Random 3-CNF over \p N fresh variables with \p M clauses.
void addRandom3Cnf(SatSolver &S, Rng &R, unsigned N, unsigned M) {
  unsigned First = S.numVars() + 1;
  for (unsigned I = 0; I < N; ++I)
    S.newVar();
  for (unsigned C = 0; C < M; ++C)
    S.addTernary(Lit(First + R.nextBounded(N), R.nextBool()),
                 Lit(First + R.nextBounded(N), R.nextBool()),
                 Lit(First + R.nextBounded(N), R.nextBool()));
}

/// Two solvers agree on everything observable: sizes, every statistic, and
/// (after a Sat answer) every variable's value.
void expectSameSolver(const SatSolver &A, const SatSolver &B, SatStatus St,
                      const std::string &What) {
  EXPECT_EQ(A.numVars(), B.numVars()) << What;
  EXPECT_EQ(A.numClauses(), B.numClauses()) << What;
  EXPECT_EQ(A.getStats().Conflicts, B.getStats().Conflicts) << What;
  EXPECT_EQ(A.getStats().Decisions, B.getStats().Decisions) << What;
  EXPECT_EQ(A.getStats().Propagations, B.getStats().Propagations) << What;
  EXPECT_EQ(A.getStats().Restarts, B.getStats().Restarts) << What;
  EXPECT_EQ(A.getStats().LearnedClauses, B.getStats().LearnedClauses)
      << What;
  if (St != SatStatus::Sat)
    return;
  for (unsigned V = 1; V <= A.numVars(); ++V) {
    ASSERT_EQ(A.modelValue(V), B.modelValue(V)) << What << " var " << V;
  }
}

} // namespace

TEST(Sat, CheckpointRestoreSpansLearnedClauses) {
  // A checkpoint taken after a capped search holds learned clauses and
  // moved watches; restoring it after an unrelated detour (more search,
  // new variables, a root-level contradiction) must continue exactly like
  // a twin solver that never took the detour.
  SatSolver A, B;
  addPigeonhole(A, 6, 5);
  addPigeonhole(B, 6, 5);
  SatBudget Cap;
  Cap.MaxConflicts = 40;
  ASSERT_EQ(A.solve(Cap), SatStatus::Unknown);
  ASSERT_EQ(B.solve(Cap), SatStatus::Unknown);
  ASSERT_GT(A.getStats().LearnedClauses, 0u);
  SatCheckpoint C = A.checkpoint();

  EXPECT_EQ(A.solve(Cap), SatStatus::Unknown);
  unsigned X = A.newVar();
  A.addBinary(Lit(X, false), Lit(1, false));
  A.addUnit(Lit(X, true));
  A.addUnit(Lit(1, true));
  EXPECT_EQ(A.solve(SatBudget{}), SatStatus::Unsat);

  A.restore(C);
  expectSameSolver(A, B, SatStatus::Unknown, "after restore");
  for (int K = 0; K < 3; ++K) {
    SatStatus St = A.solve(Cap);
    EXPECT_EQ(St, B.solve(Cap)) << "capped round " << K;
    expectSameSolver(A, B, St, "capped round " + std::to_string(K));
  }
  EXPECT_EQ(A.solve(SatBudget{}), SatStatus::Unsat);
  EXPECT_EQ(B.solve(SatBudget{}), SatStatus::Unsat);
  expectSameSolver(A, B, SatStatus::Unsat, "to completion");

  // The same round trip on a satisfiable instance, where the restored
  // solver must also reach the identical model.
  Rng RA(99), RB(99);
  SatSolver S, T;
  addRandom3Cnf(S, RA, 120, 480);
  addRandom3Cnf(T, RB, 120, 480);
  SatBudget Few;
  Few.MaxConflicts = 5;
  SatStatus First = S.solve(Few);
  EXPECT_EQ(First, T.solve(Few));
  SatCheckpoint CS = S.checkpoint();
  S.addUnit(Lit(7, false));
  S.addUnit(Lit(7, true));
  EXPECT_EQ(S.solve(SatBudget{}), SatStatus::Unsat);
  S.restore(CS);
  SatStatus St = S.solve(SatBudget{});
  EXPECT_EQ(St, T.solve(SatBudget{}));
  expectSameSolver(S, T, St, "random 3-CNF");
}

TEST(Sat, ResetEqualsFreshSolver) {
  // One solver reused through reset() across unrelated instances of
  // different sizes (so its buffers are past their high-water mark, then
  // below it) must answer each exactly like a new solver: same verdict,
  // same statistics, same model. The instances end Sat, Unsat, Unknown on
  // a conflict cap, and Unsat at the root while clauses are added.
  struct Instance {
    const char *Name;
    std::function<void(SatSolver &)> Build;
    uint64_t MaxConflicts;
  };
  const std::vector<Instance> Instances = {
      {"random 3-CNF, 300 vars",
       [](SatSolver &S) {
         Rng R(5);
         addRandom3Cnf(S, R, 300, 1000);
       },
       UINT64_MAX},
      {"pigeonhole 6/5, capped", [](SatSolver &S) { addPigeonhole(S, 6, 5); },
       50},
      {"random 3-CNF, 20 vars",
       [](SatSolver &S) {
         Rng R(6);
         addRandom3Cnf(S, R, 20, 60);
       },
       UINT64_MAX},
      {"root contradiction",
       [](SatSolver &S) {
         unsigned A = S.newVar(), B = S.newVar();
         S.addBinary(Lit(A, false), Lit(B, false));
         S.addUnit(Lit(A, true));
         S.addUnit(Lit(B, true));
       },
       UINT64_MAX},
      {"pigeonhole 5/4", [](SatSolver &S) { addPigeonhole(S, 5, 4); },
       UINT64_MAX},
      {"random 3-CNF, 400 vars",
       [](SatSolver &S) {
         Rng R(7);
         addRandom3Cnf(S, R, 400, 1300);
       },
       UINT64_MAX},
  };
  SatSolver Reused;
  for (int Pass = 0; Pass < 2; ++Pass) {
    for (const Instance &I : Instances) {
      SatSolver Fresh;
      Reused.reset();
      I.Build(Fresh);
      I.Build(Reused);
      SatBudget B;
      B.MaxConflicts = I.MaxConflicts;
      // A deadline far in the future is set and cleared like a real one.
      B.Deadline = std::chrono::steady_clock::now() + std::chrono::hours(1);
      SatStatus St = Fresh.solve(B);
      EXPECT_EQ(Reused.solve(B), St) << I.Name;
      expectSameSolver(Fresh, Reused, St, I.Name);
      // Blocking the model and solving again exercises learned clauses
      // and root-level clause addition on the reused buffers.
      if (St == SatStatus::Sat) {
        std::vector<Lit> Block;
        for (unsigned V = 1; V <= Fresh.numVars(); ++V)
          Block.push_back(Lit(V, Fresh.modelValue(V)));
        Fresh.addClause(Block);
        Reused.addClause(Block);
        St = Fresh.solve(SatBudget{});
        EXPECT_EQ(Reused.solve(SatBudget{}), St) << I.Name;
        expectSameSolver(Fresh, Reused, St,
                         std::string(I.Name) + " after blocking");
      }
    }
    // A restore into a solver that has since grown must also leave no
    // trace of the larger instance behind the next reset.
    SatCheckpoint Empty = SatSolver().checkpoint();
    Reused.restore(Empty);
  }
}

//===----------------------------------------------------------------------===//
// End-to-end solving
//===----------------------------------------------------------------------===//

TEST(Solver, SimpleEquation) {
  ExprContext Ctx;
  ConstraintSolver Solver(Ctx);
  ExprRef X = Ctx.makeVar("x", 32);
  // x + 3 == 10.
  ExprRef A = Ctx.eq(Ctx.add(X, Ctx.constant(3, 32)), Ctx.constant(10, 32));
  QueryResult R = Solver.checkSat({A});
  ASSERT_EQ(R.Status, QueryStatus::Sat);
  EXPECT_EQ(R.Model.getVar(X->getVarId()), 7u);
}

TEST(Solver, UnsatConjunction) {
  ExprContext Ctx;
  ConstraintSolver Solver(Ctx);
  ExprRef X = Ctx.makeVar("x", 16);
  QueryResult R = Solver.checkSat({
      Ctx.ult(X, Ctx.constant(4, 16)),
      Ctx.ult(Ctx.constant(9, 16), X),
  });
  EXPECT_EQ(R.Status, QueryStatus::Unsat);
}

TEST(Solver, MultiplicationInverse) {
  ExprContext Ctx;
  ConstraintSolver Solver(Ctx);
  ExprRef X = Ctx.makeVar("x", 16);
  // x * 3 == 123 and x < 100 -> x == 41.
  QueryResult R = Solver.checkSat({
      Ctx.eq(Ctx.mul(X, Ctx.constant(3, 16)), Ctx.constant(123, 16)),
      Ctx.ult(X, Ctx.constant(100, 16)),
  });
  ASSERT_EQ(R.Status, QueryStatus::Sat);
  EXPECT_EQ(R.Model.getVar(X->getVarId()), 41u);
}

TEST(Solver, SymbolicArrayRead) {
  ExprContext Ctx;
  ConstraintSolver Solver(Ctx);
  // A is concrete data; find i such that A[i] == 30.
  ExprRef Arr = Ctx.dataArray(32, {10, 20, 30, 40});
  ExprRef I = Ctx.makeVar("i", 32);
  QueryResult R = Solver.checkSat({
      Ctx.ult(I, Ctx.constant(4, 32)),
      Ctx.eq(Ctx.read(Arr, I), Ctx.constant(30, 32)),
  });
  ASSERT_EQ(R.Status, QueryStatus::Sat);
  EXPECT_EQ(R.Model.getVar(I->getVarId()), 2u);
}

TEST(Solver, WriteChainReasoning) {
  ExprContext Ctx;
  ConstraintSolver Solver(Ctx);
  // V[16] = {0}; V[x] = 1; if (V[c] == 0) -> c != x.
  ExprRef V0 = Ctx.constArray(32, 16, 0);
  ExprRef X = Ctx.makeVar("x", 32);
  ExprRef C = Ctx.makeVar("c", 32);
  ExprRef V1 = Ctx.write(V0, X, Ctx.constant(1, 32));
  std::vector<ExprRef> Asserts = {
      Ctx.ult(X, Ctx.constant(16, 32)),
      Ctx.ult(C, Ctx.constant(16, 32)),
      Ctx.eq(Ctx.read(V1, C), Ctx.constant(0, 32)),
      Ctx.eq(X, C),
  };
  EXPECT_EQ(Solver.checkSat(Asserts).Status, QueryStatus::Unsat);
  Asserts.pop_back();
  QueryResult R = Solver.checkSat(Asserts);
  ASSERT_EQ(R.Status, QueryStatus::Sat);
  EXPECT_NE(R.Model.getVar(X->getVarId()), R.Model.getVar(C->getVarId()));
}

TEST(Solver, TimeoutOnTinyBudget) {
  ExprContext Ctx;
  ConstraintSolver Solver(Ctx);
  ExprRef X = Ctx.makeVar("x", 32);
  ExprRef Y = Ctx.makeVar("y", 32);
  ExprRef A = Ctx.eq(Ctx.mul(X, Y), Ctx.constant(0x12345678, 32));
  QueryResult R = Solver.checkSat({A}, /*BudgetOverride=*/100);
  EXPECT_EQ(R.Status, QueryStatus::Timeout);
}

TEST(Solver, WallBackstopIsCountedAndNeverCached) {
  // Factoring a product of two 16-bit primes under a work budget far out of
  // reach and a wall budget that has expired before the search starts:
  // on every query path the search must end Unknown on the deadline, count
  // solver.wall_backstop, and leave nothing in the shared cache.
  ExprContext Ctx;
  SolverResultCache Cache;
  SolverConfig Config;
  Config.WorkBudget = uint64_t(1) << 50;
  Config.WallSecondsBudget = 1e-9;
  Config.SharedCache = &Cache;
  ConstraintSolver Solver(Ctx, Config);
  IncrementalSession Session(Solver);
  ExprRef X = Ctx.makeVar("x", 32);
  ExprRef Y = Ctx.makeVar("y", 32);
  ExprRef Limit = Ctx.constant(65536, 32);
  std::vector<ExprRef> Hard = {
      Ctx.eq(Ctx.mul(X, Y), Ctx.constant(65521ull * 65519ull, 32)),
      Ctx.ult(Ctx.constant(1, 32), X), Ctx.ult(Ctx.constant(1, 32), Y),
      Ctx.ult(X, Limit), Ctx.ult(Y, Limit)};
  obs::Counter &Backstops =
      obs::MetricsRegistry::global().counter("solver.wall_backstop");
  uint64_t Before = Backstops.value();

  EXPECT_EQ(Solver.checkSat(Hard).Status, QueryStatus::Timeout);
  EXPECT_EQ(Backstops.value(), Before + 1);
  EXPECT_EQ(Session.checkSat(Hard).Status, QueryStatus::Timeout);
  EXPECT_EQ(Backstops.value(), Before + 2);
  std::vector<uint64_t> Values;
  bool Complete = true;
  EXPECT_EQ(Solver.enumerateValues(Hard, X, 4, Values, Complete),
            QueryStatus::Timeout);
  EXPECT_FALSE(Complete);
  EXPECT_EQ(Backstops.value(), Before + 3);
  EXPECT_EQ(Cache.getStats().Insertions, 0u);

  // Asked again, each query is searched again rather than served from the
  // cache, and the backstop fires again.
  EXPECT_EQ(Solver.checkSat(Hard).Status, QueryStatus::Timeout);
  EXPECT_EQ(Session.checkSat(Hard).Status, QueryStatus::Timeout);
  EXPECT_EQ(Solver.enumerateValues(Hard, X, 4, Values, Complete),
            QueryStatus::Timeout);
  EXPECT_EQ(Backstops.value(), Before + 6);
  EXPECT_EQ(Cache.getStats().Hits, 0u);
  EXPECT_EQ(Cache.getStats().Insertions, 0u);
}

TEST(Solver, EnumerateValuesFindsAll) {
  ExprContext Ctx;
  ConstraintSolver Solver(Ctx);
  ExprRef X = Ctx.makeVar("x", 8);
  // 3 <= x < 7 -> {3,4,5,6}.
  std::vector<uint64_t> Values;
  bool Complete = false;
  QueryStatus S = Solver.enumerateValues(
      {Ctx.ule(Ctx.constant(3, 8), X), Ctx.ult(X, Ctx.constant(7, 8))}, X,
      16, Values, Complete);
  ASSERT_EQ(S, QueryStatus::Sat);
  EXPECT_TRUE(Complete);
  std::sort(Values.begin(), Values.end());
  EXPECT_EQ(Values, (std::vector<uint64_t>{3, 4, 5, 6}));
}

TEST(Solver, EnumerateRespectsMaxCount) {
  ExprContext Ctx;
  ConstraintSolver Solver(Ctx);
  ExprRef X = Ctx.makeVar("x", 16);
  std::vector<uint64_t> Values;
  bool Complete = true;
  QueryStatus S =
      Solver.enumerateValues({Ctx.ult(X, Ctx.constant(1000, 16))}, X, 5,
                             Values, Complete);
  ASSERT_EQ(S, QueryStatus::Sat);
  EXPECT_FALSE(Complete);
  EXPECT_EQ(Values.size(), 5u);
}

TEST(Solver, MustBeTrue) {
  ExprContext Ctx;
  ConstraintSolver Solver(Ctx);
  ExprRef X = Ctx.makeVar("x", 8);
  std::vector<ExprRef> Asserts = {Ctx.ult(X, Ctx.constant(10, 8))};
  bool Result = false;
  ASSERT_EQ(Solver.mustBeTrue(Asserts, Ctx.ult(X, Ctx.constant(11, 8)),
                              Result),
            QueryStatus::Sat);
  EXPECT_TRUE(Result);
  ASSERT_EQ(Solver.mustBeTrue(Asserts, Ctx.ult(X, Ctx.constant(9, 8)),
                              Result),
            QueryStatus::Sat);
  EXPECT_FALSE(Result);
}

//===----------------------------------------------------------------------===//
// Property tests: random expressions, solver vs reference evaluator
//===----------------------------------------------------------------------===//

namespace {

/// Builds a random expression over \p Vars with the given recursion depth.
ExprRef randomExpr(ExprContext &Ctx, Rng &R, const std::vector<ExprRef> &Vars,
                   unsigned Width, unsigned Depth) {
  if (Depth == 0 || R.nextBool(0.25)) {
    if (R.nextBool(0.5)) {
      for (ExprRef V : Vars)
        if (V->getWidth() == Width && R.nextBool(0.5))
          return V;
    }
    return Ctx.constant(R.next(), Width);
  }
  switch (R.nextBounded(14)) {
  case 0:
    return Ctx.add(randomExpr(Ctx, R, Vars, Width, Depth - 1),
                   randomExpr(Ctx, R, Vars, Width, Depth - 1));
  case 1:
    return Ctx.sub(randomExpr(Ctx, R, Vars, Width, Depth - 1),
                   randomExpr(Ctx, R, Vars, Width, Depth - 1));
  case 2:
    return Ctx.mul(randomExpr(Ctx, R, Vars, Width, Depth - 1),
                   randomExpr(Ctx, R, Vars, Width, Depth - 1));
  case 3:
    return Ctx.bvand(randomExpr(Ctx, R, Vars, Width, Depth - 1),
                     randomExpr(Ctx, R, Vars, Width, Depth - 1));
  case 4:
    return Ctx.bvor(randomExpr(Ctx, R, Vars, Width, Depth - 1),
                    randomExpr(Ctx, R, Vars, Width, Depth - 1));
  case 5:
    return Ctx.bvxor(randomExpr(Ctx, R, Vars, Width, Depth - 1),
                     randomExpr(Ctx, R, Vars, Width, Depth - 1));
  case 6:
    return Ctx.shl(randomExpr(Ctx, R, Vars, Width, Depth - 1),
                   Ctx.constant(R.nextBounded(Width + 2), Width));
  case 7:
    return Ctx.lshr(randomExpr(Ctx, R, Vars, Width, Depth - 1),
                    Ctx.constant(R.nextBounded(Width + 2), Width));
  case 8:
    return Ctx.ashr(randomExpr(Ctx, R, Vars, Width, Depth - 1),
                    Ctx.constant(R.nextBounded(Width + 2), Width));
  case 9:
    return Ctx.bvnot(randomExpr(Ctx, R, Vars, Width, Depth - 1));
  case 10:
    return Ctx.neg(randomExpr(Ctx, R, Vars, Width, Depth - 1));
  case 11:
    return Ctx.udiv(randomExpr(Ctx, R, Vars, Width, Depth - 1),
                    randomExpr(Ctx, R, Vars, Width, Depth - 1));
  case 12:
    return Ctx.urem(randomExpr(Ctx, R, Vars, Width, Depth - 1),
                    randomExpr(Ctx, R, Vars, Width, Depth - 1));
  default:
    return Ctx.ite(
        Ctx.ult(randomExpr(Ctx, R, Vars, Width, Depth - 1),
                randomExpr(Ctx, R, Vars, Width, Depth - 1)),
        randomExpr(Ctx, R, Vars, Width, Depth - 1),
        randomExpr(Ctx, R, Vars, Width, Depth - 1));
  }
}

struct PropertyParams {
  unsigned Width;
  uint64_t Seed;
};

class SolverProperty : public ::testing::TestWithParam<PropertyParams> {};

} // namespace

TEST_P(SolverProperty, ModelsSatisfyRandomConstraints) {
  // Generate a random expression E and a random target value computed by
  // evaluating E on random inputs (so SAT is guaranteed); then check that
  // the solver finds a model and that the model evaluates correctly.
  PropertyParams P = GetParam();
  ExprContext Ctx;
  ConstraintSolver Solver(Ctx);
  Rng R(P.Seed);
  std::vector<ExprRef> Vars = {Ctx.makeVar("p", P.Width),
                               Ctx.makeVar("q", P.Width)};

  for (int Round = 0; Round < 12; ++Round) {
    ExprRef E = randomExpr(Ctx, R, Vars, P.Width, 3);
    Assignment Random;
    Random.VarValues[Vars[0]->getVarId()] = maskToWidth(R.next(), P.Width);
    Random.VarValues[Vars[1]->getVarId()] = maskToWidth(R.next(), P.Width);
    uint64_t Target = Ctx.evaluate(E, Random);
    ExprRef Assertion = Ctx.eq(E, Ctx.constant(Target, P.Width));
    QueryResult QR = Solver.checkSat({Assertion});
    ASSERT_EQ(QR.Status, QueryStatus::Sat)
        << "round " << Round << ": " << Ctx.toString(Assertion);
    // checkSat internally validates the model against the assertion; also
    // validate here against the caller-visible API.
    EXPECT_EQ(Ctx.evaluate(E, QR.Model), Target);
  }
}

TEST_P(SolverProperty, UnsatDetectedForContradictions) {
  PropertyParams P = GetParam();
  ExprContext Ctx;
  ConstraintSolver Solver(Ctx);
  Rng R(P.Seed ^ 0xabcdef);
  std::vector<ExprRef> Vars = {Ctx.makeVar("p", P.Width),
                               Ctx.makeVar("q", P.Width)};
  for (int Round = 0; Round < 8; ++Round) {
    ExprRef E = randomExpr(Ctx, R, Vars, P.Width, 3);
    // E == c and E != c is contradictory for any c.
    ExprRef C = Ctx.constant(R.next(), P.Width);
    QueryResult QR = Solver.checkSat({Ctx.eq(E, C), Ctx.ne(E, C)});
    EXPECT_EQ(QR.Status, QueryStatus::Unsat) << "round " << Round;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Widths, SolverProperty,
    ::testing::Values(PropertyParams{4, 11}, PropertyParams{8, 22},
                      PropertyParams{13, 33}, PropertyParams{16, 44},
                      PropertyParams{32, 55}, PropertyParams{64, 66}),
    [](const ::testing::TestParamInfo<PropertyParams> &Info) {
      return "w" + std::to_string(Info.param.Width) + "_s" +
             std::to_string(Info.param.Seed);
    });

TEST(Solver, ArrayPropertyRandomized) {
  // Random write chains over a small array; solver results must agree with
  // the reference evaluator.
  ExprContext Ctx;
  ConstraintSolver Solver(Ctx);
  Rng R(777);
  ExprRef I = Ctx.makeVar("i", 8);
  ExprRef J = Ctx.makeVar("j", 8);

  for (int Round = 0; Round < 10; ++Round) {
    ExprRef Arr = Ctx.constArray(8, 8, 0);
    // Build a chain of 3 writes at symbolic/concrete indices.
    Arr = Ctx.write(Arr, Ctx.urem(I, Ctx.constant(8, 8)),
                    Ctx.constant(R.nextBounded(256), 8));
    Arr = Ctx.write(Arr, Ctx.constant(R.nextBounded(8), 8),
                    Ctx.urem(J, Ctx.constant(16, 8)));
    Arr = Ctx.write(Arr, Ctx.urem(J, Ctx.constant(8, 8)),
                    Ctx.constant(R.nextBounded(256), 8));
    ExprRef Read = Ctx.read(Arr, Ctx.urem(Ctx.add(I, J), Ctx.constant(8, 8)));

    Assignment Random;
    Random.VarValues[I->getVarId()] = R.nextBounded(256);
    Random.VarValues[J->getVarId()] = R.nextBounded(256);
    uint64_t Target = Ctx.evaluate(Read, Random);

    QueryResult QR =
        Solver.checkSat({Ctx.eq(Read, Ctx.constant(Target, 8))});
    ASSERT_EQ(QR.Status, QueryStatus::Sat) << "round " << Round;
    EXPECT_EQ(Ctx.evaluate(Read, QR.Model), Target) << "round " << Round;
  }
}

TEST(Solver, StallScalesWithChainLengthAndObjectSize) {
  // The work charged by the solver must grow with (a) symbolic write chain
  // length and (b) symbolic object size — the paper's two stall sources.
  ExprContext Ctx;
  ConstraintSolver Solver(Ctx);
  ExprRef X = Ctx.makeVar("x", 32);

  auto WorkFor = [&](unsigned ChainLen, uint64_t ObjSize) {
    ExprRef Arr = Ctx.symArray("A" + std::to_string(ChainLen) + "_" +
                                   std::to_string(ObjSize),
                               32, ObjSize);
    ExprRef Bound = Ctx.constant(ObjSize, 32);
    std::vector<ExprRef> Asserts = {Ctx.ult(X, Bound)};
    ExprRef Cur = Arr;
    for (unsigned K = 0; K < ChainLen; ++K)
      Cur = Ctx.write(Cur, Ctx.urem(Ctx.add(X, Ctx.constant(K, 32)), Bound),
                      Ctx.constant(K, 32));
    Asserts.push_back(
        Ctx.eq(Ctx.read(Cur, X), Ctx.constant(0, 32)));
    QueryResult R = Solver.checkSat(Asserts);
    EXPECT_NE(R.Status, QueryStatus::Unsat);
    return R.WorkUsed;
  };

  uint64_t ShortChain = WorkFor(2, 32);
  uint64_t LongChain = WorkFor(12, 32);
  EXPECT_GT(LongChain, ShortChain);

  uint64_t SmallObj = WorkFor(4, 16);
  uint64_t LargeObj = WorkFor(4, 256);
  EXPECT_GT(LargeObj, SmallObj);
}

//===----------------------------------------------------------------------===//
// Incremental session: differential byte-identity against fresh solves
//===----------------------------------------------------------------------===//
//
// The contract under test (docs/SOLVER.md): IncrementalSession::checkSat is
// observationally indistinguishable from ConstraintSolver::checkSat — same
// Status, same Model, same WorkUsed, same SolverTotals — for ANY call
// stream, extension or not. The suite drives a session and a fresh solver
// over the same context side by side and compares everything after every
// call.

namespace {

void expectSameResult(const QueryResult &Fresh, const QueryResult &Inc,
                      const std::string &What) {
  EXPECT_EQ(Fresh.Status, Inc.Status) << What;
  EXPECT_EQ(Fresh.WorkUsed, Inc.WorkUsed) << What;
  EXPECT_EQ(Fresh.Model.VarValues, Inc.Model.VarValues) << What;
  EXPECT_EQ(Fresh.Model.ArrayValues, Inc.Model.ArrayValues) << What;
}

void expectSameTotals(const ConstraintSolver &Fresh,
                      const ConstraintSolver &Inc, const std::string &What) {
  const SolverTotals &A = Fresh.getTotals();
  const SolverTotals &B = Inc.getTotals();
  EXPECT_EQ(A.Queries, B.Queries) << What;
  EXPECT_EQ(A.SatQueries, B.SatQueries) << What;
  EXPECT_EQ(A.UnsatQueries, B.UnsatQueries) << What;
  EXPECT_EQ(A.Timeouts, B.Timeouts) << What;
  EXPECT_EQ(A.TotalWork, B.TotalWork) << What;
  EXPECT_EQ(A.ArrayExpansions, B.ArrayExpansions) << What;
  EXPECT_EQ(A.MaxLoweredNodes, B.MaxLoweredNodes) << What;
}

/// Drives both solvers over the same assertion list and compares.
QueryResult solveBoth(ConstraintSolver &Fresh, IncrementalSession &Inc,
                      const std::vector<ExprRef> &List,
                      const std::string &What, uint64_t BudgetOverride = 0) {
  QueryResult FR = Fresh.checkSat(List, BudgetOverride);
  QueryResult IR = Inc.checkSat(List, BudgetOverride);
  expectSameResult(FR, IR, What);
  return IR;
}

/// The wall-clock deadline is the solver's one documented source of
/// non-determinism (Timeout from it is never cached or compared): under
/// sanitizer slowdown both sides can hit it mid-search at different wall
/// instants and report different conflict counts. The differential
/// contract is about deterministic outcomes, so the suite runs with the
/// deadline off — the conflict/propagation work caps still bound every
/// solve.
SolverConfig noWallDeadline() {
  SolverConfig C;
  C.WallSecondsBudget = 0;
  return C;
}

} // namespace

TEST(SolverIncremental, PrefixStreamMatchesFreshAcrossWidthsAndSeeds) {
  for (unsigned Width : {8u, 16u, 32u, 64u}) {
    for (uint64_t Seed : {3ull, 17ull}) {
      ExprContext Ctx;
      ConstraintSolver Fresh(Ctx, noWallDeadline()), IncSolver(Ctx, noWallDeadline());
      IncrementalSession Inc(IncSolver);
      Rng R(Seed);
      std::vector<ExprRef> Vars = {Ctx.makeVar("p", Width),
                                   Ctx.makeVar("q", Width)};
      // All assertions are satisfied by one fixed random assignment, so
      // the growing conjunction stays satisfiable and the stream exercises
      // the Sat path (the reuse that matters) round after round.
      Assignment Witness;
      Witness.VarValues[Vars[0]->getVarId()] = maskToWidth(R.next(), Width);
      Witness.VarValues[Vars[1]->getVarId()] = maskToWidth(R.next(), Width);

      std::vector<ExprRef> List;
      for (int Round = 0; Round < 8; ++Round) {
        ExprRef E = randomExpr(Ctx, R, Vars, Width, 3);
        List.push_back(
            Ctx.eq(E, Ctx.constant(Ctx.evaluate(E, Witness), Width)));
        std::string What = "w" + std::to_string(Width) + " s" +
                           std::to_string(Seed) + " round " +
                           std::to_string(Round);
        solveBoth(Fresh, Inc, List, What);
        expectSameTotals(Fresh, IncSolver, What);
      }
      // Round 0 is the priming rebuild; every later round extended it.
      EXPECT_EQ(Inc.getStats().Rebuilds, 1u);
      EXPECT_EQ(Inc.getStats().Extensions, 7u);
      EXPECT_GT(Inc.getStats().WorkReused, 0u);
    }
  }
}

TEST(SolverIncremental, IdenticalListResolvesAsExtension) {
  ExprContext Ctx;
  ConstraintSolver Fresh(Ctx, noWallDeadline()), IncSolver(Ctx, noWallDeadline());
  IncrementalSession Inc(IncSolver);
  ExprRef X = Ctx.makeVar("x", 32);
  std::vector<ExprRef> List = {
      Ctx.eq(Ctx.mul(X, Ctx.constant(3, 32)), Ctx.constant(51, 32))};
  solveBoth(Fresh, Inc, List, "first");
  solveBoth(Fresh, Inc, List, "resolve");
  expectSameTotals(Fresh, IncSolver, "after resolve");
  EXPECT_EQ(Inc.getStats().Extensions, 1u); // The re-solve: empty suffix.
  EXPECT_EQ(Inc.getStats().Rebuilds, 1u);
}

TEST(SolverIncremental, NonExtensionStreamsFallBackToRebuild) {
  ExprContext Ctx;
  ConstraintSolver Fresh(Ctx, noWallDeadline()), IncSolver(Ctx, noWallDeadline());
  IncrementalSession Inc(IncSolver);
  ExprRef X = Ctx.makeVar("x", 16);
  ExprRef Y = Ctx.makeVar("y", 16);
  ExprRef A = Ctx.eq(X, Ctx.constant(5, 16));
  ExprRef B = Ctx.eq(Y, Ctx.constant(7, 16));
  ExprRef C = Ctx.ult(X, Ctx.constant(100, 16));
  ExprRef D = Ctx.ult(Y, Ctx.constant(100, 16));

  solveBoth(Fresh, Inc, {A}, "prime");              // Rebuild (first call).
  solveBoth(Fresh, Inc, {B}, "disjoint");           // Rebuild.
  solveBoth(Fresh, Inc, {A, C}, "other prefix");    // Rebuild.
  solveBoth(Fresh, Inc, {A, D}, "changed tail");    // Rebuild (C != D).
  solveBoth(Fresh, Inc, {A}, "shorter");            // Rebuild (shrank).
  solveBoth(Fresh, Inc, {A, C, D}, "extend again"); // Extension of {A}.
  expectSameTotals(Fresh, IncSolver, "after stream");
  EXPECT_EQ(Inc.getStats().Rebuilds, 5u);
  EXPECT_EQ(Inc.getStats().Extensions, 1u);
}

TEST(SolverIncremental, BudgetChangesRemainByteIdentical) {
  ExprContext Ctx;
  ConstraintSolver Fresh(Ctx, noWallDeadline()), IncSolver(Ctx, noWallDeadline());
  IncrementalSession Inc(IncSolver);
  ExprRef X = Ctx.makeVar("x", 32);
  ExprRef Y = Ctx.makeVar("y", 32);
  std::vector<ExprRef> List = {
      Ctx.eq(Ctx.mul(X, Y), Ctx.constant(143, 32)),
      Ctx.ult(Ctx.constant(1, 32), X),
  };
  solveBoth(Fresh, Inc, List, "prime (default budget)");

  // Larger budget on an extension: prefix gates still fit, reuse is safe.
  List.push_back(Ctx.ult(Ctx.constant(1, 32), Y));
  solveBoth(Fresh, Inc, List, "extend under 2x budget",
            Fresh.getConfig().WorkBudget * 2);

  // Budget squeezed below the retained lowering+gate state: the session
  // must fall back (and time out) exactly like a fresh solve would.
  QueryResult Tiny = solveBoth(Fresh, Inc, List, "tiny budget", 40);
  EXPECT_EQ(Tiny.Status, QueryStatus::Timeout);

  // A mid-size budget that survives lowering but latches the gate meter.
  QueryResult Mid = solveBoth(Fresh, Inc, List, "gate-latch budget", 700);
  EXPECT_EQ(Mid.Status, QueryStatus::Timeout);

  // After the failed calls the session must have dropped its (poisoned)
  // state and still answer normal queries correctly.
  solveBoth(Fresh, Inc, List, "recover at default budget");
  List.push_back(Ctx.ult(X, Ctx.constant(1000, 32)));
  solveBoth(Fresh, Inc, List, "extend after recovery");
  expectSameTotals(Fresh, IncSolver, "after budget stream");
}

TEST(SolverIncremental, ArrayWriteChainStreamMatchesFresh) {
  ExprContext Ctx;
  ConstraintSolver Fresh(Ctx, noWallDeadline()), IncSolver(Ctx, noWallDeadline());
  IncrementalSession Inc(IncSolver);
  ExprRef I = Ctx.makeVar("i", 8);
  ExprRef Bound = Ctx.constant(16, 8);
  ExprRef Arr = Ctx.symArray("A", 8, 16);

  std::vector<ExprRef> List = {Ctx.ult(I, Bound)};
  ExprRef Cur = Arr;
  for (int Round = 0; Round < 5; ++Round) {
    // Each round deepens the symbolic write chain and pins another read:
    // the array-lowering path (case splits + chain expansion) dominates,
    // so this checks lowering-work parity, not just gate parity.
    Cur = Ctx.write(Cur, Ctx.urem(Ctx.add(I, Ctx.constant(Round, 8)), Bound),
                    Ctx.constant(Round + 1, 8));
    List.push_back(Ctx.ult(Ctx.read(Cur, Ctx.urem(I, Bound)),
                           Ctx.constant(200, 8)));
    solveBoth(Fresh, Inc, List, "chain round " + std::to_string(Round));
    expectSameTotals(Fresh, IncSolver,
                     "chain round " + std::to_string(Round));
  }
  EXPECT_EQ(Inc.getStats().Extensions, 4u);

  // A budget too small for even the array lowering: both sides must abort
  // mid-lowering identically (L == nullptr -> Timeout), and the session —
  // whose retained lowering now exceeds the budget — must demote to a
  // rebuild and then recover at full budget.
  EXPECT_EQ(solveBoth(Fresh, Inc, List, "lowering abort", 8).Status,
            QueryStatus::Timeout);
  solveBoth(Fresh, Inc, List, "recover after abort");
  expectSameTotals(Fresh, IncSolver, "after abort stream");
}

TEST(SolverIncremental, UnsatAndTriviallyFalseTailsMatchFresh) {
  ExprContext Ctx;
  ConstraintSolver Fresh(Ctx, noWallDeadline()), IncSolver(Ctx, noWallDeadline());
  IncrementalSession Inc(IncSolver);
  ExprRef X = Ctx.makeVar("x", 16);
  ExprRef A = Ctx.ult(X, Ctx.constant(10, 16));

  solveBoth(Fresh, Inc, {A}, "prime");
  // CDCL-level contradiction appended: both must answer Unsat.
  std::vector<ExprRef> Contra = {A, Ctx.ult(Ctx.constant(20, 16), X)};
  EXPECT_EQ(solveBoth(Fresh, Inc, Contra, "contradiction").Status,
            QueryStatus::Unsat);
  // Literal false in the tail short-circuits before blasting; the session
  // must take the same early-out and then recover.
  std::vector<ExprRef> WithFalse = {A, Ctx.constant(0, 1)};
  EXPECT_EQ(solveBoth(Fresh, Inc, WithFalse, "false tail").Status,
            QueryStatus::Unsat);
  solveBoth(Fresh, Inc, {A, Ctx.ult(X, Ctx.constant(5, 16))}, "recover");
  expectSameTotals(Fresh, IncSolver, "after unsat stream");
}

TEST(SolverIncremental, SharedCacheHitLeavesSessionReusable) {
  ExprContext Ctx;
  SolverResultCache FreshCache, IncCache;
  SolverConfig FreshCfg = noWallDeadline(), IncCfg = noWallDeadline();
  FreshCfg.SharedCache = &FreshCache;
  IncCfg.SharedCache = &IncCache;
  ConstraintSolver Fresh(Ctx, FreshCfg), IncSolver(Ctx, IncCfg);
  IncrementalSession Inc(IncSolver);
  ExprRef X = Ctx.makeVar("x", 32);
  std::vector<ExprRef> List = {
      Ctx.eq(Ctx.add(X, Ctx.constant(9, 32)), Ctx.constant(14, 32))};

  solveBoth(Fresh, Inc, List, "miss+insert");
  solveBoth(Fresh, Inc, List, "cache hit");
  EXPECT_EQ(Inc.getStats().CacheHits, 1u);
  // The hit must not have disturbed the retained prefix: this list still
  // extends the one committed by the first call.
  List.push_back(Ctx.ult(X, Ctx.constant(100, 32)));
  solveBoth(Fresh, Inc, List, "extend after hit");
  EXPECT_EQ(Inc.getStats().Extensions, 1u);
  expectSameTotals(Fresh, IncSolver, "after cached stream");
}

TEST(SolverIncremental, SessionWorkAccountingNeverDrifts) {
  // WorkReused is an accounting claim: work charged but not redone. The
  // claim only means something if WorkUsed itself never drifts from fresh
  // — covered above — AND the reused share is large on deep extensions.
  ExprContext Ctx;
  ConstraintSolver Fresh(Ctx, noWallDeadline()), IncSolver(Ctx, noWallDeadline());
  IncrementalSession Inc(IncSolver);
  ExprRef X = Ctx.makeVar("x", 32);
  std::vector<ExprRef> List;
  uint64_t FreshWorkTotal = 0, IncFinalWork = 0;
  for (int Round = 0; Round < 6; ++Round) {
    List.push_back(Ctx.ult(Ctx.constant(Round, 32),
                           Ctx.add(X, Ctx.constant(Round * 7 + 1, 32))));
    QueryResult IR = solveBoth(Fresh, Inc, List,
                               "round " + std::to_string(Round));
    FreshWorkTotal += IR.WorkUsed;
    IncFinalWork = IR.WorkUsed;
  }
  // Physical work the session did = sum of charges minus what it reused;
  // on a pure extension stream that is roughly ONE query's worth.
  uint64_t Reused = Inc.getStats().WorkReused;
  EXPECT_GT(Reused, 0u);
  EXPECT_LT(FreshWorkTotal - Reused, 2 * IncFinalWork);
}

//===----------------------------------------------------------------------===//
// Incremental session: end-to-end reconstruction equality
//===----------------------------------------------------------------------===//

namespace {

/// Full campaign on a Table-1 workload with the incremental session on or
/// off; everything downstream of the solver must be identical.
ReconstructionReport runWorkloadCampaign(const char *Id, bool Incremental) {
  const BugSpec &Spec = *findBug(Id);
  auto M = compileBug(Spec);
  DriverConfig DC;
  DC.Solver.WorkBudget = Spec.SolverWorkBudget;
  DC.Vm.ChunkSize = Spec.VmChunkSize;
  DC.Seed = 20260810;
  DC.MaxIterations = 16;
  DC.IncrementalSolver = Incremental;
  ReconstructionDriver Driver(*M, DC);
  return Driver.reconstruct([&](Rng &R) { return Spec.ProductionInput(R); });
}

void expectSameReport(const ReconstructionReport &A,
                      const ReconstructionReport &B, const std::string &What) {
  EXPECT_EQ(A.Success, B.Success) << What;
  EXPECT_EQ(A.Occurrences, B.Occurrences) << What;
  EXPECT_EQ(A.TestCase.Bytes, B.TestCase.Bytes) << What;
  EXPECT_EQ(A.TestCase.Args, B.TestCase.Args) << What;
  EXPECT_EQ(A.ReplayScheduleSeed, B.ReplayScheduleSeed) << What;
  EXPECT_EQ(A.FailingInstrCount, B.FailingInstrCount) << What;
  ASSERT_EQ(A.Iterations.size(), B.Iterations.size()) << What;
  for (size_t I = 0; I < A.Iterations.size(); ++I) {
    EXPECT_EQ(A.Iterations[I].Status, B.Iterations[I].Status)
        << What << " iter " << I;
    EXPECT_EQ(A.Iterations[I].SymexWork, B.Iterations[I].SymexWork)
        << What << " iter " << I;
    EXPECT_EQ(A.Iterations[I].NewRecordedValues,
              B.Iterations[I].NewRecordedValues)
        << What << " iter " << I;
  }
}

} // namespace

TEST(SolverIncremental, Table1CampaignsIdenticalWithAndWithoutSession) {
  for (const char *Id : {"PHP-2012-2386", "SQLite-787fa71"}) {
    ReconstructionReport On = runWorkloadCampaign(Id, true);
    ReconstructionReport Off = runWorkloadCampaign(Id, false);
    expectSameReport(On, Off, Id);
    EXPECT_TRUE(On.Success) << Id;
  }
}

TEST(SolverIncremental, GeneratedCorpusCampaignsIdenticalWithAndWithout) {
  gen::GenConfig GC;
  GC.Seed = 31;
  GC.Count = gen::NumBugClasses;
  std::vector<gen::GeneratedCampaign> Corpus = gen::generateCorpus(GC);
  unsigned Tested = 0;
  for (const auto &C : Corpus) {
    if (C.Multithreaded)
      continue; // Schedule-dependent campaigns are covered elsewhere.
    if (Tested == 3)
      break; // A slice keeps the suite quick; seeds make it deterministic.
    BugSpec Spec = gen::toBugSpec(C);
    auto Run = [&](bool Incremental) {
      std::unique_ptr<Module> M = compileBug(Spec);
      DriverConfig DC;
      DC.Seed = 42;
      DC.Vm.ChunkSize = Spec.VmChunkSize;
      DC.Solver.WorkBudget = Spec.SolverWorkBudget;
      DC.IncrementalSolver = Incremental;
      ReconstructionDriver Driver(*M, DC);
      return Driver.reconstruct(Spec.ProductionInput);
    };
    ReconstructionReport On = Run(true);
    ReconstructionReport Off = Run(false);
    expectSameReport(On, Off, C.Id);
    ++Tested;
  }
  EXPECT_EQ(Tested, 3u);
}

//===----------------------------------------------------------------------===//
// Identity pins: the CNF, the variable numbering and the search, bit for bit
//===----------------------------------------------------------------------===//
//
// Each stream below folds every observable of every query into one FNV-1a
// digest: status, WorkUsed, model, enumerated values and completeness for
// the ConstraintSolver entry points; variable and clause counts, every
// SatStats field and the full SAT model for the blaster-level pipeline.
// The expected digests were captured from the solver as it stood before
// its clause store became a flat arena and its buffers were reused across
// queries. Any change to clause order, watch order, variable numbering,
// restart points or budget accounting changes a digest.

namespace {

struct Digest {
  uint64_t H = 1469598103934665603ull;
  void add(uint64_t V) {
    for (int I = 0; I < 8; ++I) {
      H ^= (V >> (8 * I)) & 0xff;
      H *= 1099511628211ull;
    }
  }
  void addModel(const Assignment &A) {
    std::vector<std::pair<uint32_t, uint64_t>> Vars(A.VarValues.begin(),
                                                    A.VarValues.end());
    std::sort(Vars.begin(), Vars.end());
    add(Vars.size());
    for (const auto &[Id, V] : Vars) {
      add(Id);
      add(V);
    }
    std::vector<std::pair<uint32_t, std::vector<std::pair<uint64_t, uint64_t>>>>
        Arrays;
    for (const auto &[Id, Elems] : A.ArrayValues) {
      Arrays.push_back({Id, {Elems.begin(), Elems.end()}});
      std::sort(Arrays.back().second.begin(), Arrays.back().second.end());
    }
    std::sort(Arrays.begin(), Arrays.end());
    add(Arrays.size());
    for (const auto &[Id, Elems] : Arrays) {
      add(Id);
      for (const auto &[Index, V] : Elems) {
        add(Index);
        add(V);
      }
    }
  }
  void addStats(const SatStats &S) {
    add(S.Conflicts);
    add(S.Decisions);
    add(S.Propagations);
    add(S.Restarts);
    add(S.LearnedClauses);
  }
};

/// A seeded bit-vector query stream in the shape of the SolverIncremental
/// generators: a growing conjunction of random equalities that one witness
/// satisfies, plus per round a contradiction and a fresh random term to
/// enumerate.
struct QueryStream {
  std::vector<std::vector<ExprRef>> SatLists;
  std::vector<std::vector<ExprRef>> UnsatLists;
  std::vector<ExprRef> Terms;
};

QueryStream makeQueryStream(ExprContext &Ctx, unsigned Width, uint64_t Seed,
                            int Rounds) {
  QueryStream S;
  Rng R(Seed);
  std::vector<ExprRef> Vars = {Ctx.makeVar("p", Width),
                               Ctx.makeVar("q", Width)};
  Assignment Witness;
  Witness.VarValues[Vars[0]->getVarId()] = maskToWidth(R.next(), Width);
  Witness.VarValues[Vars[1]->getVarId()] = maskToWidth(R.next(), Width);
  std::vector<ExprRef> List;
  for (int Round = 0; Round < Rounds; ++Round) {
    ExprRef E = randomExpr(Ctx, R, Vars, Width, 3);
    List.push_back(Ctx.eq(E, Ctx.constant(Ctx.evaluate(E, Witness), Width)));
    S.SatLists.push_back(List);
    ExprRef F = randomExpr(Ctx, R, Vars, Width, 3);
    ExprRef C = Ctx.constant(R.next(), Width);
    S.UnsatLists.push_back({List[0], Ctx.eq(F, C), Ctx.ne(F, C)});
    S.Terms.push_back(randomExpr(Ctx, R, Vars, Width, 2));
  }
  return S;
}

/// Folds the ConstraintSolver-level results of one stream: every sat list
/// at the default budget and at three budgets small enough to time out in
/// lowering, blasting or search, every contradiction, and an enumeration
/// of each round's term at MaxCount 1, 2 and 4.
uint64_t solverStreamDigest(unsigned Width, uint64_t Seed) {
  ExprContext Ctx;
  ConstraintSolver Solver(Ctx, noWallDeadline());
  QueryStream S = makeQueryStream(Ctx, Width, Seed, 6);
  Digest D;
  for (size_t I = 0; I < S.SatLists.size(); ++I) {
    for (uint64_t Budget : {0ull, 300ull, 3000ull, 30000ull}) {
      QueryResult R = Solver.checkSat(S.SatLists[I], Budget);
      D.add(static_cast<uint64_t>(R.Status));
      D.add(R.WorkUsed);
      D.addModel(R.Model);
    }
    QueryResult U = Solver.checkSat(S.UnsatLists[I]);
    D.add(static_cast<uint64_t>(U.Status));
    D.add(U.WorkUsed);
    for (unsigned MaxCount : {1u, 2u, 4u}) {
      std::vector<uint64_t> Values;
      bool Complete = false;
      QueryStatus St = Solver.enumerateValues(S.SatLists[I], S.Terms[I],
                                              MaxCount, Values, Complete);
      D.add(static_cast<uint64_t>(St));
      D.add(Complete);
      D.add(Values.size());
      for (uint64_t V : Values)
        D.add(V);
    }
  }
  const SolverTotals &T = Solver.getTotals();
  D.add(T.Queries);
  D.add(T.SatQueries);
  D.add(T.UnsatQueries);
  D.add(T.Timeouts);
  D.add(T.TotalWork);
  D.add(T.ArrayExpansions);
  return D.H;
}

/// Folds the blaster-level pipeline of one stream: each sat list and each
/// contradiction is lowered, blasted into a SatSolver and searched (first
/// under a small conflict cap, then to completion on the same solver),
/// and each term is enumerated by blocking clauses. Variable and clause
/// counts, every SatStats field and every SAT variable's value are
/// folded after each search.
uint64_t satStreamDigest(unsigned Width, uint64_t Seed) {
  ExprContext Ctx;
  ConstraintSolver Lowerer(Ctx, noWallDeadline());
  QueryStream S = makeQueryStream(Ctx, Width, Seed, 6);
  Digest D;
  auto Fold = [&](const SatSolver &Sat, SatStatus St) {
    D.add(static_cast<uint64_t>(St));
    D.add(Sat.numVars());
    D.add(Sat.numClauses());
    D.addStats(Sat.getStats());
    if (St == SatStatus::Sat)
      for (unsigned V = 1; V <= Sat.numVars(); ++V)
        D.add(Sat.modelValue(V));
  };
  auto Run = [&](const std::vector<ExprRef> &List, ExprRef Term) {
    SatSolver Sat;
    BitBlaster Blaster(Ctx, Sat, UINT64_MAX);
    uint64_t Work = 0;
    ExprRef LTerm = Term ? Lowerer.lowerArrays(Term, UINT64_MAX, Work)
                         : nullptr;
    if (LTerm && !LTerm->isConst())
      Blaster.encode(LTerm);
    for (ExprRef A : List)
      Blaster.assertTrue(Lowerer.lowerArrays(A, UINT64_MAX, Work));
    SatBudget Small;
    Small.MaxConflicts = 3;
    Fold(Sat, Sat.solve(Small));
    for (int K = 0; K < 4; ++K) {
      SatStatus St = Sat.solve(SatBudget{});
      Fold(Sat, St);
      if (St != SatStatus::Sat || !LTerm || LTerm->isConst())
        break;
      D.add(Blaster.valueOf(LTerm));
      Blaster.blockValue(LTerm, Blaster.valueOf(LTerm));
    }
  };
  for (size_t I = 0; I < S.SatLists.size(); ++I) {
    Run(S.SatLists[I], S.Terms[I]);
    Run(S.UnsatLists[I], nullptr);
  }
  return D.H;
}

struct PinCase {
  unsigned Width;
  uint64_t Seed;
  uint64_t SolverDigest;
  uint64_t SatDigest;
};

const PinCase PinCases[] = {
    {8, 3, 0x729cbe8e29c7c3caull, 0xcb04771e85278ed0ull},
    {16, 17, 0x0bfa620b152a3315ull, 0x008d9ec94c5c1c80ull},
    {32, 3, 0x2d4a8cedc6004666ull, 0x11944a244dfe23d8ull},
    {32, 17, 0xfb0ff94671bcd13bull, 0x54428136351447ffull},
    {64, 5, 0xcf0deae26645724bull, 0x15594f21dd878b80ull},
};

} // namespace

TEST(SolverIdentity, QueryStreamsMatchPinnedResults) {
  for (const PinCase &P : PinCases)
    EXPECT_EQ(solverStreamDigest(P.Width, P.Seed), P.SolverDigest)
        << "w" << P.Width << " s" << P.Seed;
}

TEST(SolverIdentity, SatSearchMatchesPinnedStats) {
  for (const PinCase &P : PinCases)
    EXPECT_EQ(satStreamDigest(P.Width, P.Seed), P.SatDigest)
        << "w" << P.Width << " s" << P.Seed;
}
