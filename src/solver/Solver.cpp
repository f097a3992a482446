//===- Solver.cpp - Budgeted constraint solving ----------------------------===//

#include "solver/Solver.h"

#include "obs/Metrics.h"
#include "obs/Tracer.h"
#include "solver/BitBlaster.h"
#include "solver/Sat.h"
#include "solver/SolverCache.h"
#include "support/Error.h"
#include "support/Timer.h"

#include <cassert>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <optional>

using namespace er;

//===----------------------------------------------------------------------===//
// Telemetry
//===----------------------------------------------------------------------===//
//
// Every query records its wall time, abstract work, and constraint count
// into process-wide histograms, and opens a pipeline span when the tracer
// is enabled. Queries are heavyweight (array lowering + bit-blasting +
// CDCL), so the handful of relaxed atomic bumps here is noise; the
// registry handles are resolved once.

namespace {
struct QueryMetrics {
  obs::Histogram &WallUs, &Work, &Assertions;
  obs::Counter &Sat, &Unsat, &Timeout, &WallBackstop;
  static QueryMetrics &get() {
    auto &Reg = obs::MetricsRegistry::global();
    static QueryMetrics M{
        Reg.histogram("solver.query.us", obs::exponentialBounds(1, 22, 2)),
        Reg.histogram("solver.query.work", obs::exponentialBounds(64, 14, 4)),
        Reg.histogram("solver.query.assertions",
                      obs::exponentialBounds(1, 16, 2)),
        Reg.counter("solver.queries.sat"),
        Reg.counter("solver.queries.unsat"),
        Reg.counter("solver.queries.timeout"),
        Reg.counter("solver.wall_backstop")};
    return M;
  }

  /// A search ended Unknown on the WallSecondsBudget deadline rather than
  /// on a deterministic cap: the one way a result can depend on machine
  /// speed, so it is counted and marked on the search span.
  void recordWallBackstop(obs::ScopedSpan &SatSpan) {
    WallBackstop.inc();
    SatSpan.arg("wall_backstop", static_cast<uint64_t>(1));
  }

  void record(QueryStatus Status, uint64_t WorkUsed, size_t NumAssertions,
              double Seconds) {
    WallUs.record(static_cast<uint64_t>(Seconds * 1e6));
    Work.record(WorkUsed);
    Assertions.record(NumAssertions);
    switch (Status) {
    case QueryStatus::Sat:     Sat.inc(); break;
    case QueryStatus::Unsat:   Unsat.inc(); break;
    case QueryStatus::Timeout: Timeout.inc(); break;
    }
  }
};
} // namespace

const char *er::queryStatusName(QueryStatus S) {
  switch (S) {
  case QueryStatus::Sat:     return "sat";
  case QueryStatus::Unsat:   return "unsat";
  case QueryStatus::Timeout: return "timeout";
  }
  fatalError("unknown query status");
}

ConstraintSolver::ConstraintSolver(ExprContext &Ctx, SolverConfig Config)
    : Ctx(Ctx), Config(Config), Sat(std::make_unique<SatSolver>()),
      Blaster(std::make_unique<BitBlaster>(Ctx, *Sat, 0)) {}

ConstraintSolver::~ConstraintSolver() = default;

//===----------------------------------------------------------------------===//
// Array elimination
//===----------------------------------------------------------------------===//

ExprRef ConstraintSolver::lowerRead(
    ExprRef Array, ExprRef Index, uint64_t Budget, uint64_t &Work,
    std::unordered_map<ExprRef, ExprRef> &Memo) {
  // Collect the symbolic write chain (top of chain first).
  std::vector<ExprRef> Chain;
  ExprRef Base = Array;
  while (Base->getKind() == ExprKind::Write) {
    Chain.push_back(Base);
    Base = Base->getOp0();
  }

  unsigned ElemW = Array->getElemWidth();

  // Value read from the base array.
  ExprRef Result = nullptr;
  if (Index->isConst() || Base->getKind() == ExprKind::ConstArray) {
    Result = Ctx.read(Base, Index);
    Work += 1;
  } else {
    // Symbolic index over concrete or symbolic storage: case-split over the
    // whole domain. This is the "size of the accessed symbolic memory" cost
    // from the paper (Section 3.3.1).
    uint64_t N = Base->getNumElems();
    Work += N * ElemW / 8 + N;
    ++Totals.ArrayExpansions;
    if (Work > Budget)
      return nullptr;
    Result = Ctx.read(Base, Ctx.constant(0, Index->getWidth()));
    for (uint64_t K = 1; K < N; ++K) {
      ExprRef KConst = Ctx.constant(K, Index->getWidth());
      Result = Ctx.ite(Ctx.eq(Index, KConst), Ctx.read(Base, KConst), Result);
    }
  }

  // Apply the writes from oldest to newest. This is the "length of symbolic
  // write chains" cost from the paper.
  for (size_t I = Chain.size(); I-- > 0;) {
    ExprRef W = Chain[I];
    ExprRef WIdx = lowerArraysImpl(W->getOp1(), Budget, Work, Memo);
    ExprRef WVal = lowerArraysImpl(W->getOp2(), Budget, Work, Memo);
    if (!WIdx || !WVal)
      return nullptr;
    Work += ElemW / 8 + Index->getWidth();
    ++Totals.ArrayExpansions;
    if (Work > Budget)
      return nullptr;
    Result = Ctx.ite(Ctx.eq(Index, WIdx), WVal, Result);
  }
  return Result;
}

ExprRef ConstraintSolver::lowerArraysImpl(
    ExprRef E, uint64_t Budget, uint64_t &Work,
    std::unordered_map<ExprRef, ExprRef> &Memo) {
  if (Work > Budget)
    return nullptr;
  if (E->getNumOps() == 0)
    return E;
  auto It = Memo.find(E);
  if (It != Memo.end())
    return It->second;

  ExprRef Result = nullptr;
  if (E->getKind() == ExprKind::Read) {
    ExprRef Index = lowerArraysImpl(E->getOp1(), Budget, Work, Memo);
    if (!Index)
      return nullptr;
    // Keep atomic reads of symbolic arrays at constant indices: the blaster
    // treats them as free variables.
    if (E->getOp0()->getKind() == ExprKind::SymArray && Index->isConst()) {
      Result = Index == E->getOp1() ? E : Ctx.read(E->getOp0(), Index);
    } else {
      Result = lowerRead(E->getOp0(), Index, Budget, Work, Memo);
      if (!Result)
        return nullptr;
    }
  } else {
    assert(E->getKind() != ExprKind::Write &&
           "free-standing Write outside a Read");
    ExprRef NewOps[3] = {nullptr, nullptr, nullptr};
    bool Changed = false;
    for (unsigned I = 0; I < E->getNumOps(); ++I) {
      NewOps[I] = lowerArraysImpl(E->getOp(I), Budget, Work, Memo);
      if (!NewOps[I])
        return nullptr;
      Changed |= NewOps[I] != E->getOp(I);
    }
    if (!Changed) {
      Result = E;
    } else {
      switch (E->getKind()) {
      case ExprKind::Not:   Result = Ctx.bvnot(NewOps[0]); break;
      case ExprKind::Neg:   Result = Ctx.neg(NewOps[0]); break;
      case ExprKind::ZExt:  Result = Ctx.zext(NewOps[0], E->getWidth()); break;
      case ExprKind::SExt:  Result = Ctx.sext(NewOps[0], E->getWidth()); break;
      case ExprKind::Trunc: Result = Ctx.trunc(NewOps[0], E->getWidth()); break;
      case ExprKind::Ite:
        Result = Ctx.ite(NewOps[0], NewOps[1], NewOps[2]);
        break;
      case ExprKind::Add:  Result = Ctx.add(NewOps[0], NewOps[1]); break;
      case ExprKind::Sub:  Result = Ctx.sub(NewOps[0], NewOps[1]); break;
      case ExprKind::Mul:  Result = Ctx.mul(NewOps[0], NewOps[1]); break;
      case ExprKind::UDiv: Result = Ctx.udiv(NewOps[0], NewOps[1]); break;
      case ExprKind::SDiv: Result = Ctx.sdiv(NewOps[0], NewOps[1]); break;
      case ExprKind::URem: Result = Ctx.urem(NewOps[0], NewOps[1]); break;
      case ExprKind::SRem: Result = Ctx.srem(NewOps[0], NewOps[1]); break;
      case ExprKind::And:  Result = Ctx.bvand(NewOps[0], NewOps[1]); break;
      case ExprKind::Or:   Result = Ctx.bvor(NewOps[0], NewOps[1]); break;
      case ExprKind::Xor:  Result = Ctx.bvxor(NewOps[0], NewOps[1]); break;
      case ExprKind::Shl:  Result = Ctx.shl(NewOps[0], NewOps[1]); break;
      case ExprKind::LShr: Result = Ctx.lshr(NewOps[0], NewOps[1]); break;
      case ExprKind::AShr: Result = Ctx.ashr(NewOps[0], NewOps[1]); break;
      case ExprKind::Eq:   Result = Ctx.eq(NewOps[0], NewOps[1]); break;
      case ExprKind::Ult:  Result = Ctx.ult(NewOps[0], NewOps[1]); break;
      case ExprKind::Slt:  Result = Ctx.slt(NewOps[0], NewOps[1]); break;
      default:
        fatalError("unhandled kind in array lowering");
      }
    }
  }
  Memo.emplace(E, Result);
  return Result;
}

ExprRef ConstraintSolver::lowerArrays(ExprRef E, uint64_t Budget,
                                      uint64_t &Work) {
  std::unordered_map<ExprRef, ExprRef> Memo;
  return lowerArraysImpl(E, Budget, Work, Memo);
}

//===----------------------------------------------------------------------===//
// Queries
//===----------------------------------------------------------------------===//

QueryResult ConstraintSolver::checkSat(const std::vector<ExprRef> &Assertions,
                                       uint64_t BudgetOverride) {
  obs::ScopedSpan Span("solver.check_sat", "solver");
  Span.arg("assertions", Assertions.size());
  Stopwatch QueryTimer;
  QueryResult R = checkSatCaching(Assertions, BudgetOverride);
  QueryMetrics::get().record(R.Status, R.WorkUsed, Assertions.size(),
                             QueryTimer.seconds());
  Span.arg("status", queryStatusName(R.Status));
  Span.arg("work", R.WorkUsed);
  return R;
}

QueryResult
ConstraintSolver::checkSatCaching(const std::vector<ExprRef> &Assertions,
                                  uint64_t BudgetOverride) {
  uint64_t Budget = BudgetOverride ? BudgetOverride : Config.WorkBudget;
  bool Deterministic = true;
  if (!Config.SharedCache)
    return checkSatUncached(Assertions, Budget, Deterministic);

  QueryDigest D = SolverResultCache::digestQuery(
      Ctx, Assertions, /*Enumerated=*/nullptr, /*MaxCount=*/0, Budget,
      Config.ConflictCost, Config.PropagationCost);
  CachedQueryResult Cached;
  if (Config.SharedCache->lookup(D, Cached)) {
    // Guard against digest collisions: a Sat hit must actually satisfy the
    // assertions (cheap — evaluation, not solving). Unsat/Timeout hits rely
    // on the 128-bit digest.
    bool Valid = true;
    if (Cached.Status == QueryStatus::Sat)
      for (ExprRef A : Assertions)
        if (!Ctx.evaluate(A, Cached.Model)) {
          Valid = false;
          break;
        }
    if (Valid) {
      // Replay the totals a fresh solve would have charged, so stall
      // accounting is identical with and without the cache.
      ++Totals.Queries;
      switch (Cached.Status) {
      case QueryStatus::Sat:     ++Totals.SatQueries; break;
      case QueryStatus::Unsat:   ++Totals.UnsatQueries; break;
      case QueryStatus::Timeout: ++Totals.Timeouts; break;
      }
      Totals.TotalWork += Cached.WorkUsed;
      QueryResult R;
      R.Status = Cached.Status;
      R.Model = std::move(Cached.Model);
      R.WorkUsed = Cached.WorkUsed;
      return R;
    }
  }

  QueryResult R = checkSatUncached(Assertions, Budget, Deterministic);
  if (Deterministic) {
    CachedQueryResult Entry;
    Entry.Status = R.Status;
    Entry.Model = R.Model;
    Entry.WorkUsed = R.WorkUsed;
    Config.SharedCache->insert(D, Entry);
  }
  return R;
}

QueryResult
ConstraintSolver::checkSatUncached(const std::vector<ExprRef> &Assertions,
                                   uint64_t Budget, bool &Deterministic) {
  ++Totals.Queries;
  Deterministic = true;
  uint64_t Work = 0;
  QueryResult R;

  // Lower all assertions to array-free form. The sub-span splits a
  // query's CPU between lowering and CDCL search in phase profiles.
  std::unordered_map<ExprRef, ExprRef> Memo;
  std::vector<ExprRef> Lowered;
  Lowered.reserve(Assertions.size());
  std::optional<obs::ScopedSpan> LowerSpan;
  LowerSpan.emplace("solver.lower", "solver");
  for (ExprRef A : Assertions) {
    assert(A->getWidth() == 1 && "assertion must be boolean");
    if (A->isTrue())
      continue;
    if (A->isFalse()) {
      ++Totals.UnsatQueries;
      R.Status = QueryStatus::Unsat;
      R.WorkUsed = Work;
      Totals.TotalWork += Work;
      return R;
    }
    ExprRef L = lowerArraysImpl(A, Budget, Work, Memo);
    if (!L) {
      ++Totals.Timeouts;
      R.Status = QueryStatus::Timeout;
      R.WorkUsed = Work;
      Totals.TotalWork += Work;
      return R;
    }
    if (L->isFalse()) {
      ++Totals.UnsatQueries;
      R.Status = QueryStatus::Unsat;
      R.WorkUsed = Work;
      Totals.TotalWork += Work;
      return R;
    }
    if (!L->isTrue())
      Lowered.push_back(L);
  }
  LowerSpan->arg("work", Work);
  LowerSpan.reset();
  Totals.MaxLoweredNodes = std::max(Totals.MaxLoweredNodes,
                                    Ctx.getStats().NodesCreated);

  static const bool Debug = std::getenv("ER_SOLVER_DEBUG") != nullptr;
  if (Debug)
    std::fprintf(stderr, "[solver] lowered %zu asserts, work=%llu\n",
                 Lowered.size(), (unsigned long long)Work);

  // Bit-blast and solve on the retained pair, reset to its fresh state.
  SatSolver &Sat = *this->Sat;
  BitBlaster &Blaster = *this->Blaster;
  Sat.reset();
  Blaster.reset(Budget > Work ? Budget - Work : 0);
  bool Ok = true;
  {
    obs::ScopedSpan BlastSpan("solver.blast", "solver");
    for (ExprRef L : Lowered)
      Ok = Blaster.assertTrue(L) && Ok;
    BlastSpan.arg("vars", Sat.numVars());
    BlastSpan.arg("clauses", Sat.numClauses());
  }
  Work += Blaster.gatesUsed();
  if (Debug)
    std::fprintf(stderr, "[solver] blasted: gates=%llu vars=%u clauses=%llu ok=%d\n",
                 (unsigned long long)Blaster.gatesUsed(), Sat.numVars(),
                 (unsigned long long)Sat.numClauses(), Ok);
  if (!Ok || Work >= Budget) {
    ++Totals.Timeouts;
    R.Status = QueryStatus::Timeout;
    R.WorkUsed = Work;
    Totals.TotalWork += Work;
    return R;
  }

  SatBudget SB;
  SB.MaxConflicts = (Budget - Work) / Config.ConflictCost;
  SB.MaxPropagations = (Budget - Work) / Config.PropagationCost;
  if (Config.WallSecondsBudget > 0)
    SB.Deadline = std::chrono::steady_clock::now() +
                  std::chrono::milliseconds(
                      static_cast<long>(Config.WallSecondsBudget * 1000));
  uint64_t ConflictsBefore = Sat.getStats().Conflicts;
  uint64_t PropsBefore = Sat.getStats().Propagations;
  SatStatus S;
  bool WallBackstop = false;
  {
    obs::ScopedSpan SatSpan("solver.sat_search", "solver");
    S = Sat.solve(SB);
    // Unknown from the deterministic conflict/propagation caps is a
    // reproducible outcome; Unknown from the wall-clock deadline is not.
    WallBackstop =
        S == SatStatus::Unknown &&
        Sat.getStats().Conflicts - ConflictsBefore <= SB.MaxConflicts &&
        Sat.getStats().Propagations - PropsBefore <= SB.MaxPropagations;
    if (WallBackstop)
      QueryMetrics::get().recordWallBackstop(SatSpan);
  }
  if (Debug)
    std::fprintf(stderr, "[solver] solved: status=%d conflicts=%llu props=%llu\n",
                 (int)S, (unsigned long long)Sat.getStats().Conflicts,
                 (unsigned long long)Sat.getStats().Propagations);
  Work += Sat.getStats().Conflicts * Config.ConflictCost;
  R.WorkUsed = Work;
  Totals.TotalWork += Work;

  switch (S) {
  case SatStatus::Sat: {
    ++Totals.SatQueries;
    R.Status = QueryStatus::Sat;
    Blaster.extractAssignment(R.Model);
    // Cross-check the model against the original (array-level) assertions;
    // a mismatch indicates a solver bug, not a user error.
    for (ExprRef A : Assertions)
      if (!Ctx.evaluate(A, R.Model))
        fatalError("solver model does not satisfy assertion: " +
                   Ctx.toString(A));
    return R;
  }
  case SatStatus::Unsat:
    ++Totals.UnsatQueries;
    R.Status = QueryStatus::Unsat;
    return R;
  case SatStatus::Unknown:
    ++Totals.Timeouts;
    R.Status = QueryStatus::Timeout;
    Deterministic = !WallBackstop;
    return R;
  }
  fatalError("unknown SAT status");
}

//===----------------------------------------------------------------------===//
// Incremental session
//===----------------------------------------------------------------------===//
//
// The session mirrors checkSatCaching/checkSatUncached stage for stage; the
// only difference is *which work is physically redone*. Byte-identity rests
// on one invariant, re-established at every commit point: the retained
// state (lowering memo, lowered prefix, blaster gate cache, SAT-core
// snapshot including its statistics) equals the state a fresh solve of
// PrevAssertions would reach just before its CDCL search. Work accounting
// then falls out of the *absolute* counters — gatesUsed() accumulates to
// the fresh total across the session, and the restored SatStats make the
// fresh `Conflicts * ConflictCost` charge and the deadline-check cadence
// exact. Any call that exits the pipeline early (lowering abort, lowered-
// to-false, gate latch) leaves no consistent full-list state behind and
// invalidates the session; the result it returns is still fresh-equal.

namespace {
struct IncrMetrics {
  obs::Counter &Calls, &Extensions, &Rebuilds, &CacheHits, &WorkReused;
  static IncrMetrics &get() {
    auto &Reg = obs::MetricsRegistry::global();
    static IncrMetrics M{Reg.counter("solver.incr.calls"),
                         Reg.counter("solver.incr.extensions"),
                         Reg.counter("solver.incr.rebuilds"),
                         Reg.counter("solver.incr.cache_hits"),
                         Reg.counter("solver.incr.work_reused")};
    return M;
  }
};
} // namespace

IncrementalSession::IncrementalSession(ConstraintSolver &Solver)
    : S(Solver), Sat(std::make_unique<SatSolver>()),
      Blaster(std::make_unique<BitBlaster>(Solver.Ctx, *Sat, 0)) {}
IncrementalSession::~IncrementalSession() = default;

void IncrementalSession::reset() {
  Snap.reset();
  PrevAssertions.clear();
  LoweredPrefix.clear();
  Memo.clear();
  LowerWork = 0;
  LowerExpansions = 0;
  Primed = false;
}

QueryResult
IncrementalSession::checkSat(const std::vector<ExprRef> &Assertions,
                             uint64_t BudgetOverride) {
  obs::ScopedSpan Span("solver.check_sat", "solver");
  Span.arg("assertions", Assertions.size());
  Span.arg("incremental", static_cast<uint64_t>(1));
  Stopwatch QueryTimer;
  ++Stats.Calls;
  IncrMetrics::get().Calls.inc();
  QueryResult R = checkSatCaching(Assertions, BudgetOverride);
  QueryMetrics::get().record(R.Status, R.WorkUsed, Assertions.size(),
                             QueryTimer.seconds());
  Span.arg("status", queryStatusName(R.Status));
  Span.arg("work", R.WorkUsed);
  return R;
}

QueryResult
IncrementalSession::checkSatCaching(const std::vector<ExprRef> &Assertions,
                                    uint64_t BudgetOverride) {
  uint64_t Budget = BudgetOverride ? BudgetOverride : S.Config.WorkBudget;
  bool Deterministic = true;
  if (!S.Config.SharedCache)
    return solveImpl(Assertions, Budget, Deterministic);

  QueryDigest D = SolverResultCache::digestQuery(
      S.Ctx, Assertions, /*Enumerated=*/nullptr, /*MaxCount=*/0, Budget,
      S.Config.ConflictCost, S.Config.PropagationCost);
  CachedQueryResult Cached;
  if (S.Config.SharedCache->lookup(D, Cached)) {
    bool Valid = true;
    if (Cached.Status == QueryStatus::Sat)
      for (ExprRef A : Assertions)
        if (!S.Ctx.evaluate(A, Cached.Model)) {
          Valid = false;
          break;
        }
    if (Valid) {
      // Answered without touching the retained state: a later extension
      // still extends whatever prefix the session holds.
      ++Stats.CacheHits;
      IncrMetrics::get().CacheHits.inc();
      ++S.Totals.Queries;
      switch (Cached.Status) {
      case QueryStatus::Sat:     ++S.Totals.SatQueries; break;
      case QueryStatus::Unsat:   ++S.Totals.UnsatQueries; break;
      case QueryStatus::Timeout: ++S.Totals.Timeouts; break;
      }
      S.Totals.TotalWork += Cached.WorkUsed;
      QueryResult R;
      R.Status = Cached.Status;
      R.Model = std::move(Cached.Model);
      R.WorkUsed = Cached.WorkUsed;
      return R;
    }
  }

  QueryResult R = solveImpl(Assertions, Budget, Deterministic);
  if (Deterministic) {
    CachedQueryResult Entry;
    Entry.Status = R.Status;
    Entry.Model = R.Model;
    Entry.WorkUsed = R.WorkUsed;
    S.Config.SharedCache->insert(D, Entry);
  }
  return R;
}

QueryResult
IncrementalSession::solveImpl(const std::vector<ExprRef> &Assertions,
                              uint64_t Budget, bool &Deterministic) {
  ++S.Totals.Queries;
  Deterministic = true;
  QueryResult R;

  bool Extension =
      Primed && PrevAssertions.size() <= Assertions.size() &&
      std::equal(PrevAssertions.begin(), PrevAssertions.end(),
                 Assertions.begin());
  // Prefix-lowering reuse is only fresh-equal if a fresh solve under THIS
  // budget would have survived lowering the prefix. Lowering work is
  // monotone, so the final prefix charge bounds every abort check a fresh
  // run performs along the way.
  if (Extension && LowerWork > Budget)
    Extension = false;

  uint64_t PrefixLowerWork = LowerWork;
  uint64_t PrefixGates = 0;
  size_t PrefixLen;
  uint64_t Work;
  if (Extension) {
    PrefixLen = PrevAssertions.size();
    Work = LowerWork;
  } else {
    reset();
    PrefixLen = 0;
    Work = 0;
  }

  // A fresh solve re-lowers the prefix and re-performs its expansions;
  // replay the committed count so Totals.ArrayExpansions stays fresh-equal.
  if (Extension)
    S.Totals.ArrayExpansions += LowerExpansions;
  uint64_t ExpBase = S.Totals.ArrayExpansions;

  // Lower the new suffix (the whole list on a rebuild). The retained memo
  // equals the memo a fresh solve holds after lowering the prefix, so the
  // per-node charges below are exactly the fresh ones.
  std::vector<ExprRef> NewLowered;
  std::optional<obs::ScopedSpan> LowerSpan;
  LowerSpan.emplace("solver.lower", "solver");
  for (size_t I = PrefixLen; I < Assertions.size(); ++I) {
    ExprRef A = Assertions[I];
    assert(A->getWidth() == 1 && "assertion must be boolean");
    if (A->isTrue())
      continue;
    if (A->isFalse()) {
      ++S.Totals.UnsatQueries;
      R.Status = QueryStatus::Unsat;
      R.WorkUsed = Work;
      S.Totals.TotalWork += Work;
      reset();
      return R;
    }
    ExprRef L = S.lowerArraysImpl(A, Budget, Work, Memo);
    if (!L) {
      ++S.Totals.Timeouts;
      R.Status = QueryStatus::Timeout;
      R.WorkUsed = Work;
      S.Totals.TotalWork += Work;
      reset();
      return R;
    }
    if (L->isFalse()) {
      ++S.Totals.UnsatQueries;
      R.Status = QueryStatus::Unsat;
      R.WorkUsed = Work;
      S.Totals.TotalWork += Work;
      reset();
      return R;
    }
    if (!L->isTrue())
      NewLowered.push_back(L);
  }
  LowerSpan->arg("work", Work);
  LowerSpan.reset();
  S.Totals.MaxLoweredNodes =
      std::max(S.Totals.MaxLoweredNodes, S.Ctx.getStats().NodesCreated);

  // Gate-budget reuse safety: a fresh solve meters ALL gates against
  // MaxGates = Budget - (total lowering work). The retained CNF replays
  // identically iff its gate count never tripped that latch, i.e. the
  // final prefix gate count fits the new allowance (gates are monotone).
  uint64_t MaxGates = Budget > Work ? Budget - Work : 0;
  PrefixGates = Extension ? Blaster->gatesUsed() : 0;
  bool Reused = false;
  if (Extension && PrefixGates <= MaxGates) {
    // Rewind the SAT core to the committed pre-search state and encode
    // only the suffix; gatesUsed() keeps accumulating to the fresh total.
    Sat->restore(*Snap);
    Blaster->setMaxGates(MaxGates);
    Reused = true;
  } else {
    // Either no retained state, or the new budget is too small for the
    // retained CNF (a fresh solve would have latched mid-prefix). Re-blast
    // from the lowered forms, which are still fresh-equal.
    Sat->reset();
    Blaster->reset(MaxGates);
  }

  bool Ok = true;
  {
    obs::ScopedSpan BlastSpan("solver.blast", "solver");
    if (!Reused)
      for (ExprRef L : LoweredPrefix)
        Ok = Blaster->assertTrue(L) && Ok;
    for (ExprRef L : NewLowered)
      Ok = Blaster->assertTrue(L) && Ok;
    BlastSpan.arg("vars", Sat->numVars());
    BlastSpan.arg("clauses", Sat->numClauses());
  }
  uint64_t NewLowerWork = Work;
  Work += Blaster->gatesUsed();
  if (!Ok || Work >= Budget) {
    ++S.Totals.Timeouts;
    R.Status = QueryStatus::Timeout;
    R.WorkUsed = Work;
    S.Totals.TotalWork += Work;
    // The latch poisons the blaster's gate cache with placeholder bits:
    // nothing here is reusable.
    reset();
    return R;
  }

  SatBudget SB;
  SB.MaxConflicts = (Budget - Work) / S.Config.ConflictCost;
  SB.MaxPropagations = (Budget - Work) / S.Config.PropagationCost;
  if (S.Config.WallSecondsBudget > 0)
    SB.Deadline = std::chrono::steady_clock::now() +
                  std::chrono::milliseconds(
                      static_cast<long>(S.Config.WallSecondsBudget * 1000));
  // Commit point: snapshot the pre-search core (the search below mutates
  // it; the next extension resumes from exactly here) and re-prime.
  Snap = std::make_unique<SatCheckpoint>(Sat->checkpoint());
  PrevAssertions = Assertions;
  LoweredPrefix.insert(LoweredPrefix.end(), NewLowered.begin(),
                       NewLowered.end());
  LowerWork = NewLowerWork;
  LowerExpansions += S.Totals.ArrayExpansions - ExpBase;
  Primed = true;
  if (Reused) {
    ++Stats.Extensions;
    Stats.WorkReused += PrefixLowerWork + PrefixGates;
    IncrMetrics::get().Extensions.inc();
    IncrMetrics::get().WorkReused.add(PrefixLowerWork + PrefixGates);
  } else {
    ++Stats.Rebuilds;
    IncrMetrics::get().Rebuilds.inc();
  }

  uint64_t ConflictsBefore = Sat->getStats().Conflicts;
  uint64_t PropsBefore = Sat->getStats().Propagations;
  SatStatus St;
  bool WallBackstop = false;
  {
    obs::ScopedSpan SatSpan("solver.sat_search", "solver");
    St = Sat->solve(SB);
    WallBackstop =
        St == SatStatus::Unknown &&
        Sat->getStats().Conflicts - ConflictsBefore <= SB.MaxConflicts &&
        Sat->getStats().Propagations - PropsBefore <= SB.MaxPropagations;
    if (WallBackstop)
      QueryMetrics::get().recordWallBackstop(SatSpan);
  }
  Work += Sat->getStats().Conflicts * S.Config.ConflictCost;
  R.WorkUsed = Work;
  S.Totals.TotalWork += Work;

  switch (St) {
  case SatStatus::Sat: {
    ++S.Totals.SatQueries;
    R.Status = QueryStatus::Sat;
    Blaster->extractAssignment(R.Model);
    for (ExprRef A : Assertions)
      if (!S.Ctx.evaluate(A, R.Model))
        fatalError("solver model does not satisfy assertion: " +
                   S.Ctx.toString(A));
    return R;
  }
  case SatStatus::Unsat:
    ++S.Totals.UnsatQueries;
    R.Status = QueryStatus::Unsat;
    return R;
  case SatStatus::Unknown:
    ++S.Totals.Timeouts;
    R.Status = QueryStatus::Timeout;
    Deterministic = !WallBackstop;
    return R;
  }
  fatalError("unknown SAT status");
}

QueryStatus ConstraintSolver::mustBeTrue(
    const std::vector<ExprRef> &Assertions, ExprRef E, bool &Result) {
  if (E->isTrue()) {
    Result = true;
    return QueryStatus::Sat;
  }
  std::vector<ExprRef> WithNeg = Assertions;
  WithNeg.push_back(Ctx.bvnot(E));
  QueryResult R = checkSat(WithNeg);
  if (R.Status == QueryStatus::Timeout)
    return QueryStatus::Timeout;
  Result = R.Status == QueryStatus::Unsat;
  return QueryStatus::Sat;
}

QueryStatus ConstraintSolver::enumerateValues(
    const std::vector<ExprRef> &Assertions, ExprRef E, unsigned MaxCount,
    std::vector<uint64_t> &Out, bool &Complete) {
  obs::ScopedSpan Span("solver.enumerate", "solver");
  Span.arg("assertions", Assertions.size());
  Span.arg("max_count", static_cast<uint64_t>(MaxCount));
  Stopwatch QueryTimer;
  uint64_t WorkBefore = Totals.TotalWork;
  QueryStatus S = enumerateValuesCaching(Assertions, E, MaxCount, Out,
                                         Complete);
  QueryMetrics::get().record(S, Totals.TotalWork - WorkBefore,
                             Assertions.size(), QueryTimer.seconds());
  Span.arg("status", queryStatusName(S));
  Span.arg("values", Out.size());
  return S;
}

QueryStatus ConstraintSolver::enumerateValuesCaching(
    const std::vector<ExprRef> &Assertions, ExprRef E, unsigned MaxCount,
    std::vector<uint64_t> &Out, bool &Complete) {
  Complete = false;
  if (E->isConst()) {
    Out.push_back(E->getConstVal());
    Complete = true;
    return QueryStatus::Sat;
  }

  uint64_t WorkUsed = 0;
  bool Deterministic = true;
  if (!Config.SharedCache)
    return enumerateValuesUncached(Assertions, E, MaxCount, Out, Complete,
                                   WorkUsed, Deterministic);

  QueryDigest D = SolverResultCache::digestQuery(
      Ctx, Assertions, E, MaxCount, Config.WorkBudget, Config.ConflictCost,
      Config.PropagationCost);
  CachedQueryResult Cached;
  if (Config.SharedCache->lookup(D, Cached)) {
    ++Totals.Queries;
    Totals.TotalWork += Cached.WorkUsed;
    if (Cached.Status == QueryStatus::Timeout)
      ++Totals.Timeouts;
    else
      ++Totals.SatQueries;
    Out.insert(Out.end(), Cached.Values.begin(), Cached.Values.end());
    Complete = Cached.Complete;
    return Cached.Status;
  }

  size_t OutStart = Out.size();
  QueryStatus S = enumerateValuesUncached(Assertions, E, MaxCount, Out,
                                          Complete, WorkUsed, Deterministic);
  if (Deterministic) {
    CachedQueryResult Entry;
    Entry.Status = S;
    Entry.Values.assign(Out.begin() + OutStart, Out.end());
    Entry.Complete = Complete;
    Entry.WorkUsed = WorkUsed;
    Config.SharedCache->insert(D, Entry);
  }
  return S;
}

QueryStatus ConstraintSolver::enumerateValuesUncached(
    const std::vector<ExprRef> &Assertions, ExprRef E, unsigned MaxCount,
    std::vector<uint64_t> &Out, bool &Complete, uint64_t &WorkUsed,
    bool &Deterministic) {
  Deterministic = true;
  ++Totals.Queries;
  uint64_t Budget = Config.WorkBudget;
  uint64_t Work = 0;

  std::unordered_map<ExprRef, ExprRef> Memo;
  std::vector<ExprRef> Lowered;
  std::optional<obs::ScopedSpan> LowerSpan;
  LowerSpan.emplace("solver.lower", "solver");
  for (ExprRef A : Assertions) {
    if (A->isTrue())
      continue;
    ExprRef L = lowerArraysImpl(A, Budget, Work, Memo);
    if (!L) {
      ++Totals.Timeouts;
      Totals.TotalWork += Work;
      WorkUsed = Work;
      return QueryStatus::Timeout;
    }
    if (!L->isTrue())
      Lowered.push_back(L);
  }
  ExprRef LE = lowerArraysImpl(E, Budget, Work, Memo);
  if (!LE) {
    ++Totals.Timeouts;
    Totals.TotalWork += Work;
    WorkUsed = Work;
    return QueryStatus::Timeout;
  }
  LowerSpan->arg("work", Work);
  LowerSpan.reset();
  if (LE->isConst()) {
    Out.push_back(LE->getConstVal());
    Complete = true;
    Totals.TotalWork += Work;
    ++Totals.SatQueries;
    WorkUsed = Work;
    return QueryStatus::Sat;
  }

  SatSolver &Sat = *this->Sat;
  BitBlaster &Blaster = *this->Blaster;
  Sat.reset();
  Blaster.reset(Budget > Work ? Budget - Work : 0);
  bool Ok;
  {
    obs::ScopedSpan BlastSpan("solver.blast", "solver");
    Ok = Blaster.encode(LE);
    for (ExprRef L : Lowered)
      Ok = Blaster.assertTrue(L) && Ok;
    BlastSpan.arg("vars", Sat.numVars());
    BlastSpan.arg("clauses", Sat.numClauses());
  }
  Work += Blaster.gatesUsed();
  if (!Ok || Work >= Budget) {
    ++Totals.Timeouts;
    Totals.TotalWork += Work;
    WorkUsed = Work;
    return QueryStatus::Timeout;
  }

  auto WallDeadline =
      std::chrono::steady_clock::now() +
      std::chrono::milliseconds(
          static_cast<long>(Config.WallSecondsBudget * 1000));
  obs::ScopedSpan SatSpan("solver.sat_search", "solver");
  for (unsigned Iter = 0; Iter < MaxCount; ++Iter) {
    SatBudget SB;
    SB.MaxConflicts = (Budget - Work) / Config.ConflictCost;
    SB.MaxPropagations = (Budget - Work) / Config.PropagationCost;
    if (Config.WallSecondsBudget > 0)
      SB.Deadline = WallDeadline;
    uint64_t ConflictsBefore = Sat.getStats().Conflicts;
    uint64_t PropsBefore = Sat.getStats().Propagations;
    SatStatus S = Sat.solve(SB);
    Work += (Sat.getStats().Conflicts - ConflictsBefore) * Config.ConflictCost;
    if (S == SatStatus::Unknown || Work >= Budget) {
      ++Totals.Timeouts;
      Totals.TotalWork += Work;
      WorkUsed = Work;
      // As in checkSat: only the deterministic caps make a Timeout
      // memoizable; Unknown from the wall deadline must not be cached.
      Deterministic =
          Work >= Budget ||
          Sat.getStats().Conflicts - ConflictsBefore > SB.MaxConflicts ||
          Sat.getStats().Propagations - PropsBefore > SB.MaxPropagations;
      if (!Deterministic)
        QueryMetrics::get().recordWallBackstop(SatSpan);
      return QueryStatus::Timeout;
    }
    if (S == SatStatus::Unsat) {
      Complete = true;
      break;
    }
    uint64_t V = Blaster.valueOf(LE);
    Out.push_back(V);
    Blaster.blockValue(LE, V);
  }
  Totals.TotalWork += Work;
  ++Totals.SatQueries;
  WorkUsed = Work;
  return QueryStatus::Sat;
}
