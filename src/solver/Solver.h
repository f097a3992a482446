//===- Solver.h - Budgeted bitvector/array constraint solver ----*- C++ -*-===//
///
/// \file
/// The query interface used by shepherded symbolic execution. A query is a
/// conjunction of boolean expressions over bitvectors and arrays; the solver
/// eliminates array terms (read-over-write expansion and symbolic-index
/// case splits), bit-blasts the result, and runs the CDCL core.
///
/// Every query runs under a deterministic work budget charged by array
/// expansion fan-out, gates encoded, and SAT conflicts. Budget exhaustion is
/// reported as QueryStatus::Timeout — the stall signal at the center of the
/// ER paper: queries over long symbolic write chains or large symbolic
/// objects are exactly the ones that exhaust it.
///
//===----------------------------------------------------------------------===//

#ifndef ER_SOLVER_SOLVER_H
#define ER_SOLVER_SOLVER_H

#include "solver/Expr.h"

#include <cstdint>
#include <memory>
#include <vector>

namespace er {

class SolverResultCache; // SolverCache.h
class SatSolver;         // Sat.h
struct SatCheckpoint;    // Sat.h
class BitBlaster;        // BitBlaster.h

/// Outcome of one solver query.
enum class QueryStatus { Sat, Unsat, Timeout };

const char *queryStatusName(QueryStatus S);

/// Tuning knobs for the solver; WorkBudget is the stall threshold.
struct SolverConfig {
  /// Total abstract work units a single query may consume. Array expansions
  /// charge (chain length + domain size) x element width; gates charge 1;
  /// SAT conflicts charge ConflictCost.
  uint64_t WorkBudget = 4'000'000;
  /// Work units charged per SAT conflict.
  uint64_t ConflictCost = 64;
  /// Work units charged per SAT propagation.
  uint64_t PropagationCost = 1;
  /// Wall-clock ceiling per query, in seconds (the analog of the paper's
  /// 30s solver timeout; a backstop over the deterministic work budget).
  double WallSecondsBudget = 5.0;
  /// Optional shared memoization cache consulted by checkSat and
  /// enumerateValues. The cache is thread-safe and may be shared across
  /// solvers on different threads (the fleet scheduler shares one across
  /// all campaigns); it is not owned and must outlive the solver. Cached
  /// answers are byte-identical to fresh solves, so enabling the cache
  /// never changes reconstruction results — only their cost.
  SolverResultCache *SharedCache = nullptr;
};

/// Result of a checkSat query.
struct QueryResult {
  QueryStatus Status = QueryStatus::Timeout;
  Assignment Model; ///< Valid when Status == Sat.
  uint64_t WorkUsed = 0;
};

/// Cumulative statistics across queries.
struct SolverTotals {
  uint64_t Queries = 0;
  uint64_t SatQueries = 0;
  uint64_t UnsatQueries = 0;
  uint64_t Timeouts = 0;
  uint64_t TotalWork = 0;
  uint64_t ArrayExpansions = 0;
  uint64_t MaxLoweredNodes = 0;
};

/// Budgeted solver for conjunctions of constraints.
class ConstraintSolver {
public:
  ConstraintSolver(ExprContext &Ctx, SolverConfig Config = SolverConfig());
  ~ConstraintSolver();

  /// Decides satisfiability of the conjunction of \p Assertions. On Sat,
  /// the result carries a model assigning every free variable the encoding
  /// touched. \p BudgetOverride (if nonzero) replaces the configured budget
  /// for this query only.
  QueryResult checkSat(const std::vector<ExprRef> &Assertions,
                       uint64_t BudgetOverride = 0);

  /// Returns Unsat if \p E is implied by \p Assertions (i.e. assertions and
  /// !E are inconsistent); Sat if a counterexample exists.
  QueryStatus mustBeTrue(const std::vector<ExprRef> &Assertions, ExprRef E,
                         bool &Result);

  /// Enumerates up to \p MaxCount feasible values of \p E under the
  /// assertions into \p Out. Sets \p Complete when the enumeration provably
  /// covered all feasible values. Returns Timeout if the budget ran out.
  QueryStatus enumerateValues(const std::vector<ExprRef> &Assertions,
                              ExprRef E, unsigned MaxCount,
                              std::vector<uint64_t> &Out, bool &Complete);

  const SolverTotals &getTotals() const { return Totals; }
  const SolverConfig &getConfig() const { return Config; }
  void setConfig(const SolverConfig &C) { Config = C; }

  /// Rewrites \p E into an array-free form (exposed for tests). Returns
  /// nullptr if \p Budget is exhausted mid-rewrite; \p Work accumulates the
  /// charge.
  ExprRef lowerArrays(ExprRef E, uint64_t Budget, uint64_t &Work);

private:
  /// checkSat behind the public entry point (which only adds telemetry —
  /// a query-time histogram and a pipeline span; see docs/OBSERVABILITY.md).
  QueryResult checkSatCaching(const std::vector<ExprRef> &Assertions,
                              uint64_t BudgetOverride);
  QueryStatus enumerateValuesCaching(const std::vector<ExprRef> &Assertions,
                                     ExprRef E, unsigned MaxCount,
                                     std::vector<uint64_t> &Out,
                                     bool &Complete);

  /// The actual solve behind checkSat. \p Deterministic is cleared when the
  /// outcome depended on the wall-clock backstop (such results must not be
  /// memoized).
  QueryResult checkSatUncached(const std::vector<ExprRef> &Assertions,
                               uint64_t Budget, bool &Deterministic);
  QueryStatus enumerateValuesUncached(const std::vector<ExprRef> &Assertions,
                                      ExprRef E, unsigned MaxCount,
                                      std::vector<uint64_t> &Out,
                                      bool &Complete, uint64_t &WorkUsed,
                                      bool &Deterministic);

  ExprRef lowerArraysImpl(ExprRef E, uint64_t Budget, uint64_t &Work,
                          std::unordered_map<ExprRef, ExprRef> &Memo);
  ExprRef lowerRead(ExprRef Array, ExprRef Index, uint64_t Budget,
                    uint64_t &Work,
                    std::unordered_map<ExprRef, ExprRef> &Memo);

  friend class IncrementalSession;

  ExprContext &Ctx;
  SolverConfig Config;
  SolverTotals Totals;
  /// One SAT core and blaster serve every uncached query: each query resets
  /// them to their freshly constructed state, so results are those of a
  /// new pair, without re-growing their buffers per query.
  std::unique_ptr<SatSolver> Sat;
  std::unique_ptr<BitBlaster> Blaster;
};

/// Counters for one incremental session (surfaced per campaign and
/// mirrored into the solver.incr.* registry metrics).
struct IncrementalStats {
  uint64_t Calls = 0;
  /// Calls served by extending the retained CNF of a pointer-equal
  /// assertion-list prefix (including re-solves of the identical list).
  uint64_t Extensions = 0;
  /// Calls that rebuilt from scratch: a non-extension list, a first call,
  /// or a budget under which the retained prefix state is not reuse-safe.
  uint64_t Rebuilds = 0;
  /// Calls answered by the shared result cache (session state untouched).
  uint64_t CacheHits = 0;
  /// Work units of prefix lowering + gate encoding the session charged to
  /// WorkUsed (for accounting parity) but did not physically redo.
  uint64_t WorkReused = 0;
};

/// Incremental checkSat across a sequence of related queries.
///
/// ER's reoccurrence loop asks the solver a stream of queries where each
/// assertion list typically *extends* the previous one: iteration k+1's
/// path constraint grows iteration k's, and the input-size pin solve adds
/// one equality to the final solve's list. Hash-consing makes extension
/// detection O(n) pointer compares; on a match the session reuses the
/// retained array lowering, CNF, and SAT-core snapshot and pays only for
/// the new suffix. Any non-extension (or a budget under which reuse is
/// not provably equivalent) falls back to a fresh solve.
///
/// Results are byte-identical to ConstraintSolver::checkSat either way —
/// status, model, WorkUsed, and the solver totals all match a fresh solve
/// exactly (the differential suite in tests/SolverTest.cpp holds this
/// across the Table-1 workloads and the generated corpus; the reuse-safety
/// argument is spelled out in docs/SOLVER.md). Not thread-safe: one
/// session per campaign, like the ConstraintSolver it wraps.
class IncrementalSession {
public:
  explicit IncrementalSession(ConstraintSolver &Solver);
  ~IncrementalSession();

  /// Drop-in replacement for ConstraintSolver::checkSat on the same
  /// solver: identical results, identical totals/telemetry accounting,
  /// identical shared-cache interaction.
  QueryResult checkSat(const std::vector<ExprRef> &Assertions,
                       uint64_t BudgetOverride = 0);

  /// Drops all retained state; the next call rebuilds from scratch.
  void reset();

  const IncrementalStats &getStats() const { return Stats; }

private:
  QueryResult checkSatCaching(const std::vector<ExprRef> &Assertions,
                              uint64_t BudgetOverride);
  QueryResult solveImpl(const std::vector<ExprRef> &Assertions,
                        uint64_t Budget, bool &Deterministic);

  ConstraintSolver &S;
  /// Retained pipeline state, valid when Primed: PrevAssertions is the
  /// committed list, LoweredPrefix its lowered non-trivial forms in order,
  /// Memo the lowering memo a fresh solve of PrevAssertions would hold,
  /// LowerWork that solve's pure lowering charge, and Snap the SAT core
  /// exactly as it stood before PrevAssertions' search began. Sat and
  /// Blaster live as long as the session; a rebuild resets them.
  std::unique_ptr<SatSolver> Sat;
  std::unique_ptr<BitBlaster> Blaster;
  std::unique_ptr<SatCheckpoint> Snap;
  std::vector<ExprRef> PrevAssertions;
  std::vector<ExprRef> LoweredPrefix;
  std::unordered_map<ExprRef, ExprRef> Memo;
  uint64_t LowerWork = 0;
  /// Array expansions performed while lowering the committed prefix; a
  /// fresh solve re-performs them, so extensions replay the count into
  /// SolverTotals to keep the totals byte-identical.
  uint64_t LowerExpansions = 0;
  bool Primed = false;
  IncrementalStats Stats;
};

} // namespace er

#endif // ER_SOLVER_SOLVER_H
