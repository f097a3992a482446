//===- Sat.h - CDCL SAT solver ----------------------------------*- C++ -*-===//
///
/// \file
/// A from-scratch CDCL SAT solver: two-watched-literal propagation, first-UIP
/// clause learning, VSIDS branching with an order heap, phase saving, and
/// Luby restarts. The bit-blaster lowers bitvector queries to CNF and solves
/// them here.
///
/// The solver is budgeted: a conflict/propagation budget models the paper's
/// solver timeouts deterministically. Exceeding it yields Unknown, which the
/// symbolic executor reports as a stall.
///
//===----------------------------------------------------------------------===//

#ifndef ER_SOLVER_SAT_H
#define ER_SOLVER_SAT_H

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace er {

/// A literal: variable index (1-based) with sign. Encoded as 2*var + sign.
class Lit {
public:
  Lit() = default;
  Lit(unsigned Var, bool Negated) : Code(2 * Var + (Negated ? 1 : 0)) {}

  unsigned var() const { return Code >> 1; }
  bool negated() const { return Code & 1; }
  Lit operator~() const {
    Lit L;
    L.Code = Code ^ 1;
    return L;
  }
  bool operator==(const Lit &O) const { return Code == O.Code; }
  bool operator!=(const Lit &O) const { return Code != O.Code; }
  unsigned code() const { return Code; }

private:
  unsigned Code = 0;
};

/// Outcome of a SAT query.
enum class SatStatus { Sat, Unsat, Unknown };

/// Budget limiting SAT search effort; exhausting any limit aborts the search
/// with SatStatus::Unknown.
struct SatBudget {
  uint64_t MaxConflicts = UINT64_MAX;
  uint64_t MaxPropagations = UINT64_MAX;
  /// Wall-clock deadline (the paper's solver timeout is wall time); zero
  /// time_point = no deadline.
  std::chrono::steady_clock::time_point Deadline{};
};

/// Search statistics accumulated across solve() calls.
struct SatStats {
  uint64_t Conflicts = 0;
  uint64_t Decisions = 0;
  uint64_t Propagations = 0;
  uint64_t Restarts = 0;
  uint64_t LearnedClauses = 0;
};

struct SatCheckpoint; // Defined after SatSolver.

/// CDCL SAT solver over CNF added via addClause().
///
/// Clauses live back to back in one literal arena; a Clause is a slice of
/// it. Adding a clause copies its literals into the arena and allocates
/// nothing else once the solver's buffers have grown, and reset() returns
/// the solver to its freshly constructed state while keeping every buffer,
/// so one solver can serve a stream of unrelated queries.
class SatSolver {
public:
  SatSolver();

  /// Returns the solver to exactly the state of a freshly constructed one
  /// (no variables or clauses, zeroed statistics, no deadline) but keeps
  /// the capacity of its buffers. A search after reset() is bit-identical
  /// to the same search on a new solver.
  void reset();

  /// Allocates a fresh variable; returns its index (>= 1).
  unsigned newVar();
  unsigned numVars() const { return NumVars; }
  uint64_t numClauses() const { return Clauses.size(); }

  /// Adds a clause (disjunction of the \p N literals at \p Lits). An empty
  /// clause makes the instance trivially unsatisfiable. The literals are
  /// copied; the caller's buffer is not retained.
  void addClause(const Lit *Lits, size_t N);
  void addClause(const std::vector<Lit> &Clause) {
    addClause(Clause.data(), Clause.size());
  }
  void addUnit(Lit L) { addClause(&L, 1); }
  void addBinary(Lit A, Lit B) {
    const Lit C[] = {A, B};
    addClause(C, 2);
  }
  void addTernary(Lit A, Lit B, Lit C) {
    const Lit T[] = {A, B, C};
    addClause(T, 3);
  }

  /// Runs CDCL search under \p Budget, with optional extra assumptions.
  SatStatus solve(const SatBudget &Budget,
                  const std::vector<Lit> &Assumptions = {});

  /// After Sat: returns the value assigned to \p Var.
  bool modelValue(unsigned Var) const;

  const SatStats &getStats() const { return Stats; }

  /// Copies the solver's entire mutable state — the clause arena (learned
  /// clauses included), the watch lists, assignment trail, VSIDS
  /// heap/activities, saved phases, and the statistics counters. restore()
  /// rewinds to that state bit for bit, so a search run after a restore
  /// proceeds exactly as if the intervening solve() calls and clause
  /// additions never happened. This is the mechanism behind
  /// IncrementalSession's byte-identical reuse of an already-blasted CNF
  /// prefix (docs/SOLVER.md): the statistics are part of the snapshot
  /// because downstream work accounting and the deadline-check cadence
  /// read the *absolute* counters.
  SatCheckpoint checkpoint() const;
  void restore(const SatCheckpoint &C);

  enum class LBool : int8_t { False = 0, True = 1, Undef = 2 };

  /// A clause: Size literals starting at Arena[Start]. Original and learned
  /// clauses share the arena in the order they were added.
  struct Clause {
    unsigned Start;
    unsigned Size;
    bool Learned;
  };

  struct Watcher {
    unsigned ClauseIdx;
    Lit Blocker;
  };

private:
  LBool litValue(Lit L) const;
  bool assign(Lit L, int Reason);
  int propagate();
  void analyze(int ConflictClause, std::vector<Lit> &Learned,
               unsigned &BtLevel);
  void backtrack(unsigned Level);
  Lit pickBranchLit();
  void bumpVar(unsigned Var);
  void attachClause(unsigned Idx);
  void appendClause(const Lit *Lits, size_t N, bool Learned);
  static uint64_t luby(uint64_t I);

  // Order-heap operations (max-heap on Activity).
  void heapInsert(unsigned Var);
  void heapUpdate(unsigned Var);
  unsigned heapPop();
  void heapSiftUp(size_t Pos);
  void heapSiftDown(size_t Pos);
  bool heapEmpty() const { return Heap.empty(); }

  unsigned NumVars = 0;
  unsigned DecisionLevel = 0;
  std::vector<Clause> Clauses;
  std::vector<Lit> Arena;                    // Literals of every clause.
  /// Indexed by literal code. Lists past the live variables are empty and
  /// kept only for their capacity (see reset()).
  std::vector<std::vector<Watcher>> Watches;
  std::vector<LBool> Values;                 // Indexed by var.
  std::vector<int> Reasons;                  // Clause index or -1 (decision).
  std::vector<unsigned> Levels;              // Decision level per var.
  std::vector<bool> SavedPhase;
  std::vector<double> Activity;
  std::vector<Lit> Trail;
  std::vector<unsigned> TrailLims;
  std::vector<unsigned> Heap;    // Var indices, max-heap by activity.
  std::vector<int> HeapPos;      // Var -> heap slot or -1.
  std::vector<uint8_t> Seen;     // Scratch for analyze().
  std::vector<Lit> ClauseBuf;    // Scratch for addClause() and analyze().
  size_t PropHead = 0;
  double VarInc = 1.0;
  bool Unsatisfiable = false;
  SatStats Stats;
  // Wall deadline state for the current solve() (checked inside propagate,
  // since a single propagation closure can dominate wall time).
  std::chrono::steady_clock::time_point CurDeadline{};
  bool TimedOut = false;
};

/// A full snapshot of a SatSolver (see SatSolver::checkpoint). Opaque to
/// callers: create with checkpoint(), consume with restore(). The copy is
/// O(clause database) in a fixed number of flat buffers: the clause arena
/// and headers as they are, and the watch lists laid end to end with one
/// end offset per literal — cheap next to re-blasting the CNF it preserves.
struct SatCheckpoint {
  unsigned NumVars = 0;
  unsigned DecisionLevel = 0;
  std::vector<SatSolver::Clause> Clauses;
  std::vector<Lit> Arena;
  std::vector<SatSolver::Watcher> WatchLists; // Live watch lists, in order.
  std::vector<size_t> WatchEnds;              // End of each in WatchLists.
  std::vector<SatSolver::LBool> Values;
  std::vector<int> Reasons;
  std::vector<unsigned> Levels;
  std::vector<bool> SavedPhase;
  std::vector<double> Activity;
  std::vector<Lit> Trail;
  std::vector<unsigned> TrailLims;
  std::vector<unsigned> Heap;
  std::vector<int> HeapPos;
  std::vector<uint8_t> Seen;
  size_t PropHead = 0;
  double VarInc = 1.0;
  bool Unsatisfiable = false;
  SatStats Stats;
};

} // namespace er

#endif // ER_SOLVER_SAT_H
