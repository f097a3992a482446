//===- Sat.cpp - CDCL SAT solver implementation ---------------------------===//

#include "solver/Sat.h"

#include "obs/Metrics.h"
#include "support/Error.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cstdio>
#include <cstdlib>

using namespace er;

namespace {
/// Records one CDCL search into the process-wide histograms on every exit
/// path of solve(). A solve is milliseconds to seconds of work; two clock
/// reads and a few relaxed atomics are noise.
struct SolveTelemetry {
  std::chrono::steady_clock::time_point Start;
  const SatStats &Stats;
  uint64_t ConflictsBefore;

  explicit SolveTelemetry(const SatStats &Stats)
      : Start(std::chrono::steady_clock::now()), Stats(Stats),
        ConflictsBefore(Stats.Conflicts) {}

  ~SolveTelemetry() {
    auto &Reg = obs::MetricsRegistry::global();
    static obs::Histogram &WallUs =
        Reg.histogram("sat.solve.us", obs::exponentialBounds(1, 22, 2));
    static obs::Histogram &Conflicts =
        Reg.histogram("sat.solve.conflicts", obs::exponentialBounds(1, 20, 2));
    static obs::Counter &Solves = Reg.counter("sat.solves");
    WallUs.record(static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - Start)
            .count()));
    Conflicts.record(Stats.Conflicts - ConflictsBefore);
    Solves.inc();
  }
};
} // namespace

SatSolver::SatSolver() : Watches(2) { reset(); }

void SatSolver::reset() {
  // Only the live watch lists can be non-empty; clearing keeps capacity.
  for (size_t I = 0, E = 2 * (static_cast<size_t>(NumVars) + 1); I < E; ++I)
    Watches[I].clear();
  NumVars = 0;
  DecisionLevel = 0;
  Clauses.clear();
  Arena.clear();
  // Var 0 is unused; literal codes start at 2.
  Values.assign(1, LBool::Undef);
  Reasons.assign(1, -1);
  Levels.assign(1, 0);
  SavedPhase.assign(1, false);
  Activity.assign(1, 0);
  HeapPos.assign(1, -1);
  Seen.assign(1, 0);
  Trail.clear();
  TrailLims.clear();
  Heap.clear();
  PropHead = 0;
  VarInc = 1.0;
  Unsatisfiable = false;
  Stats = SatStats();
  CurDeadline = {};
  TimedOut = false;
}

unsigned SatSolver::newVar() {
  ++NumVars;
  Values.push_back(LBool::Undef);
  Reasons.push_back(-1);
  Levels.push_back(0);
  SavedPhase.push_back(false);
  Activity.push_back(0);
  HeapPos.push_back(-1);
  Seen.push_back(0);
  // Past the high-water mark only: lists below it are empty and reusable.
  size_t LiveLits = 2 * (static_cast<size_t>(NumVars) + 1);
  if (Watches.size() < LiveLits)
    Watches.resize(LiveLits);
  heapInsert(NumVars);
  return NumVars;
}

SatSolver::LBool SatSolver::litValue(Lit L) const {
  LBool V = Values[L.var()];
  if (V == LBool::Undef)
    return LBool::Undef;
  bool B = (V == LBool::True) != L.negated();
  return B ? LBool::True : LBool::False;
}

bool SatSolver::assign(Lit L, int Reason) {
  LBool Cur = litValue(L);
  if (Cur == LBool::False)
    return false;
  if (Cur == LBool::True)
    return true;
  Values[L.var()] = L.negated() ? LBool::False : LBool::True;
  Reasons[L.var()] = Reason;
  Levels[L.var()] = DecisionLevel;
  Trail.push_back(L);
  return true;
}

void SatSolver::attachClause(unsigned Idx) {
  const Clause &C = Clauses[Idx];
  assert(C.Size >= 2 && "attaching short clause");
  const Lit *Lits = &Arena[C.Start];
  Watches[(~Lits[0]).code()].push_back({Idx, Lits[1]});
  Watches[(~Lits[1]).code()].push_back({Idx, Lits[0]});
}

void SatSolver::appendClause(const Lit *Lits, size_t N, bool Learned) {
  if (Arena.size() + N > UINT32_MAX)
    fatalError("SAT clause arena exceeds 2^32 literals");
  Clauses.push_back({static_cast<unsigned>(Arena.size()),
                     static_cast<unsigned>(N), Learned});
  Arena.insert(Arena.end(), Lits, Lits + N);
  attachClause(static_cast<unsigned>(Clauses.size() - 1));
}

void SatSolver::addClause(const Lit *Lits, size_t N) {
  if (Unsatisfiable)
    return;
  // Clauses are filtered against root-level assignments only, so return to
  // the root first (e.g. when blocking a model between solve() calls).
  backtrack(0);
  // Remove duplicates and satisfied/false literals at root level, in place
  // in the scratch buffer (the write cursor never passes the read cursor).
  std::vector<Lit> &Buf = ClauseBuf;
  Buf.assign(Lits, Lits + N);
  std::sort(Buf.begin(), Buf.end(),
            [](Lit A, Lit B) { return A.code() < B.code(); });
  size_t Kept = 0;
  for (size_t I = 0; I < N; ++I) {
    Lit L = Buf[I];
    if (I + 1 < N && Buf[I + 1] == L)
      continue; // Duplicate.
    if (I + 1 < N && Buf[I + 1] == ~L)
      return; // Tautology: p | ~p.
    LBool V = litValue(L);
    if (V == LBool::True)
      return; // Already satisfied at root.
    if (V == LBool::False)
      continue; // Drop falsified literal.
    Buf[Kept++] = L;
  }
  if (Kept == 0) {
    Unsatisfiable = true;
    return;
  }
  if (Kept == 1) {
    if (!assign(Buf[0], -1)) {
      Unsatisfiable = true;
      return;
    }
    if (propagate() != -1)
      Unsatisfiable = true;
    return;
  }
  appendClause(Buf.data(), Kept, /*Learned=*/false);
}

int SatSolver::propagate() {
  bool HasDeadline = CurDeadline != std::chrono::steady_clock::time_point{};
  while (PropHead < Trail.size()) {
    Lit P = Trail[PropHead++];
    ++Stats.Propagations;
    if (HasDeadline && (Stats.Propagations & 0x1FFF) == 0 &&
        std::chrono::steady_clock::now() > CurDeadline) {
      TimedOut = true;
      return -1;
    }
    std::vector<Watcher> &WList = Watches[P.code()];
    size_t Kept = 0;
    for (size_t WI = 0; WI < WList.size(); ++WI) {
      Watcher W = WList[WI];
      // Blocker check: clause already satisfied.
      if (litValue(W.Blocker) == LBool::True) {
        WList[Kept++] = W;
        continue;
      }
      const Clause &C = Clauses[W.ClauseIdx];
      Lit *Lits = &Arena[C.Start]; // Propagation never grows the arena.
      Lit NotP = ~P;
      // Ensure the false literal is Lits[1].
      if (Lits[0] == NotP)
        std::swap(Lits[0], Lits[1]);
      assert(Lits[1] == NotP && "watch invariant violated");
      // First literal may satisfy the clause.
      if (litValue(Lits[0]) == LBool::True) {
        WList[Kept++] = {W.ClauseIdx, Lits[0]};
        continue;
      }
      // Look for a new literal to watch.
      bool FoundWatch = false;
      for (size_t K = 2; K < C.Size; ++K) {
        if (litValue(Lits[K]) != LBool::False) {
          std::swap(Lits[1], Lits[K]);
          Watches[(~Lits[1]).code()].push_back({W.ClauseIdx, Lits[0]});
          FoundWatch = true;
          break;
        }
      }
      if (FoundWatch)
        continue; // Watcher moved; do not keep.
      // Clause is unit or conflicting.
      WList[Kept++] = W;
      if (litValue(Lits[0]) == LBool::False) {
        // Conflict: keep remaining watchers and report.
        for (size_t K = WI + 1; K < WList.size(); ++K)
          WList[Kept++] = WList[K];
        WList.resize(Kept);
        return static_cast<int>(W.ClauseIdx);
      }
      assign(Lits[0], static_cast<int>(W.ClauseIdx));
    }
    WList.resize(Kept);
  }
  return -1;
}

void SatSolver::bumpVar(unsigned Var) {
  Activity[Var] += VarInc;
  if (Activity[Var] > 1e100) {
    for (unsigned V = 1; V <= NumVars; ++V)
      Activity[V] *= 1e-100;
    VarInc *= 1e-100;
  }
  if (HeapPos[Var] >= 0)
    heapSiftUp(static_cast<size_t>(HeapPos[Var]));
}

void SatSolver::analyze(int ConflictClause, std::vector<Lit> &Learned,
                        unsigned &BtLevel) {
  Learned.clear();
  Learned.push_back(Lit()); // Slot for the asserting literal.
  unsigned Counter = 0;
  Lit P;
  bool PValid = false;
  int Reason = ConflictClause;
  size_t TrailIdx = Trail.size();

  for (;;) {
    assert(Reason != -1 && "analysis reached a decision without UIP");
    const Clause &C = Clauses[static_cast<size_t>(Reason)];
    const Lit *Lits = &Arena[C.Start];
    // When following a reason clause, Lits[0] is the implied literal P and is
    // skipped; for the initial conflict clause all literals are examined.
    for (size_t I = PValid ? 1 : 0; I < C.Size; ++I) {
      Lit L = Lits[I];
      unsigned V = L.var();
      if (Seen[V] || Levels[V] == 0)
        continue;
      Seen[V] = 1;
      bumpVar(V);
      if (Levels[V] == DecisionLevel)
        ++Counter;
      else
        Learned.push_back(L);
    }
    // Find the next trail literal to resolve on.
    while (TrailIdx > 0 && !Seen[Trail[TrailIdx - 1].var()])
      --TrailIdx;
    assert(TrailIdx > 0 && "trail exhausted during analysis");
    P = Trail[--TrailIdx];
    PValid = true;
    Seen[P.var()] = 0;
    Reason = Reasons[P.var()];
    if (--Counter == 0)
      break;
  }
  Learned[0] = ~P;

  // Compute the backtrack level (second-highest level in the clause).
  BtLevel = 0;
  for (size_t I = 1; I < Learned.size(); ++I)
    BtLevel = std::max(BtLevel, Levels[Learned[I].var()]);
  // Move a literal of BtLevel to position 1 for watching.
  if (Learned.size() > 1) {
    size_t MaxI = 1;
    for (size_t I = 2; I < Learned.size(); ++I)
      if (Levels[Learned[I].var()] > Levels[Learned[MaxI].var()])
        MaxI = I;
    std::swap(Learned[1], Learned[MaxI]);
  }
  for (size_t I = 1; I < Learned.size(); ++I)
    Seen[Learned[I].var()] = 0;
}

void SatSolver::backtrack(unsigned Level) {
  if (DecisionLevel <= Level)
    return;
  size_t Bound = TrailLims[Level];
  for (size_t I = Trail.size(); I > Bound; --I) {
    unsigned V = Trail[I - 1].var();
    SavedPhase[V] = Values[V] == LBool::True;
    Values[V] = LBool::Undef;
    Reasons[V] = -1;
    if (HeapPos[V] < 0)
      heapInsert(V);
  }
  Trail.resize(Bound);
  TrailLims.resize(Level);
  PropHead = Trail.size();
  DecisionLevel = Level;
}

Lit SatSolver::pickBranchLit() {
  while (!heapEmpty()) {
    unsigned V = heapPop();
    if (Values[V] == LBool::Undef)
      return Lit(V, !SavedPhase[V]);
  }
  return Lit(); // var() == 0 signals "all assigned".
}

uint64_t SatSolver::luby(uint64_t I) {
  // Finite subsequences of the Luby sequence: 1 1 2 1 1 2 4 ...
  // (MiniSat's formulation.)
  uint64_t Size = 1, Seq = 0;
  while (Size < I + 1) {
    ++Seq;
    Size = 2 * Size + 1;
  }
  while (Size - 1 != I) {
    Size = (Size - 1) / 2;
    --Seq;
    I %= Size;
  }
  return 1ULL << Seq;
}

SatStatus SatSolver::solve(const SatBudget &Budget,
                           const std::vector<Lit> &Assumptions) {
  if (Unsatisfiable)
    return SatStatus::Unsat; // Cached result: no search, no telemetry.
  SolveTelemetry Telemetry(Stats);
  CurDeadline = Budget.Deadline;
  TimedOut = false;
  backtrack(0);
  if (propagate() != -1) {
    Unsatisfiable = true;
    CurDeadline = {};
    return SatStatus::Unsat;
  }
  if (TimedOut) {
    CurDeadline = {};
    return SatStatus::Unknown;
  }

  uint64_t ConflictsStart = Stats.Conflicts;
  uint64_t PropsStart = Stats.Propagations;
  bool HasDeadline =
      Budget.Deadline != std::chrono::steady_clock::time_point{};
  uint64_t LoopIter = 0;
  uint64_t RestartNum = 0;
  uint64_t RestartLimit = 64 * luby(RestartNum);
  uint64_t ConflictsAtRestart = Stats.Conflicts;

  static const bool Debug = std::getenv("ER_SOLVER_DEBUG") != nullptr;
  for (;;) {
    ++LoopIter;
    if (Debug && (LoopIter & 0xFFFFF) == 0)
      std::fprintf(stderr,
                   "[sat] iter=%llu conflicts=%llu props=%llu decisions=%llu "
                   "trail=%zu level=%u\n",
                   (unsigned long long)LoopIter,
                   (unsigned long long)Stats.Conflicts,
                   (unsigned long long)Stats.Propagations,
                   (unsigned long long)Stats.Decisions, Trail.size(),
                   DecisionLevel);
    if (HasDeadline && (LoopIter & 0x3FF) == 0 &&
        std::chrono::steady_clock::now() > Budget.Deadline)
      return SatStatus::Unknown;
    int Confl = propagate();
    if (TimedOut) {
      CurDeadline = {};
      return SatStatus::Unknown;
    }
    if (Confl != -1) {
      ++Stats.Conflicts;
      if (DecisionLevel == 0) {
        CurDeadline = {};
        return SatStatus::Unsat;
      }
      std::vector<Lit> &Learned = ClauseBuf;
      unsigned BtLevel = 0;
      analyze(Confl, Learned, BtLevel);
      backtrack(BtLevel);
      if (Learned.size() == 1) {
        if (!assign(Learned[0], -1)) {
          CurDeadline = {};
          return SatStatus::Unsat;
        }
      } else {
        appendClause(Learned.data(), Learned.size(), /*Learned=*/true);
        ++Stats.LearnedClauses;
        assign(Learned[0], static_cast<int>(Clauses.size() - 1));
      }
      VarInc *= 1.0 / 0.95;
      if (Stats.Conflicts - ConflictsStart > Budget.MaxConflicts ||
          Stats.Propagations - PropsStart > Budget.MaxPropagations) {
        CurDeadline = {};
        return SatStatus::Unknown;
      }
      if (Stats.Conflicts - ConflictsAtRestart >= RestartLimit) {
        ++Stats.Restarts;
        ++RestartNum;
        RestartLimit = 64 * luby(RestartNum);
        ConflictsAtRestart = Stats.Conflicts;
        backtrack(0);
      }
      continue;
    }

    if (Stats.Propagations - PropsStart > Budget.MaxPropagations) {
      CurDeadline = {};
      return SatStatus::Unknown;
    }

    // Decide: assumptions first, then VSIDS.
    Lit Decision;
    bool HaveDecision = false;
    while (DecisionLevel < Assumptions.size()) {
      Lit A = Assumptions[DecisionLevel];
      LBool V = litValue(A);
      if (V == LBool::True) {
        // Already implied; open an empty decision level to keep indexing.
        TrailLims.push_back(static_cast<unsigned>(Trail.size()));
        ++DecisionLevel;
        continue;
      }
      if (V == LBool::False) {
        CurDeadline = {};
        return SatStatus::Unsat; // Assumptions conflict.
      }
      Decision = A;
      HaveDecision = true;
      break;
    }
    if (!HaveDecision) {
      Decision = pickBranchLit();
      if (Decision.var() == 0) {
        CurDeadline = {};
        return SatStatus::Sat; // All variables assigned.
      }
    }
    ++Stats.Decisions;
    TrailLims.push_back(static_cast<unsigned>(Trail.size()));
    ++DecisionLevel;
    assign(Decision, -1);
  }
}

SatCheckpoint SatSolver::checkpoint() const {
  SatCheckpoint C;
  C.NumVars = NumVars;
  C.DecisionLevel = DecisionLevel;
  C.Clauses = Clauses;
  C.Arena = Arena;
  size_t LiveLits = 2 * (static_cast<size_t>(NumVars) + 1);
  size_t NumWatchers = 0;
  for (size_t I = 0; I < LiveLits; ++I)
    NumWatchers += Watches[I].size();
  C.WatchLists.reserve(NumWatchers);
  C.WatchEnds.reserve(LiveLits);
  for (size_t I = 0; I < LiveLits; ++I) {
    C.WatchLists.insert(C.WatchLists.end(), Watches[I].begin(),
                        Watches[I].end());
    C.WatchEnds.push_back(C.WatchLists.size());
  }
  C.Values = Values;
  C.Reasons = Reasons;
  C.Levels = Levels;
  C.SavedPhase = SavedPhase;
  C.Activity = Activity;
  C.Trail = Trail;
  C.TrailLims = TrailLims;
  C.Heap = Heap;
  C.HeapPos = HeapPos;
  C.Seen = Seen;
  C.PropHead = PropHead;
  C.VarInc = VarInc;
  C.Unsatisfiable = Unsatisfiable;
  C.Stats = Stats;
  return C;
}

void SatSolver::restore(const SatCheckpoint &C) {
  // Refill the checkpoint's live watch lists and empty any list past them,
  // keeping every list's capacity.
  size_t LiveLits = 2 * (static_cast<size_t>(NumVars) + 1);
  size_t RestoredLits = C.WatchEnds.size();
  if (Watches.size() < RestoredLits)
    Watches.resize(RestoredLits);
  size_t Begin = 0;
  for (size_t I = 0; I < RestoredLits; ++I) {
    Watches[I].assign(C.WatchLists.begin() + static_cast<long>(Begin),
                      C.WatchLists.begin() + static_cast<long>(C.WatchEnds[I]));
    Begin = C.WatchEnds[I];
  }
  for (size_t I = RestoredLits; I < LiveLits; ++I)
    Watches[I].clear();
  NumVars = C.NumVars;
  DecisionLevel = C.DecisionLevel;
  Clauses = C.Clauses;
  Arena = C.Arena;
  Values = C.Values;
  Reasons = C.Reasons;
  Levels = C.Levels;
  SavedPhase = C.SavedPhase;
  Activity = C.Activity;
  Trail = C.Trail;
  TrailLims = C.TrailLims;
  Heap = C.Heap;
  HeapPos = C.HeapPos;
  Seen = C.Seen;
  PropHead = C.PropHead;
  VarInc = C.VarInc;
  Unsatisfiable = C.Unsatisfiable;
  Stats = C.Stats;
  CurDeadline = {};
  TimedOut = false;
}

bool SatSolver::modelValue(unsigned Var) const {
  assert(Var <= NumVars && "variable out of range");
  return Values[Var] == LBool::True;
}

//===----------------------------------------------------------------------===//
// Order heap
//===----------------------------------------------------------------------===//

void SatSolver::heapInsert(unsigned Var) {
  assert(HeapPos[Var] < 0 && "already in heap");
  Heap.push_back(Var);
  HeapPos[Var] = static_cast<int>(Heap.size() - 1);
  heapSiftUp(Heap.size() - 1);
}

unsigned SatSolver::heapPop() {
  unsigned Top = Heap.front();
  HeapPos[Top] = -1;
  unsigned Last = Heap.back();
  Heap.pop_back();
  if (!Heap.empty()) {
    Heap.front() = Last;
    HeapPos[Last] = 0;
    heapSiftDown(0);
  }
  return Top;
}

void SatSolver::heapSiftUp(size_t Pos) {
  unsigned V = Heap[Pos];
  while (Pos > 0) {
    size_t Parent = (Pos - 1) / 2;
    if (Activity[Heap[Parent]] >= Activity[V])
      break;
    Heap[Pos] = Heap[Parent];
    HeapPos[Heap[Pos]] = static_cast<int>(Pos);
    Pos = Parent;
  }
  Heap[Pos] = V;
  HeapPos[V] = static_cast<int>(Pos);
}

void SatSolver::heapSiftDown(size_t Pos) {
  unsigned V = Heap[Pos];
  size_t N = Heap.size();
  for (;;) {
    size_t Child = 2 * Pos + 1;
    if (Child >= N)
      break;
    if (Child + 1 < N && Activity[Heap[Child + 1]] > Activity[Heap[Child]])
      ++Child;
    if (Activity[Heap[Child]] <= Activity[V])
      break;
    Heap[Pos] = Heap[Child];
    HeapPos[Heap[Pos]] = static_cast<int>(Pos);
    Pos = Child;
  }
  Heap[Pos] = V;
  HeapPos[V] = static_cast<int>(Pos);
}

void SatSolver::heapUpdate(unsigned Var) {
  if (HeapPos[Var] >= 0) {
    heapSiftUp(static_cast<size_t>(HeapPos[Var]));
    heapSiftDown(static_cast<size_t>(HeapPos[Var]));
  }
}
