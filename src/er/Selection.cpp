//===- Selection.cpp - Key data value selection ---------------------------------===//

#include "er/Selection.h"

#include "support/Rng.h"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>

using namespace er;

static constexpr uint64_t Infinite = UINT64_MAX;

KeyValueSelector::KeyValueSelector(
    const ConstraintGraph &Graph,
    std::unordered_set<unsigned> AlreadyInstrumented)
    : Graph(Graph), AlreadyInstrumented(std::move(AlreadyInstrumented)) {
  computeBottleneck();
}

uint64_t KeyValueSelector::costOf(ExprRef E) const {
  const SymexSnapshot &S = Graph.snapshot();
  auto It = S.Origins.find(E);
  if (It == S.Origins.end())
    return Infinite;
  if (AlreadyInstrumented.count(It->second))
    return Infinite; // Already recorded: re-recording gains nothing.
  uint64_t Count =
      It->second < S.ExecCounts.size() ? S.ExecCounts[It->second] : 0;
  if (Count == 0)
    Count = 1;
  unsigned Bytes = (E->getWidth() + 7) / 8;
  return Bytes * Count;
}

void KeyValueSelector::computeBottleneck() {
  std::unordered_set<ExprRef> Seen;
  auto Add = [&](ExprRef E) {
    if (E && !E->isConst() && Seen.insert(E).second)
      Bottleneck.push_back(E);
  };

  // Every symbolic value read or written by the operations of the two
  // bottleneck chains.
  for (const ObjectChain *Chain :
       {Graph.longestChain(), Graph.largestObjectChain()}) {
    if (!Chain)
      continue;
    for (const auto &W : Chain->Writes) {
      Add(W.Index);
      Add(W.Value);
    }
  }
  // The expressions whose resolution stalled (covers stalls before any
  // chain forms, and adds the pending read — e.g. V[x] in the running
  // example; for final-solve timeouts, the heaviest constraint cores).
  Add(Graph.snapshot().CulpritExpr);
  for (ExprRef E : Graph.snapshot().CulpritExprs)
    Add(E);
}

namespace {

/// Shared machinery for concreteness/cover queries over the DAG.
class CoverSolver {
public:
  CoverSolver(const KeyValueSelector &Sel, const SymexSnapshot &Snap)
      : Sel(Sel), Snap(Snap) {}

  /// Would \p E become concrete if every element of \p Recorded were
  /// recorded?
  bool becomesConcrete(ExprRef E,
                       const std::unordered_set<ExprRef> &Recorded) {
    std::unordered_map<ExprRef, bool> Memo;
    return concreteImpl(E, Recorded, Memo);
  }

  /// The cheapest set of recordable descendants (treating members of
  /// \p Free as already recorded, i.e. zero-cost) from which \p E can be
  /// inferred. Returns the set and its cost; {E} itself is a candidate.
  std::pair<std::vector<ExprRef>, uint64_t>
  bestCover(ExprRef E, const std::unordered_set<ExprRef> &Free) {
    std::unordered_map<ExprRef, std::vector<ExprRef>> Memo;
    const std::vector<ExprRef> &Cover = coverImpl(E, Free, Memo);
    return {Cover, setCost(Cover)};
  }

  uint64_t setCost(const std::vector<ExprRef> &Set) const {
    uint64_t Total = 0;
    for (ExprRef E : Set) {
      uint64_t C = Sel.costOf(E);
      if (C == Infinite)
        return Infinite;
      Total += C;
    }
    return Total;
  }

private:
  bool concreteImpl(ExprRef E, const std::unordered_set<ExprRef> &Recorded,
                    std::unordered_map<ExprRef, bool> &Memo) {
    if (E->isConst())
      return true;
    if (Recorded.count(E))
      return true;
    auto It = Memo.find(E);
    if (It != Memo.end())
      return It->second;
    Memo.emplace(E, false); // Cycle guard (the DAG has none, but be safe).

    bool Result = false;
    switch (E->getKind()) {
    case ExprKind::Var:
    case ExprKind::SymArray:
      Result = false;
      break;
    case ExprKind::ConstArray:
    case ExprKind::DataArray:
      Result = true;
      break;
    case ExprKind::Read:
      Result = concreteImpl(E->getOp1(), Recorded, Memo) &&
               arrayConcrete(E->getOp0(), Recorded, Memo);
      break;
    default: {
      Result = true;
      for (unsigned I = 0; I < E->getNumOps(); ++I)
        Result = Result && concreteImpl(E->getOp(I), Recorded, Memo);
      break;
    }
    }
    Memo[E] = Result;
    return Result;
  }

  /// Whether every write of the chain ending in \p A is concrete over a
  /// concrete base. Each write node's answer is memoized (it holds for
  /// every chain through it), so the many reads of one long chain walk it
  /// once rather than once per read.
  bool arrayConcrete(ExprRef A, const std::unordered_set<ExprRef> &Recorded,
                     std::unordered_map<ExprRef, bool> &Memo) {
    std::vector<ExprRef> Walked;
    bool Result = true;
    for (;; A = A->getOp0()) {
      if (A->getKind() != ExprKind::Write) {
        Result = A->getKind() != ExprKind::SymArray;
        break;
      }
      auto It = Memo.find(A);
      if (It != Memo.end()) {
        Result = It->second;
        break;
      }
      Walked.push_back(A);
      if (!concreteImpl(A->getOp1(), Recorded, Memo) ||
          !concreteImpl(A->getOp2(), Recorded, Memo)) {
        Result = false;
        break;
      }
    }
    for (ExprRef W : Walked)
      Memo[W] = Result;
    return Result;
  }

  /// Returns the cover set for \p E, or a set containing an unrecordable
  /// sentinel (cost Infinite) when none exists. The set lives in \p Memo
  /// (whose elements never move) or, for constants and free expressions,
  /// is the shared empty set.
  const std::vector<ExprRef> &
  coverImpl(ExprRef E, const std::unordered_set<ExprRef> &Free,
            std::unordered_map<ExprRef, std::vector<ExprRef>> &Memo) {
    static const std::vector<ExprRef> Empty;
    if (E->isConst() || Free.count(E))
      return Empty;
    auto [It, Inserted] = Memo.emplace(E, std::vector<ExprRef>{E});
    std::vector<ExprRef> &Slot = It->second; // Provisional until the end.
    if (!Inserted)
      return Slot;

    // Option 1: record E itself.
    uint64_t SelfCost = Sel.costOf(E);

    // Option 2: cover E's dependencies, deduplicated in first-seen order.
    std::vector<ExprRef> ChildCover;
    std::unordered_set<ExprRef> InChildCover;
    bool ChildPossible = true;
    auto Merge = [&](const std::vector<ExprRef> &Sub) {
      for (ExprRef S : Sub)
        if (InChildCover.insert(S).second)
          ChildCover.push_back(S);
    };
    switch (E->getKind()) {
    case ExprKind::Var:
    case ExprKind::SymArray:
      ChildPossible = false; // Leaves have no decomposition.
      break;
    case ExprKind::Read: {
      Merge(coverImpl(E->getOp1(), Free, Memo));
      ExprRef A = E->getOp0();
      while (A->getKind() == ExprKind::Write) {
        Merge(coverImpl(A->getOp1(), Free, Memo));
        Merge(coverImpl(A->getOp2(), Free, Memo));
        A = A->getOp0();
      }
      if (A->getKind() == ExprKind::SymArray)
        ChildPossible = false;
      break;
    }
    default:
      for (unsigned I = 0; I < E->getNumOps(); ++I)
        Merge(coverImpl(E->getOp(I), Free, Memo));
      break;
    }

    // Slot still holds {E}, the record-E-itself option.
    if (ChildPossible && setCost(ChildCover) < SelfCost)
      Slot = std::move(ChildCover);
    return Slot;
  }

  const KeyValueSelector &Sel;
  const SymexSnapshot &Snap;
};

} // namespace

RecordingPlan KeyValueSelector::computeRecordingSet() const {
  CoverSolver CS(*this, Graph.snapshot());

  std::vector<ExprRef> R = Bottleneck;
  bool Changed = true;
  unsigned Rounds = 0;
  while (Changed && Rounds++ < 16) {
    Changed = false;
    for (size_t I = 0; I < R.size();) {
      ExprRef E = R[I];
      std::unordered_set<ExprRef> Others(R.begin(), R.end());
      Others.erase(E);

      // Already inferable from the rest of the set: drop it for free
      // (e.g. V[x] once x and c are recorded).
      if (CS.becomesConcrete(E, Others)) {
        R.erase(R.begin() + static_cast<long>(I));
        Changed = true;
        continue;
      }

      // Try a cheaper cover of descendants.
      auto [Cover, CoverCost] = CS.bestCover(E, Others);
      uint64_t SelfCost = costOf(E);
      if (CoverCost < SelfCost && !(Cover.size() == 1 && Cover[0] == E)) {
        R.erase(R.begin() + static_cast<long>(I));
        for (ExprRef C : Cover)
          if (std::find(R.begin(), R.end(), C) == R.end())
            R.push_back(C);
        Changed = true;
        continue;
      }
      ++I;
    }
  }

  // Drop anything unrecordable that survived (cannot be instrumented).
  RecordingPlan Plan;
  const SymexSnapshot &S = Graph.snapshot();
  for (ExprRef E : R) {
    auto It = S.Origins.find(E);
    if (It == S.Origins.end())
      continue;
    RecordedValue V;
    V.E = E;
    V.OriginInstr = It->second;
    V.WidthBytes = (E->getWidth() + 7) / 8;
    V.DynCount = It->second < S.ExecCounts.size() ? S.ExecCounts[It->second]
                                                  : 1;
    V.Cost = costOf(E);
    Plan.Values.push_back(V);
  }
  // Deterministic order for tests and reproducibility.
  std::sort(Plan.Values.begin(), Plan.Values.end(),
            [](const RecordedValue &A, const RecordedValue &B) {
              return A.E->getId() < B.E->getId();
            });
  return Plan;
}

RecordingPlan KeyValueSelector::randomRecordingSet(
    Rng &R, const RecordingPlan &Reference) const {
  // Candidate pool: every recordable expression in the snapshot.
  const SymexSnapshot &S = Graph.snapshot();
  std::vector<ExprRef> Pool;
  for (const auto &[E, Origin] : S.Origins)
    if (!E->isConst() && !E->isArray())
      Pool.push_back(E);
  std::sort(Pool.begin(), Pool.end(),
            [](ExprRef A, ExprRef B) { return A->getId() < B->getId(); });

  RecordingPlan Plan;
  uint64_t Budget = Reference.totalCost();
  uint64_t Spent = 0;
  std::unordered_set<ExprRef> Chosen;
  unsigned Attempts = 0;
  while (Spent < Budget && !Pool.empty() && Attempts < 10 * Pool.size()) {
    ++Attempts;
    ExprRef E = Pool[R.nextBounded(Pool.size())];
    if (!Chosen.insert(E).second)
      continue;
    uint64_t C = costOf(E);
    if (C == Infinite)
      continue;
    auto It = S.Origins.find(E);
    RecordedValue V;
    V.E = E;
    V.OriginInstr = It->second;
    V.WidthBytes = (E->getWidth() + 7) / 8;
    V.DynCount = It->second < S.ExecCounts.size() ? S.ExecCounts[It->second]
                                                  : 1;
    V.Cost = C;
    Plan.Values.push_back(V);
    Spent += C;
  }
  return Plan;
}
