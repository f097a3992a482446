//===- BitBlaster.h - Bitvector to CNF lowering -----------------*- C++ -*-===//
///
/// \file
/// Tseitin-encodes bitvector expressions into CNF for the SAT core. Array
/// expressions must be eliminated first (see ConstraintSolver); the only
/// Read expressions accepted here are atomic reads of a symbolic array at a
/// constant index, which are treated as free variables.
///
/// Gate construction is metered: exceeding the gate budget marks the blaster
/// exceeded and the enclosing query reports a timeout (a symbolic-execution
/// stall in ER terms).
///
//===----------------------------------------------------------------------===//

#ifndef ER_SOLVER_BITBLASTER_H
#define ER_SOLVER_BITBLASTER_H

#include "solver/Expr.h"
#include "solver/Sat.h"

#include <unordered_map>
#include <vector>

namespace er {

/// Lowers Expr trees to CNF in a SatSolver and maps SAT models back to
/// expression-level assignments.
class BitBlaster {
public:
  BitBlaster(const ExprContext &Ctx, SatSolver &Sat, uint64_t MaxGates);

  /// Drops every encoding and starts over under \p MaxGates, keeping the
  /// capacity of the blaster's buffers. \p Sat must have been reset first
  /// (SatSolver::reset): the constant-true variable is re-created in it, so
  /// the blaster then numbers variables exactly as a new one would.
  void reset(uint64_t MaxGates);

  /// Asserts that boolean (width-1) expression \p E holds. Returns false if
  /// the gate budget was exceeded while encoding.
  bool assertTrue(ExprRef E);

  /// Encodes \p E without asserting anything (so valueOf/blockValue can be
  /// used on it). Returns false if the gate budget was exceeded.
  bool encode(ExprRef E);

  /// Adds a clause forbidding \p E (previously encoded) from taking the
  /// value \p V in future models.
  void blockValue(ExprRef E, uint64_t V);

  bool exceeded() const { return BudgetExceeded; }
  uint64_t gatesUsed() const { return GatesUsed; }

  /// Re-meters a retained encoding under a new query budget: an
  /// incremental session keeps one blaster across checkSat calls whose
  /// budgets may differ. The caller must first prove reuse-safe, i.e.
  /// gatesUsed() <= \p M — once the latch has fired the gate cache holds
  /// placeholder bits and the blaster must be discarded, not re-metered.
  void setMaxGates(uint64_t M) { MaxGates = M; }

  /// After a Sat result: evaluates the blasted bits of \p E (which must have
  /// been encoded during assertTrue) under the SAT model.
  uint64_t valueOf(ExprRef E) const;

  /// After a Sat result: fills \p Out with values for every atom (variable
  /// or symbolic-array element) the encoding touched.
  void extractAssignment(Assignment &Out) const;

private:
  using Bits = std::vector<Lit>;

  const Bits &blast(ExprRef E);
  Bits blastUncached(ExprRef E);
  Bits makeAtomBits(unsigned Width);

  Lit freshLit();
  Lit litConst(bool B) const;
  Lit mkAnd(Lit A, Lit B);
  Lit mkOr(Lit A, Lit B);
  Lit mkXor(Lit A, Lit B);
  Lit mkMux(Lit Sel, Lit T, Lit F);
  Bits mkAdd(const Bits &A, const Bits &B, Lit CarryIn);
  Bits mkNegate(const Bits &A);
  Lit mkUlt(const Bits &A, const Bits &B);
  Lit mkEq(const Bits &A, const Bits &B);
  Bits mkMuxVec(Lit Sel, const Bits &T, const Bits &F);
  Bits mkShift(const Bits &A, const Bits &Amount, bool Left, bool Arith);
  Bits mkMul(const Bits &A, const Bits &B);
  void mkDivRem(const Bits &A, const Bits &B, Bits &Quot, Bits &Rem);

  const ExprContext &Ctx;
  SatSolver &Sat;
  uint64_t MaxGates;
  uint64_t GatesUsed = 0;
  bool BudgetExceeded = false;
  Lit TrueLit;

  std::unordered_map<ExprRef, Bits> Cache;
  /// Atoms whose SAT variables represent free model values.
  std::vector<std::pair<ExprRef, Bits>> Atoms;
};

} // namespace er

#endif // ER_SOLVER_BITBLASTER_H
