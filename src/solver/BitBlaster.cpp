//===- BitBlaster.cpp - Bitvector to CNF lowering --------------------------===//

#include "solver/BitBlaster.h"

#include "support/Error.h"

#include <cassert>

using namespace er;

BitBlaster::BitBlaster(const ExprContext &Ctx, SatSolver &Sat,
                       uint64_t MaxGates)
    : Ctx(Ctx), Sat(Sat) {
  reset(MaxGates);
}

void BitBlaster::reset(uint64_t NewMaxGates) {
  MaxGates = NewMaxGates;
  GatesUsed = 0;
  BudgetExceeded = false;
  Cache.clear();
  Atoms.clear();
  unsigned TrueVar = Sat.newVar();
  TrueLit = Lit(TrueVar, false);
  Sat.addUnit(TrueLit);
}

Lit BitBlaster::freshLit() {
  ++GatesUsed;
  if (GatesUsed > MaxGates)
    BudgetExceeded = true;
  return Lit(Sat.newVar(), false);
}

Lit BitBlaster::litConst(bool B) const { return B ? TrueLit : ~TrueLit; }

//===----------------------------------------------------------------------===//
// Gates
//===----------------------------------------------------------------------===//

Lit BitBlaster::mkAnd(Lit A, Lit B) {
  if (A == TrueLit)
    return B;
  if (B == TrueLit)
    return A;
  if (A == ~TrueLit || B == ~TrueLit)
    return ~TrueLit;
  if (A == B)
    return A;
  if (A == ~B)
    return ~TrueLit;
  Lit C = freshLit();
  Sat.addBinary(~C, A);
  Sat.addBinary(~C, B);
  Sat.addTernary(C, ~A, ~B);
  return C;
}

Lit BitBlaster::mkOr(Lit A, Lit B) { return ~mkAnd(~A, ~B); }

Lit BitBlaster::mkXor(Lit A, Lit B) {
  if (A == TrueLit)
    return ~B;
  if (B == TrueLit)
    return ~A;
  if (A == ~TrueLit)
    return B;
  if (B == ~TrueLit)
    return A;
  if (A == B)
    return ~TrueLit;
  if (A == ~B)
    return TrueLit;
  Lit C = freshLit();
  Sat.addTernary(~C, A, B);
  Sat.addTernary(~C, ~A, ~B);
  Sat.addTernary(C, ~A, B);
  Sat.addTernary(C, A, ~B);
  return C;
}

Lit BitBlaster::mkMux(Lit Sel, Lit T, Lit F) {
  if (T == F)
    return T;
  if (Sel == TrueLit)
    return T;
  if (Sel == ~TrueLit)
    return F;
  if (T == TrueLit && F == ~TrueLit)
    return Sel;
  if (T == ~TrueLit && F == TrueLit)
    return ~Sel;
  Lit C = freshLit();
  Sat.addTernary(~Sel, ~T, C);
  Sat.addTernary(~Sel, T, ~C);
  Sat.addTernary(Sel, ~F, C);
  Sat.addTernary(Sel, F, ~C);
  return C;
}

BitBlaster::Bits BitBlaster::mkAdd(const Bits &A, const Bits &B, Lit CarryIn) {
  assert(A.size() == B.size() && "adder width mismatch");
  Bits Sum(A.size());
  Lit Carry = CarryIn;
  for (size_t I = 0; I < A.size(); ++I) {
    Lit AxB = mkXor(A[I], B[I]);
    Sum[I] = mkXor(AxB, Carry);
    Carry = mkOr(mkAnd(A[I], B[I]), mkAnd(Carry, AxB));
  }
  return Sum;
}

BitBlaster::Bits BitBlaster::mkNegate(const Bits &A) {
  Bits NotA(A.size());
  for (size_t I = 0; I < A.size(); ++I)
    NotA[I] = ~A[I];
  Bits Zero(A.size(), ~TrueLit);
  return mkAdd(NotA, Zero, TrueLit);
}

Lit BitBlaster::mkUlt(const Bits &A, const Bits &B) {
  // From LSB to MSB: the highest differing bit decides.
  Lit R = ~TrueLit;
  for (size_t I = 0; I < A.size(); ++I) {
    Lit Diff = mkXor(A[I], B[I]);
    R = mkMux(Diff, B[I], R);
  }
  return R;
}

Lit BitBlaster::mkEq(const Bits &A, const Bits &B) {
  Lit R = TrueLit;
  for (size_t I = 0; I < A.size(); ++I)
    R = mkAnd(R, ~mkXor(A[I], B[I]));
  return R;
}

BitBlaster::Bits BitBlaster::mkMuxVec(Lit Sel, const Bits &T, const Bits &F) {
  assert(T.size() == F.size() && "mux width mismatch");
  Bits R(T.size());
  for (size_t I = 0; I < T.size(); ++I)
    R[I] = mkMux(Sel, T[I], F[I]);
  return R;
}

BitBlaster::Bits BitBlaster::mkShift(const Bits &A, const Bits &Amount,
                                     bool Left, bool Arith) {
  size_t W = A.size();
  Lit Fill = Arith ? A[W - 1] : ~TrueLit;
  Bits R = A;
  // Barrel shifter over the bits of Amount that can matter.
  unsigned Stages = 0;
  while ((1ULL << Stages) < W)
    ++Stages;
  for (unsigned S = 0; S < Stages && S < Amount.size(); ++S) {
    size_t Shift = 1ULL << S;
    Bits Shifted(W);
    for (size_t I = 0; I < W; ++I) {
      if (Left)
        Shifted[I] = I >= Shift ? R[I - Shift] : ~TrueLit;
      else
        Shifted[I] = I + Shift < W ? R[I + Shift] : Fill;
    }
    R = mkMuxVec(Amount[S], Shifted, R);
  }
  // If any higher bit of Amount is set, the shift is >= W: result is all
  // fill bits.
  Lit TooBig = ~TrueLit;
  for (size_t I = Stages; I < Amount.size(); ++I)
    TooBig = mkOr(TooBig, Amount[I]);
  Bits FillVec(W, Left ? ~TrueLit : Fill);
  return mkMuxVec(TooBig, FillVec, R);
}

BitBlaster::Bits BitBlaster::mkMul(const Bits &A, const Bits &B) {
  size_t W = A.size();
  Bits Acc(W, ~TrueLit);
  for (size_t I = 0; I < W; ++I) {
    if (BudgetExceeded)
      return Acc;
    // Partial product: (A << I) masked by B[I].
    Bits Partial(W, ~TrueLit);
    for (size_t J = I; J < W; ++J)
      Partial[J] = mkAnd(A[J - I], B[I]);
    Acc = mkAdd(Acc, Partial, ~TrueLit);
  }
  return Acc;
}

void BitBlaster::mkDivRem(const Bits &A, const Bits &B, Bits &Quot,
                          Bits &Rem) {
  size_t W = A.size();
  Quot.assign(W, ~TrueLit);
  Bits R(W, ~TrueLit);
  Bits NotB(W);
  for (size_t I = 0; I < W; ++I)
    NotB[I] = ~B[I];
  // Restoring division, MSB first.
  for (size_t Step = W; Step-- > 0;) {
    if (BudgetExceeded)
      break;
    // R = (R << 1) | A[Step].
    for (size_t I = W; I-- > 1;)
      R[I] = R[I - 1];
    R[0] = A[Step];
    Lit GE = ~mkUlt(R, B); // R >= B.
    Bits RMinusB = mkAdd(R, NotB, TrueLit);
    R = mkMuxVec(GE, RMinusB, R);
    Quot[Step] = GE;
  }
  // Division by zero: quotient = all ones, remainder = A (SMT-LIB style).
  Bits Zero(W, ~TrueLit);
  Lit BZero = mkEq(B, Zero);
  Bits Ones(W, TrueLit);
  Quot = mkMuxVec(BZero, Ones, Quot);
  Rem = mkMuxVec(BZero, A, R);
}

//===----------------------------------------------------------------------===//
// Expression lowering
//===----------------------------------------------------------------------===//

BitBlaster::Bits BitBlaster::makeAtomBits(unsigned Width) {
  Bits B(Width);
  for (unsigned I = 0; I < Width; ++I)
    B[I] = freshLit();
  return B;
}

const BitBlaster::Bits &BitBlaster::blast(ExprRef E) {
  auto It = Cache.find(E);
  if (It != Cache.end())
    return It->second;
  Bits B = blastUncached(E);
  return Cache.emplace(E, std::move(B)).first->second;
}

BitBlaster::Bits BitBlaster::blastUncached(ExprRef E) {
  if (BudgetExceeded)
    return Bits(E->getWidth() ? E->getWidth() : 1, ~TrueLit);

  unsigned W = E->getWidth();
  switch (E->getKind()) {
  case ExprKind::Const: {
    Bits B(W);
    for (unsigned I = 0; I < W; ++I)
      B[I] = litConst((E->getConstVal() >> I) & 1);
    return B;
  }
  case ExprKind::Var: {
    Bits B = makeAtomBits(W);
    Atoms.emplace_back(E, B);
    return B;
  }
  case ExprKind::Read: {
    // Only atomic reads survive array elimination.
    assert(E->getOp0()->getKind() == ExprKind::SymArray &&
           E->getOp1()->isConst() &&
           "non-atomic Read reached the bit-blaster");
    Bits B = makeAtomBits(W);
    Atoms.emplace_back(E, B);
    return B;
  }
  case ExprKind::Not: {
    Bits A = blast(E->getOp0());
    for (auto &L : A)
      L = ~L;
    return A;
  }
  case ExprKind::Neg:
    return mkNegate(blast(E->getOp0()));
  case ExprKind::ZExt: {
    Bits A = blast(E->getOp0());
    A.resize(W, ~TrueLit);
    return A;
  }
  case ExprKind::SExt: {
    Bits A = blast(E->getOp0());
    Lit Sign = A.back();
    A.resize(W, Sign);
    return A;
  }
  case ExprKind::Trunc: {
    Bits A = blast(E->getOp0());
    A.resize(W);
    return A;
  }
  case ExprKind::Add:
    return mkAdd(blast(E->getOp0()), blast(E->getOp1()), ~TrueLit);
  case ExprKind::Sub: {
    Bits B = blast(E->getOp1());
    Bits NotB(B.size());
    for (size_t I = 0; I < B.size(); ++I)
      NotB[I] = ~B[I];
    return mkAdd(blast(E->getOp0()), NotB, TrueLit);
  }
  case ExprKind::Mul:
    return mkMul(blast(E->getOp0()), blast(E->getOp1()));
  case ExprKind::UDiv: {
    Bits Q, R;
    mkDivRem(blast(E->getOp0()), blast(E->getOp1()), Q, R);
    return Q;
  }
  case ExprKind::URem: {
    Bits Q, R;
    mkDivRem(blast(E->getOp0()), blast(E->getOp1()), Q, R);
    return R;
  }
  case ExprKind::SDiv:
  case ExprKind::SRem: {
    // abs/divide/fix-sign lowering.
    Bits A = blast(E->getOp0());
    Bits B = blast(E->getOp1());
    Lit SA = A.back(), SB = B.back();
    Bits AbsA = mkMuxVec(SA, mkNegate(A), A);
    Bits AbsB = mkMuxVec(SB, mkNegate(B), B);
    Bits Q, R;
    mkDivRem(AbsA, AbsB, Q, R);
    if (E->getKind() == ExprKind::SDiv) {
      Lit NegResult = mkXor(SA, SB);
      return mkMuxVec(NegResult, mkNegate(Q), Q);
    }
    // Remainder takes the dividend's sign.
    return mkMuxVec(SA, mkNegate(R), R);
  }
  case ExprKind::And: {
    Bits A = blast(E->getOp0()), B = blast(E->getOp1());
    Bits C(W);
    for (unsigned I = 0; I < W; ++I)
      C[I] = mkAnd(A[I], B[I]);
    return C;
  }
  case ExprKind::Or: {
    Bits A = blast(E->getOp0()), B = blast(E->getOp1());
    Bits C(W);
    for (unsigned I = 0; I < W; ++I)
      C[I] = mkOr(A[I], B[I]);
    return C;
  }
  case ExprKind::Xor: {
    Bits A = blast(E->getOp0()), B = blast(E->getOp1());
    Bits C(W);
    for (unsigned I = 0; I < W; ++I)
      C[I] = mkXor(A[I], B[I]);
    return C;
  }
  case ExprKind::Shl:
    return mkShift(blast(E->getOp0()), blast(E->getOp1()), /*Left=*/true,
                   /*Arith=*/false);
  case ExprKind::LShr:
    return mkShift(blast(E->getOp0()), blast(E->getOp1()), /*Left=*/false,
                   /*Arith=*/false);
  case ExprKind::AShr:
    return mkShift(blast(E->getOp0()), blast(E->getOp1()), /*Left=*/false,
                   /*Arith=*/true);
  case ExprKind::Eq:
    return {mkEq(blast(E->getOp0()), blast(E->getOp1()))};
  case ExprKind::Ult:
    return {mkUlt(blast(E->getOp0()), blast(E->getOp1()))};
  case ExprKind::Slt: {
    // slt(a, b) == ult(a ^ signbit, b ^ signbit).
    Bits A = blast(E->getOp0());
    Bits B = blast(E->getOp1());
    A.back() = ~A.back();
    B.back() = ~B.back();
    return {mkUlt(A, B)};
  }
  case ExprKind::Ite: {
    Lit Sel = blast(E->getOp0())[0];
    return mkMuxVec(Sel, blast(E->getOp1()), blast(E->getOp2()));
  }
  case ExprKind::ConstArray:
  case ExprKind::DataArray:
  case ExprKind::SymArray:
  case ExprKind::Write:
    fatalError("array-typed expression reached the bit-blaster");
  }
  fatalError("unhandled expression kind in bit-blaster");
}

bool BitBlaster::assertTrue(ExprRef E) {
  assert(E->getWidth() == 1 && "asserting non-boolean expression");
  Lit L = blast(E)[0];
  if (BudgetExceeded)
    return false;
  Sat.addUnit(L);
  return true;
}

bool BitBlaster::encode(ExprRef E) {
  blast(E);
  return !BudgetExceeded;
}

void BitBlaster::blockValue(ExprRef E, uint64_t V) {
  auto It = Cache.find(E);
  assert(It != Cache.end() && "expression was not encoded");
  const Bits &B = It->second;
  std::vector<Lit> Clause;
  Clause.reserve(B.size());
  for (size_t I = 0; I < B.size(); ++I) {
    bool BitVal = (V >> I) & 1;
    // Require at least one bit to differ from V.
    Clause.push_back(BitVal ? ~B[I] : B[I]);
  }
  Sat.addClause(std::move(Clause));
}

uint64_t BitBlaster::valueOf(ExprRef E) const {
  auto It = Cache.find(E);
  assert(It != Cache.end() && "expression was not blasted");
  uint64_t V = 0;
  const Bits &B = It->second;
  for (size_t I = 0; I < B.size(); ++I) {
    bool BitVal = Sat.modelValue(B[I].var()) != B[I].negated();
    V |= static_cast<uint64_t>(BitVal) << I;
  }
  return V;
}

void BitBlaster::extractAssignment(Assignment &Out) const {
  for (const auto &[E, B] : Atoms) {
    uint64_t V = 0;
    for (size_t I = 0; I < B.size(); ++I) {
      bool BitVal = Sat.modelValue(B[I].var()) != B[I].negated();
      V |= static_cast<uint64_t>(BitVal) << I;
    }
    if (E->getKind() == ExprKind::Var) {
      Out.VarValues[E->getVarId()] = V;
    } else {
      assert(E->getKind() == ExprKind::Read && "unexpected atom kind");
      uint32_t ArrId = E->getOp0()->getVarId();
      uint64_t Index = E->getOp1()->getConstVal();
      Out.ArrayValues[ArrId][Index] = V;
    }
  }
}
