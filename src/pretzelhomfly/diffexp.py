"""Differential expansion machinery for defect-zero knots.

H_[r] = 1 + sum_{s=1..r} binom_q(r,s) F_s prod_{j=0..s-1} {Aq^(r+j)}{Aq^(j-1)}

The F-factors are recovered by a triangular solve in which every division is
required to be exact; an inexact division means the input family is not a
defect-zero expansion and aborts with the offending level.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from .errors import (InexactDivision, NonzeroDefect, NotDivisible,
                     NotPalindromic, NotPolynomial, OddPower, ZeroPolynomial)
from .laurent import LaurentPoly, Monomial
from .qcore import RationalFn, bracket_Aq, qfact_ratio
from .report import Verdict


@dataclass
class AlexanderPoly:
    """The A=1 slice of a fundamental HOMFLY polynomial; q-only, palindromic."""

    poly: LaurentPoly

    def to_text(self) -> str:
        return self.poly.to_text()


@dataclass
class FExpansion:
    knot: str
    maxR: int
    F: List[LaurentPoly]  # F[i] is F_(i+1)
    defect: int

    def factor(self, i: int) -> LaurentPoly:
        if not 1 <= i <= self.maxR:
            raise IndexError(f"F_{i} not computed (maxR={self.maxR})")
        return self.F[i - 1]


def alexander(h1: LaurentPoly) -> AlexanderPoly:
    """Alexander polynomial as the A=1 specialization of H_[1]."""
    al = h1.substitute("A", Monomial(1, 0, 0))
    if any(al.terms.get((0, -e), 0) != c for (_, e), c in al.terms.items()):
        raise NotPalindromic(f"A=1 slice not palindromic: {al.to_text()}")
    if sum(al.terms.values()) != 1:
        raise NotPalindromic(f"A=1 slice is not 1 at q=1: {al.to_text()}")
    return AlexanderPoly(al)


def power_q2(al: AlexanderPoly) -> int:
    """Span of the Alexander polynomial in the variable q^2."""
    if al.poly.is_zero:
        raise ZeroPolynomial("zero Alexander polynomial")
    lo, hi = al.poly.degQ_range()
    return (hi - lo) // 2


def defect(al: AlexanderPoly) -> int:
    """Differential-expansion defect: half the q^2-span minus one."""
    p = power_q2(al)
    if p % 2:
        raise OddPower(f"q^2-span {p} is odd; the defect formula does not apply")
    return p // 2 - 1


def _z_row(r: int) -> List[RationalFn]:
    """Z_{r,1..r}, each built once over qcore's basis:
    Z_{r,s} = prod_{j<s} {Aq^(r+j)}{Aq^(j-1)}."""
    out = []
    z = RationalFn.one()
    for j in range(r):
        z = z * bracket_Aq(r + j) * bracket_Aq(j - 1)
        out.append(z)
    return out


def _binom_q(r: int, s: int) -> LaurentPoly:
    """The Gaussian binomial [r s]_q = [r]! / ([s]! [r-s]!)."""
    return qfact_ratio([r], [s, r - s]).to_poly()


def extract_F(hs: Sequence[LaurentPoly], knot: str = "") -> FExpansion:
    """Recover F_1..F_R from the family H_[1]..H_[R] by triangular solve.

    Level r divides by Z_{r,r} over the basis, where the division is exact
    or leaves a denominator; a denominator raises InexactDivision with that
    level, whose remainder is the right-hand side that did not divide (no
    output prints it)."""
    if not hs:
        raise ValueError("need at least H_[1]")
    d = defect(alexander(hs[0]))
    if d != 0:
        raise NonzeroDefect(f"defect {d} != 0; expansion shape not applicable")
    factors: List[LaurentPoly] = []
    one = LaurentPoly.one()
    for r in range(1, len(hs) + 1):
        zs = _z_row(r)
        rhs = hs[r - 1] - one
        for s in range(1, r):
            rhs = rhs - _binom_q(r, s) * factors[s - 1] * zs[s - 1].to_poly()
        try:
            factors.append((RationalFn.from_poly(rhs) / zs[r - 1]).to_poly())
        except NotPolynomial as exc:
            raise InexactDivision(r, rhs) from exc
    return FExpansion(knot=knot, maxR=len(hs), F=factors, defect=0)


def reconstruct_H(fe: FExpansion, r: int) -> LaurentPoly:
    """Forward evaluation of the expansion at representation size r."""
    if r > fe.maxR:
        raise IndexError(f"r={r} exceeds maxR={fe.maxR}")
    out = LaurentPoly.one()
    for s, z in enumerate(_z_row(r), 1):
        out = out + _binom_q(r, s) * fe.F[s - 1] * z.to_poly()
    return out


def f_prime(f_i: LaurentPoly, i: int) -> LaurentPoly:
    """F_i' = A^2 q^(2i) F_i."""
    if i < 1:
        raise ValueError("index must be >= 1")
    return f_i.shift(Monomial(1, 2, 2 * i))


def f_star(f_i: LaurentPoly) -> LaurentPoly:
    """F_i* = (A^2/q^4) F_i with A replaced by A q^2."""
    return f_i.substitute("A", Monomial(1, 1, 2)).shift(Monomial(1, 2, -4))


def _one_plus_A2q(i: int) -> LaurentPoly:
    """1 + A^2 q^(2(i-1))."""
    return LaurentPoly({(0, 0): 1, (2, 2 * (i - 1)): 1})


def check_conjecture_935(fe: FExpansion, i: int) -> Verdict:
    """(1 + A^2 q^(2(i-1))) divides F_i + F'_(i-1), for i >= 2."""
    if i < 2:
        raise ValueError("conjecture applies for i >= 2")
    if i > fe.maxR:
        return Verdict.insufficient(f"F_{i} not computed (maxR={fe.maxR})")
    target = fe.factor(i) + f_prime(fe.factor(i - 1), i - 1)
    try:
        target.exact_div(_one_plus_A2q(i))
    except NotDivisible as exc:
        return Verdict.fails(exc.remainder, f"F_{i} + F'_{i-1} not divisible")
    return Verdict.holds(f"(1 + A^2 q^{2 * (i - 1)}) | F_{i} + F'_{i-1}")


@dataclass
class Conjecture946Verdict:
    divisibility: Verdict   # conjecture 2: (1 + A^2 q^(2(i-1))) | F_i
    quotient_step: Verdict  # conjecture 3: q^2 (q^(2(i-1)) - 1) | F_i/(...) - F*_(i-1)

    @property
    def ok(self) -> bool:
        return self.divisibility.ok and self.quotient_step.ok

    def to_json(self) -> dict:
        return {"conjecture2": self.divisibility.to_json(),
                "conjecture3": self.quotient_step.to_json()}


def conjecture3_witness(fe: FExpansion, i: int) -> LaurentPoly:
    """F_i/(1 + A^2 q^(2(i-1))) - F*_(i-1), the quantity conjecture 3 divides.
    (At i=3 for the (3,3,-3) family this is A^6 q^6 - A^6 q^10.)"""
    quotient = fe.factor(i).exact_div(_one_plus_A2q(i))
    return quotient - f_star(fe.factor(i - 1))


def check_conjecture_946(fe: FExpansion, i: int) -> Conjecture946Verdict:
    """Both divisibility claims for the (3,3,-3) family at odd i >= 3."""
    if i < 3 or i % 2 == 0:
        raise ValueError("conjectures apply for odd i >= 3")
    if i > fe.maxR:
        missing = Verdict.insufficient(f"F_{i} not computed (maxR={fe.maxR})")
        return Conjecture946Verdict(missing, missing)
    d = _one_plus_A2q(i)
    try:
        quotient = fe.factor(i).exact_div(d)
    except NotDivisible as exc:
        v = Verdict.fails(exc.remainder, f"F_{i} not divisible")
        return Conjecture946Verdict(
            v, Verdict.insufficient("quotient undefined"))
    v2 = Verdict.holds(f"(1 + A^2 q^{2 * (i - 1)}) | F_{i}")
    step_divisor = LaurentPoly({(0, 2 * i): 1, (0, 2): -1})  # q^2 (q^(2(i-1)) - 1)
    target = quotient - f_star(fe.factor(i - 1))
    if target.is_zero:
        v3 = Verdict.holds("difference vanishes")
    else:
        try:
            target.exact_div(step_divisor)
            v3 = Verdict.holds(
                f"q^2 (q^{2 * (i - 1)} - 1) | F_{i}/(1+A^2 q^{2 * (i - 1)}) - F*_{i-1}")
        except NotDivisible as exc:
            v3 = Verdict.fails(exc.remainder, "quotient step not divisible")
    return Conjecture946Verdict(v2, v3)
