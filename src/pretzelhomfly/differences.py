"""Finite differences of pretzel HOMFLY families in the last parameter,
the largest-catalog-factor heuristic X, and the theorem/conjecture checks
built on them.

X is found by greedy trial division against a catalog of quantum-number
shaped factors, not by certified irreducible factorization; the residual
left after trial division is reported as "irreducibility not certified".
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from math import comb
from typing import List, Optional, Sequence, Tuple

from .errors import EngineError, NotDivisible, ZeroPolynomial
from .laurent import LaurentPoly, Monomial
from .pretzel import HomflyEngine, PretzelSpec, _default_engine
from .report import Verdict


def special_point_monomials() -> List[Tuple[str, Monomial]]:
    """The four substitutions A = q, -q, 1/q, -1/q."""
    return [("A=q", Monomial(1, 0, 1)), ("A=-q", Monomial(-1, 0, 1)),
            ("A=1/q", Monomial(1, 0, -1)), ("A=-1/q", Monomial(-1, 0, -1))]


_POINT_LABELS = [label for label, _ in special_point_monomials()]


@cache
def four_point_divisor() -> LaurentPoly:
    """(A-q)(A+q)(Aq-1)(Aq+1), Theorem 1's divisor in the paper's literal form.

    It equals the r-dependent divisor (A-q)(A+q)(Aq^r-1)(Aq^r+1), i.e.
    {A/q}{Aq^r} up to a unit, only at r = 1.  Built once per process; the
    value is immutable.
    """
    A, q = LaurentPoly.var_A(), LaurentPoly.var_q()
    one = LaurentPoly.one()
    return (A - q) * (A + q) * (A * q - one) * (A * q + one)


def q_diff_window(n: int, prefix: Sequence[int], c_values: Sequence[int],
                  r: int, engine: Optional[HomflyEngine] = None
                  ) -> List[LaurentPoly]:
    """Q^n in the last parameter at each c of c_values (stepping by 2), for
    the knots prefix + (c,) of any genus.

    Q^n(c) = sum_i (-1)^(n-i) C(n,i) H(c+2i).  All members come from one
    HomflyEngine.family window [c_values[0], c_values[-1] + 2n].
    """
    if n < 0:
        raise ValueError("difference order must be >= 0")
    if not c_values:
        return []
    lo, hi = c_values[0], c_values[-1]
    if list(c_values) != list(range(lo, hi + 1, 2)):
        raise ValueError(f"c values must step by 2: {list(c_values)}")
    eng = engine or _default_engine
    members = eng.family(prefix, range(lo, hi + 2 * n + 1, 2), r)
    weights = [(-1) ** (n - i) * comb(n, i) for i in range(n)]
    out = []
    for j in range(len(c_values)):
        total = members[j + n]  # weight C(n, n) = 1
        for i, w in enumerate(weights):
            # w = -1 (always, at n = 1) is one subtraction, without scale()
            member = members[j + i]
            total = total - member if w == -1 else total + member.scale(w)
        out.append(total)
    return out


def q_diff(n: int, a: int, b: int, c: int, r: int,
           engine: Optional[HomflyEngine] = None) -> LaurentPoly:
    """Q^n(c, r) = Q^(n-1)(c+2, r) - Q^(n-1)(c, r); Q^0 is the invariant."""
    return q_diff_window(n, (a, b), [c], r, engine)[0]


# -- catalog factorization --------------------------------------------------

@dataclass
class FactorReport:
    poly: LaurentPoly
    unit: Monomial
    catalog_factors: List[Tuple[LaurentPoly, int]]
    residual: LaurentPoly
    X: LaurentPoly
    x_is_residual: bool
    residual_certified: bool = False  # trial division only, never certified

    def reconstruct(self) -> LaurentPoly:
        out = self.unit.as_poly()
        for factor, mult in self.catalog_factors:
            out = out * factor ** mult
        return out * self.residual

    def to_json(self) -> dict:
        return {
            "unit": self.unit.as_poly().to_text(),
            "factors": [[f.to_text(), m] for f, m in self.catalog_factors],
            "residual": self.residual.to_text(),
            "X": self.X.to_text(),
            "x_is_residual": self.x_is_residual,
            "residual_certified": self.residual_certified,
        }


def _factor_catalog(k_bound: int) -> List[LaurentPoly]:
    """Quantum-number shaped trial divisors, in the greedy order used."""
    out: List[LaurentPoly] = []
    for k in range(1, k_bound + 1):
        out.append(LaurentPoly({(0, k): 1, (0, -k): -1}))        # {q^k}
    for k in range(-k_bound, k_bound + 1):
        out.append(LaurentPoly({(1, k): 1, (-1, -k): -1}))       # {Aq^k}
    for k in range(0, k_bound + 1):
        out.append(LaurentPoly({(0, 0): 1, (2, 2 * k): 1}))      # 1 + A^2 q^2k
    A, q = LaurentPoly.var_A(), LaurentPoly.var_q()
    one = LaurentPoly.one()
    out.extend([A - q, A + q, A * q - one, A * q + one])
    return out


def factor_X(p: LaurentPoly, k_bound: Optional[int] = None) -> FactorReport:
    """Greedy catalog trial division; X is the highest-degree piece left.

    Ties break toward the residual, then toward the factor with the larger
    A-degree span.  Degrees are total-degree spans of the unit-stripped
    factor (the paper does not pin a tie rule; this one is documented here).
    """
    if p.is_zero:
        raise ZeroPolynomial("cannot factor zero")
    unit, body = p.strip_monomial()
    if k_bound is None:
        lo, hi = body.degQ_range()
        k_bound = max(2, (hi - lo) // 2 + 1)
    factors: List[Tuple[LaurentPoly, int]] = []
    for cand in _factor_catalog(k_bound):
        mult = 0
        while True:
            try:
                quot = body.exact_div(cand)
            except NotDivisible:
                break
            # keep body unit-stripped so accumulated units stay in `unit`
            u, body = quot.strip_monomial()
            unit = unit * u
            mult += 1
        if mult:
            factors.append((cand, mult))
    residual = body
    candidates = []
    for factor, _ in factors:
        fu, fs = factor.strip_monomial()
        candidates.append((fs.total_degree(), 0,
                           _a_span(fs), factor))
    if not residual.is_one:
        candidates.append((residual.total_degree(), 1,
                           _a_span(residual), residual))
    if not candidates:
        # pure monomial input: X is the (unit-stripped) input itself
        x, x_res = LaurentPoly.one(), True
    else:
        deg, is_res, _, x = max(candidates, key=lambda t: t[:3])
        x_res = bool(is_res)
    report = FactorReport(poly=p, unit=unit, catalog_factors=factors,
                          residual=residual, X=x, x_is_residual=x_res)
    if report.reconstruct() != p:
        raise EngineError("factor reconstruction failed (internal bug)")
    return report


def _a_span(p: LaurentPoly) -> int:
    lo, hi = p.degA_range()
    return hi - lo


# -- theorem and conjecture checks ------------------------------------------

def check_theorem_1(a: int, b: int, m: int, r: int,
                    engine: Optional[HomflyEngine] = None) -> Verdict:
    """(A-q)(A+q)(Aq-1)(Aq+1) | Q^1(2m-1, r), via both vanishing at the four
    special points and exact division.

    This is the paper's literal form at every r.  It equals the r-dependent
    divisor (A-q)(A+q)(Aq^r-1)(Aq^r+1), which every s >= 1 term of the
    differential expansion carries, only at r = 1; for r >= 2 the literal
    form is refuted (Q^1 need not vanish at A = +-1/q).

    Q^1 = H(a, b, c+2) - H(a, b, c) with c = 2m - 1, from two homfly calls:
    the same value as q_diff(1, a, b, c, r), whose two-member window is all
    seeds.
    """
    eng = engine or _default_engine
    c = 2 * m - 1
    return four_point_verdict(eng.homfly(PretzelSpec((a, b, c + 2), r))
                              - eng.homfly(PretzelSpec((a, b, c), r)))


def four_point_verdict(d: LaurentPoly) -> Verdict:
    """Theorem 1's verdict on one Q^1: fails at the first special point
    (A = q, -q, 1/q, -1/q in that order) where d does not vanish, with d's
    value there as witness; else the exact division by four_point_divisor()
    decides.

    The four values come from one pass over d's terms.  Split by the parity
    of the A-exponent into E + O, with E and O keyed by the q-exponent
    eq + ea they take at A = q, and E' + O' keyed by eq - ea:
    p(+-q) = E +- O and p(+-1/q) = E' +- O'.  The witness of a failing
    point is its own sums, read as a polynomial in q.
    """
    even, odd, even_inv, odd_inv = {}, {}, {}, {}
    for (ea, eq), c in d.terms.items():
        if ea & 1:
            odd[eq + ea] = odd.get(eq + ea, 0) + c
            odd_inv[eq - ea] = odd_inv.get(eq - ea, 0) + c
        else:
            even[eq + ea] = even.get(eq + ea, 0) + c
            even_inv[eq - ea] = even_inv.get(eq - ea, 0) + c
    at_points = []
    for e, o in ((even, odd), (even_inv, odd_inv)):
        plus, minus = dict(e), dict(e)
        for k, c in o.items():
            plus[k] = plus.get(k, 0) + c
            minus[k] = minus.get(k, 0) - c
        at_points += [plus, minus]
    for label, sums in zip(_POINT_LABELS, at_points):
        if any(sums.values()):
            return Verdict.fails(LaurentPoly({(0, k): c for k, c in sums.items()}),
                                 f"Q^1 does not vanish at {label}")
    if d.is_zero:
        return Verdict.holds("Q^1 is identically zero")
    try:
        d.exact_div(four_point_divisor())
    except NotDivisible as exc:
        return Verdict.fails(exc.remainder, "four-point product does not divide Q^1")
    return Verdict.holds("divides exactly and vanishes at all four points")


def check_conjecture_main(a: int, b: int, c: int, r: int,
                          engine: Optional[HomflyEngine] = None) -> Verdict:
    """Q^r(c, r) A^r q^(2r(r-1)) = Q^r(c+2, r)."""
    d0, d1 = q_diff_window(r, (a, b), [c, c + 2], r, engine)
    lhs = d0.shift(Monomial(1, r, 2 * r * (r - 1)))
    if lhs == d1:
        return Verdict.holds(
            f"with permutation invariance, r+1 = {r + 1} matrix computations "
            f"generate the whole a={a}, b={b} family")
    detail = "shifted r-th differences differ"
    if not (d0.is_zero or d1.is_zero):
        u0, s0 = d0.strip_monomial()
        u1, s1 = d1.strip_monomial()
        if s0 == s1:
            ratio = (u1 * u0.inverse()).as_poly().to_text()
            detail += (f"; the differences do agree up to the monomial {ratio}, "
                       f"not the stated A^{r}*q^{2 * r * (r - 1)}")
        else:
            detail += "; the differences are not monomial multiples at all"
    return Verdict.fails(lhs - d1, detail)


@dataclass
class MonoVerdicts:
    """Conjecture 4 under both step readings; c is always odd in the paper,
    so the literal c+1 step lands on the member (a, b, c+1), which has an
    even parameter.  The engine's assembly is the all-odd (antiparallel)
    formula and does not apply to it (its value there is often not even a
    Laurent polynomial), so that step is always insufficient-data."""

    literal_step: Verdict   # c -> c+1 as written
    odd_step: Verdict       # c -> c+2, the presumed intent

    def to_json(self) -> dict:
        return {"step_c_plus_1": self.literal_step.to_json(),
                "step_c_plus_2": self.odd_step.to_json()}


def _mono_quotient(d: LaurentPoly) -> Optional[LaurentPoly]:
    """Q^1 / X(Q^1), or None when Q^1 = 0."""
    if d.is_zero:
        return None
    return d.exact_div(factor_X(d).X)


def check_conjecture_mono(a: int, b: int, c: int, r: int,
                          engine: Optional[HomflyEngine] = None) -> MonoVerdicts:
    """Q^1(c,r)/X(Q^1(c,r)) compared at consecutive bases, both step rules.

    Quotients are compared up to a monomial unit; X itself is only defined up
    to a unit, so exact equality of unstripped quotients would be convention
    noise rather than content.
    """
    literal = Verdict.insufficient(
        "member (a,b,c+1) has an even parameter, outside the all-odd "
        "(antiparallel) formula")
    odd = _odd_step(a, b, c, r, engine or _default_engine)
    return MonoVerdicts(literal, odd)


def _odd_step(a: int, b: int, c: int, r: int,
              engine: HomflyEngine) -> Verdict:
    base = _mono_quotient(q_diff(1, a, b, c, r, engine))
    if base is None:
        return Verdict.insufficient("Q^1(c,r) = 0; X undefined")
    try:
        other = _mono_quotient(q_diff(1, a, b, c + 2, r, engine))
    except EngineError as exc:
        return Verdict.insufficient(
            f"base c+2 not computable: {type(exc).__name__}: {exc}")
    if other is None:
        return Verdict.insufficient("Q^1(c+2,r) = 0")
    if base.strip_monomial()[1] == other.strip_monomial()[1]:
        return Verdict.holds("quotients agree up to a unit")
    return Verdict.fails(other, "quotients differ beyond a monomial unit")
