"""Finite differences of pretzel HOMFLY families in the last parameter,
the largest-catalog-factor heuristic X, and the theorem/conjecture checks
built on them.

X is found by greedy trial division against a catalog of quantum-number
shaped factors, not by certified irreducible factorization; the residual
left after trial division is reported as "irreducibility not certified".
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import List, Optional, Sequence, Tuple

from .errors import EngineError, NotDivisible, ZeroPolynomial
from .laurent import LaurentPoly, Monomial
from .pretzel import (HomflyEngine, PretzelSpec, _default_engine,
                      canonicalize_framing)
from .report import Verdict


def special_point_monomials() -> List[Tuple[str, Monomial]]:
    """The four substitutions A = q, -q, 1/q, -1/q."""
    return [("A=q", Monomial(1, 0, 1)), ("A=-q", Monomial(-1, 0, 1)),
            ("A=1/q", Monomial(1, 0, -1)), ("A=-1/q", Monomial(-1, 0, -1))]


def four_point_divisor() -> LaurentPoly:
    """(A-q)(A+q)(Aq-1)(Aq+1), Theorem 1's divisor in the paper's literal form.

    It equals the r-dependent divisor (A-q)(A+q)(Aq^r-1)(Aq^r+1), i.e.
    {A/q}{Aq^r} up to a unit, only at r = 1.
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


def q_diff_genus_rational(n: int, params: Sequence[int], r: int,
                          engine: Optional[HomflyEngine] = None):
    """Rational-function variant for families whose members are links (an
    even number of odd parameters), where the invariant is not polynomial."""
    if n < 0:
        raise ValueError("difference order must be >= 0")
    eng = engine or _default_engine
    if n == 0:
        return eng.homfly_rational(PretzelSpec(params, r))
    up = tuple(params[:-1]) + (params[-1] + 2,)
    return (q_diff_genus_rational(n - 1, up, r, eng)
            - q_diff_genus_rational(n - 1, params, r, eng))


def check_genus_vanishing(params: Sequence[int], r: int,
                          engine: Optional[HomflyEngine] = None) -> Verdict:
    """First difference in the last parameter vanishes at the four special
    points, for arbitrary genus; works on the rational form so link-valued
    families are covered."""
    d = q_diff_genus_rational(1, params, r, engine)
    for label, mono in special_point_monomials():
        value = d.substitute("A", mono)
        if not value.is_zero:
            return Verdict.fails(value, f"difference does not vanish at {label}")
    return Verdict.holds("first difference vanishes at all four special points")


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
    """(A-q)(A+q)(Aq-1)(Aq+1) | Q^1(2m-1, r), via both exact division and
    vanishing at the four special points.

    This is the paper's literal form at every r.  It equals the r-dependent
    divisor (A-q)(A+q)(Aq^r-1)(Aq^r+1), which every s >= 1 term of the
    differential expansion carries, only at r = 1; for r >= 2 the literal
    form is refuted (Q^1 need not vanish at A = +-1/q).
    """
    d = q_diff(1, a, b, 2 * m - 1, r, engine)
    for label, mono in special_point_monomials():
        value = d.substitute("A", mono)
        if not value.is_zero:
            return Verdict.fails(value, f"Q^1 does not vanish at {label}")
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
    so the literal c+1 step lands on the members (a, b, c+1) and (a, b, c+3)
    with one even parameter.  Those are knots, but the engine assembles them
    with its all-odd formula, and no test compares that value with an
    independent HOMFLY of the knot."""

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


def _literal_q_diff(a: int, b: int, c: int, r: int,
                    engine: HomflyEngine) -> LaurentPoly:
    """Q^1(c+1, r) over the even members c+1, c+3 (in that order).

    homfly() rejects even parameters, so each member is assembled and framed
    here directly; such members are neither memoised nor stored.
    """
    lo, hi = [canonicalize_framing(engine.homfly_rational(
        PretzelSpec((a, b, e), r)).to_poly())[1] for e in (c + 1, c + 3)]
    return hi - lo


def check_conjecture_mono(a: int, b: int, c: int, r: int,
                          engine: Optional[HomflyEngine] = None) -> MonoVerdicts:
    """Q^1(c,r)/X(Q^1(c,r)) compared at consecutive bases, both step rules.

    Quotients are compared up to a monomial unit; X itself is only defined up
    to a unit, so exact equality of unstripped quotients would be convention
    noise rather than content.
    """
    eng = engine or _default_engine
    base = _mono_quotient(q_diff(1, a, b, c, r, eng))
    if base is None:
        return MonoVerdicts(Verdict.insufficient("Q^1(c,r) = 0; X undefined"),
                            Verdict.insufficient("Q^1(c,r) = 0; X undefined"))
    verdicts = []
    for step in (1, 2):
        try:
            other = _mono_quotient(_literal_q_diff(a, b, c, r, eng) if step == 1
                                   else q_diff(1, a, b, c + 2, r, eng))
        except EngineError as exc:
            verdicts.append(Verdict.insufficient(
                f"base c+{step} not computable: {type(exc).__name__}: {exc}"))
            continue
        if other is None:
            verdicts.append(Verdict.insufficient(f"Q^1(c+{step},r) = 0"))
            continue
        if base.strip_monomial()[1] == other.strip_monomial()[1]:
            verdicts.append(Verdict.holds("quotients agree up to a unit"))
        else:
            verdicts.append(Verdict.fails(
                other, "quotients differ beyond a monomial unit"))
    return MonoVerdicts(*verdicts)
