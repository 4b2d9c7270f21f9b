"""Normalized colored HOMFLY polynomials of pretzel knots.

The genus-g invariant is assembled from the first rows of S-bar T-bar^n S
(one twist factor per parameter), weighted by 1/S_{0,x}^(g-1) and the
single-row chi.  Every formal square root introduced by the Racah matrices
cancels pairwise in this sum; the engine asserts that instead of assuming it.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from .cache import HomflyCache, cache_key
from .errors import (CorruptStore, EngineError, NoCanonicalUnit, RepCapExceeded,
                     ZeroPolynomial)
from .laurent import LaurentPoly, Monomial
from .qcore import RationalFn, chi_rows
from .racah import (RadicalContext, RadicalValue, build_S, build_Sbar,
                    build_Tbar, twist_row)
from .symfunc import YoungDiagram, schur_hook

DEFAULT_REP_CAP = 5


@dataclass(frozen=True)
class PretzelSpec:
    """Pretzel knot parameters (odd twist counts) and representation size."""

    params: Tuple[int, ...]
    rep: int

    def __init__(self, params: Sequence[int], rep: int):
        object.__setattr__(self, "params", tuple(int(p) for p in params))
        object.__setattr__(self, "rep", int(rep))
        if len(self.params) < 3:
            raise ValueError("a pretzel knot needs at least three parameters")
        if self.rep < 1:
            raise ValueError("representation size must be >= 1")

    @property
    def genus(self) -> int:
        return len(self.params) - 1

    @property
    def all_odd(self) -> bool:
        return all(p % 2 for p in self.params)

    def label(self) -> str:
        return "(" + ",".join(str(p) for p in self.params) + f") r={self.rep}"


@dataclass
class HomflyResult:
    poly: LaurentPoly
    spec: PretzelSpec
    framing_unit: Optional[Monomial]  # None when served from the persistent store


def canonicalize_framing(p: LaurentPoly) -> Tuple[Monomial, LaurentPoly]:
    """Fix the overall monomial unit of a raw invariant.

    The canonical representative evaluates to 1 at A=q (the N=1
    specialization collapses every knot invariant), sums its coefficients to
    1 at A=q=1, and has an A=1 slice palindromic under q -> 1/q.  Those three
    facts pin the sign, the q-exponent (palindrome center) and the A-exponent
    (via the A=q slice) of the unit uniquely.
    """
    if p.is_zero:
        raise ZeroPolynomial("cannot canonicalize zero")
    at_aq = p.substitute("A", Monomial(1, 0, 1))
    unit_aq = at_aq.as_monomial()
    if unit_aq is None:
        raise NoCanonicalUnit(
            f"A=q slice is not a unit monomial: {at_aq.to_text()}")
    at_a1 = p.substitute("A", Monomial(1, 0, 0))
    if at_a1.is_zero:
        raise NoCanonicalUnit("A=1 slice vanishes")
    total = sum(at_a1.terms.values())
    if total not in (1, -1):
        raise NoCanonicalUnit(f"coefficient sum at A=1 is {total}, not a sign")
    if total != unit_aq.sign:
        raise NoCanonicalUnit("A=q and A=1 slices disagree on the overall sign")
    lo, hi = at_a1.degQ_range()
    if (lo + hi) % 2:
        raise NoCanonicalUnit("A=1 slice has no integral palindrome center")
    beta = (lo + hi) // 2
    unit = Monomial(total, unit_aq.expQ - beta, beta)
    canon = p.shift(unit.inverse())
    slice_a1 = canon.substitute("A", Monomial(1, 0, 0))
    if any(slice_a1.terms.get((0, -e), 0) != c
           for (_, e), c in slice_a1.terms.items()):
        raise NoCanonicalUnit("A=1 slice is not palindromic under q -> 1/q")
    return unit, canon


class HomflyEngine:
    """Computes pretzel HOMFLY polynomials with matrix/row/result memoization.

    Safe for concurrent use: Racah matrices and twist rows are built once per
    (r, n) under a lock and shared immutably afterwards.
    """

    def __init__(self, cache: Optional[HomflyCache] = None,
                 rep_cap: int = DEFAULT_REP_CAP, allow_even: bool = False):
        self.cache = cache
        self.rep_cap = rep_cap
        self.allow_even = allow_even
        self._lock = threading.Lock()
        self._ctx: Dict[int, RadicalContext] = {}
        self._S: Dict[int, list] = {}
        self._Sbar: Dict[int, list] = {}
        self._rows: Dict[Tuple[int, int], List[RadicalValue]] = {}
        self._chi: Dict[int, RationalFn] = {}
        self._memo: Dict[tuple, HomflyResult] = {}

    # -- shared building blocks -------------------------------------------

    def matrices(self, r: int):
        with self._lock:
            if r not in self._S:
                ctx = RadicalContext(r)
                self._ctx[r] = ctx
                self._S[r] = build_S(r, ctx)
                self._Sbar[r] = build_Sbar(r, ctx)
            return self._ctx[r], self._S[r], self._Sbar[r]

    def twist_row(self, r: int, n: int) -> List[RadicalValue]:
        ctx, S, Sbar = self.matrices(r)
        with self._lock:
            if (r, n) not in self._rows:
                self._rows[(r, n)] = twist_row(r, n, S, Sbar, ctx)
            return self._rows[(r, n)]

    def chi_single_row(self, r: int) -> RationalFn:
        """chi_{[r,0]}, cross-checked against the hook-product Schur value."""
        with self._lock:
            cached = self._chi.get(r)
        if cached is not None:
            return cached
        chi = chi_rows(r, 0)
        if chi != schur_hook(YoungDiagram([r])):
            raise EngineError(
                f"chi_[{r},0] disagrees with the hook-product Schur value")
        with self._lock:
            self._chi[r] = chi
        return chi

    # -- the invariant ------------------------------------------------------

    def _check_knot(self, spec: PretzelSpec):
        if spec.rep > self.rep_cap:
            raise RepCapExceeded(
                f"r={spec.rep} exceeds the configured cap {self.rep_cap}")
        if not spec.all_odd and not self.allow_even:
            raise ValueError(f"pretzel parameters must all be odd: {spec.params}")

    def homfly(self, spec: PretzelSpec) -> HomflyResult:
        self._check_knot(spec)
        r = spec.rep
        key = cache_key(spec.params, r)
        with self._lock:
            hit = self._memo.get(key)
        if hit is not None:
            return HomflyResult(hit.poly, spec, hit.framing_unit)
        if self.cache is not None:
            entry = self.cache.get(key)
            if entry is not None:
                result = HomflyResult(entry.poly, spec, None)
                with self._lock:
                    self._memo[key] = result
                return result
        started = time.monotonic()
        poly, unit = self._compute(spec)
        duration = time.monotonic() - started
        result = HomflyResult(poly, spec, unit)
        with self._lock:
            self._memo[key] = result
        if self.cache is not None:
            self.cache.put(key, poly, duration)
        return result

    def family(self, prefix: Sequence[int], c_values: Sequence[int],
               r: int) -> List[LaurentPoly]:
        """Canonical polynomials of the knots prefix + (c,), c in c_values.

        c_values steps by 2.  The last parameter enters the assembled sum
        only through T-bar^c, so the raw (pre-framing) members obey a linear
        recurrence of order r+1 whose characteristic roots are the diagonal
        entries mu_k = A^2k q^2k(k-1) of T-bar^2.  The r+1 consecutive
        members nearest c = 0, the cheapest to assemble, are seeds and come
        through homfly().  Every other member takes monomial-coefficient
        steps forward or backward from them, then is framed, memoised and
        stored as homfly() would.  A window of at most r+1 members is all
        seeds, so no knot outside the window is ever assembled.
        """
        specs = [PretzelSpec(tuple(prefix) + (c,), r) for c in c_values]
        if any(d - c != 2 for c, d in zip(c_values, c_values[1:])):
            raise ValueError(f"family members must step by 2: {list(c_values)}")
        order = r + 1
        if len(specs) <= order:
            return [self.homfly(spec).poly for spec in specs]
        # members share the prefix, r and the parity of c: one check covers all
        self._check_knot(specs[0])
        start = min(range(len(specs) - order + 1),
                    key=lambda s: sum(abs(c) for c in c_values[s:s + order]))
        canon: List[Optional[LaurentPoly]] = [None] * len(specs)
        raw: List[Optional[LaurentPoly]] = [None] * len(specs)
        for i in range(start, start + order):
            seed = self.homfly(specs[i])
            canon[i] = seed.poly
            if seed.framing_unit is not None:
                raw[i] = seed.poly.shift(seed.framing_unit)
                continue
            # served from the store: the raw value needs the unit, so assemble
            raw[i] = self.homfly_rational(specs[i]).to_poly()
            if canonicalize_framing(raw[i])[1] != seed.poly:
                raise CorruptStore(
                    f"stored value of {specs[i].label()} disagrees with assembly")
        coeffs = _char_poly(build_Tbar(r, 2))
        inv_const = coeffs[0].as_monomial().inverse()
        forward = range(start + order, len(specs))
        backward = range(start - 1, -1, -1)
        for i in [*forward, *backward]:
            started = time.monotonic()
            if i > start:
                raw[i] = -_dot(coeffs[:order], raw[i - order:i])
            else:
                raw[i] = (-_dot(coeffs[1:], raw[i + 1:i + order + 1])
                          ).shift(inv_const)
            unit, canon[i] = canonicalize_framing(raw[i])
            key = cache_key(specs[i].params, r)
            result = HomflyResult(canon[i], specs[i], unit)
            with self._lock:
                fresh = self._memo.setdefault(key, result) is result
            if fresh and self.cache is not None:
                self.cache.put(key, canon[i], time.monotonic() - started)
        return canon

    def homfly_rational(self, spec: PretzelSpec) -> RationalFn:
        """The assembled invariant before polynomial conversion or framing.

        For an even number of all-odd parameters the diagram closes to a
        two-component link and the denominator does not clear; this is the
        form in which such values exist at all.
        """
        r = spec.rep
        if r > self.rep_cap:
            raise RepCapExceeded(f"r={r} exceeds the configured cap {self.rep_cap}")
        g = spec.genus
        rows = [self.twist_row(r, n) for n in spec.params]
        _, S, _ = self.matrices(r)
        total = RationalFn.zero()
        for x in range(r + 1):
            term = rows[0][x]
            for row in rows[1:]:
                term = term * row[x]
            term = term * S[0][x].inverse() ** (g - 1)
            total = total + term.to_rational()
        return self.chi_single_row(r) * total

    def _compute(self, spec: PretzelSpec) -> Tuple[LaurentPoly, Monomial]:
        poly = self.homfly_rational(spec).to_poly()
        unit, canon = canonicalize_framing(poly)
        return canon, unit


def _char_poly(roots: Sequence[Monomial]) -> List[LaurentPoly]:
    """Coefficients of prod_k (x - root_k), constant term first; the
    constant term is the monomial (-1)^len(roots) prod_k root_k."""
    coeffs = [LaurentPoly.one()]
    for root in roots:
        neg = Monomial(-root.sign, root.expA, root.expQ)
        coeffs = [lower + c for lower, c in
                  zip([LaurentPoly.zero()] + coeffs,
                      [c.shift(neg) for c in coeffs] + [LaurentPoly.zero()])]
    return coeffs


def _dot(coeffs: Sequence[LaurentPoly],
         values: Sequence[LaurentPoly]) -> LaurentPoly:
    total = LaurentPoly.zero()
    for c, v in zip(coeffs, values):
        total = total + c * v
    return total


_default_engine = HomflyEngine()


def homfly(spec: PretzelSpec, engine: Optional[HomflyEngine] = None) -> HomflyResult:
    """Normalized [r]-colored HOMFLY polynomial of the pretzel knot."""
    return (engine or _default_engine).homfly(spec)


def permutation_check(params: Sequence[int], r: int,
                      engine: Optional[HomflyEngine] = None) -> bool:
    """True iff the invariant agrees exactly across all six parameter orders."""
    from itertools import permutations

    if len(params) != 3:
        raise ValueError("permutation check is defined for genus 2 only")
    eng = engine or _default_engine
    # bypass the sorted cache key: evaluate each ordering end to end
    polys = set()
    for perm in permutations(params):
        poly, _ = eng._compute(PretzelSpec(perm, r))
        polys.add(poly.key())
    return len(polys) == 1
