"""Normalized colored HOMFLY polynomials of pretzel knots.

The genus-g invariant is chi_[r] sum_x prod_i row_i[x] / S_0x^(g-1), with one
row 0 of S-bar T-bar^n S per parameter n.  Each row entry is
rho_x sqrt(chi_x) and S_0x = s_0x sqrt(chi_x) (see racah), so the g+1 row
roots over the g-1 roots of S_0x^(g-1) leave chi_x, and the summand is the
rational prod_i rho_{i,x} chi_x / s_0x^(g-1) at every genus.

T-bar carries the topological framing, so the polynomial of a knot is already
canonical: 1 at A=q, with an A=1 slice palindromic under q -> 1/q.
canonicalize_framing checks that for every value the engine assembles, reads
from the store or derives in a family; nothing is shifted by a unit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from .cache import HomflyCache, cache_key
from .errors import CorruptStore, EngineError, NoCanonicalUnit, RepCapExceeded
from .laurent import LaurentPoly, Monomial
from .qcore import RationalFn, chi_rows, chi_two_row
from .racah import build_S, build_Sbar, build_Tbar, twist_row
from .symfunc import YoungDiagram, schur_hook

REP_CAP = 5  # largest r the engine computes


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


def canonicalize_framing(p: LaurentPoly) -> LaurentPoly:
    """Check that a value is in the canonical framing and return it unchanged.

    The canonical representative evaluates to 1 at A=q (the N=1
    specialization collapses every knot invariant) and has an A=1 slice
    palindromic under q -> 1/q; its coefficients then sum to 1 at A=q=1.
    T-bar carries the topological framing, so the assembly meets both
    without a shift.  Any other value, zero included, raises NoCanonicalUnit.

    One pass over the terms sums the coefficients of p(A=q) by q-exponent
    eq + ea and those of the A=1 slice by eq; zero sums are kept, which
    neither check minds.
    """
    at_aq: Dict[int, int] = {}
    slice_a1: Dict[int, int] = {}
    for (ea, eq), c in p.terms.items():
        at_aq[eq + ea] = at_aq.get(eq + ea, 0) + c
        slice_a1[eq] = slice_a1.get(eq, 0) + c
    if at_aq.get(0) != 1 or any(c for e, c in at_aq.items() if e):
        text = LaurentPoly({(0, e): c for e, c in at_aq.items()}).to_text()
        raise NoCanonicalUnit(f"A=q slice is {text}, not 1")
    if any(slice_a1.get(-e, 0) != c for e, c in slice_a1.items()):
        raise NoCanonicalUnit("A=1 slice is not palindromic under q -> 1/q")
    return p


class HomflyEngine:
    """Computes pretzel HOMFLY polynomials with matrix/row/result memoization.

    Racah matrices, twist rows, genus-g weights and results are plain dict
    memos, each built once per key.  Single-threaded: not safe for
    concurrent use.
    """

    def __init__(self, cache: Optional[HomflyCache] = None):
        self.cache = cache
        self._S: Dict[int, list] = {}
        self._Sbar: Dict[int, list] = {}
        self._rows: Dict[Tuple[int, int], List[RationalFn]] = {}
        self._weights: Dict[Tuple[int, int], List[RationalFn]] = {}
        self._chi: Dict[int, RationalFn] = {}
        self._memo: Dict[tuple, LaurentPoly] = {}

    # -- shared building blocks -------------------------------------------

    def matrices(self, r: int):
        """The rational parts (s, s-bar) of S and S-bar."""
        if r not in self._S:
            self._S[r] = build_S(r)
            self._Sbar[r] = build_Sbar(r)
        return self._S[r], self._Sbar[r]

    def twist_row(self, r: int, n: int) -> List[RationalFn]:
        if (r, n) not in self._rows:
            self._rows[(r, n)] = twist_row(r, n, *self.matrices(r))
        return self._rows[(r, n)]

    def _sum_weights(self, r: int, g: int) -> List[RationalFn]:
        """chi_x / s_0x^(g-1), the rational weight of x in the genus-g sum."""
        if (r, g) not in self._weights:
            s = self.matrices(r)[0]
            self._weights[(r, g)] = [chi_two_row(r, x) / s[0][x] ** (g - 1)
                                     for x in range(r + 1)]
        return self._weights[(r, g)]

    def chi_single_row(self, r: int) -> RationalFn:
        """chi_{[r,0]}, cross-checked against the hook-product Schur value."""
        if r not in self._chi:
            chi = chi_rows(r, 0)
            if chi != schur_hook(YoungDiagram([r])):
                raise EngineError(
                    f"chi_[{r},0] disagrees with the hook-product Schur value")
            self._chi[r] = chi
        return self._chi[r]

    # -- the invariant ------------------------------------------------------

    def _check_knot(self, spec: PretzelSpec):
        _check_rep(spec.rep)
        if not spec.all_odd:
            raise ValueError(f"pretzel parameters must all be odd: {spec.params}")

    def homfly(self, spec: PretzelSpec) -> LaurentPoly:
        self._check_knot(spec)
        key = cache_key(spec.params, spec.rep)
        poly = self._memo.get(key)
        if poly is not None:
            return poly
        if self.cache is not None:
            stored = self.cache.get(key)
            if stored is not None:
                try:
                    poly = self._memo[key] = canonicalize_framing(stored)
                except NoCanonicalUnit as exc:
                    raise CorruptStore(
                        f"stored value of {spec.label()}: {exc}") from exc
                return poly
        return self._keep(
            key, canonicalize_framing(self.homfly_rational(spec).to_poly()))

    def _keep(self, key: tuple, poly: LaurentPoly) -> LaurentPoly:
        """Memoise a checked value and write it to the store."""
        self._memo[key] = poly
        if self.cache is not None:
            self.cache.put(key, poly)
        return poly

    def family(self, prefix: Sequence[int], c_values: Sequence[int],
               r: int) -> List[LaurentPoly]:
        """Polynomials of the knots prefix + (c,), c in c_values.

        c_values steps by 2.  The last parameter enters the assembled sum
        only through T-bar^c, and T-bar carries the topological framing, so
        the members themselves obey a linear recurrence of order r+1 whose
        characteristic roots are the diagonal entries mu_k = A^2k q^2k(k-1)
        of T-bar^2.  The r+1 consecutive members nearest c = 0, the
        cheapest to assemble, are seeds and come through homfly(): from the
        memo, the store or assembly.  Every other member takes
        monomial-coefficient steps forward or backward from them, then is
        checked and memoised; a member the store lacks is written, and one
        it holds must equal the derived value, else CorruptStore.  A window
        of at most r+1 members is all seeds, so no knot outside the window
        is ever assembled.
        """
        specs = [PretzelSpec(tuple(prefix) + (c,), r) for c in c_values]
        if any(d - c != 2 for c, d in zip(c_values, c_values[1:])):
            raise ValueError(f"family members must step by 2: {list(c_values)}")
        order = r + 1
        if len(specs) <= order:
            return [self.homfly(spec) for spec in specs]
        # members share the prefix, r and the parity of c: one check covers all
        self._check_knot(specs[0])
        start = min(range(len(specs) - order + 1),
                    key=lambda s: sum(abs(c) for c in c_values[s:s + order]))
        members: List[Optional[LaurentPoly]] = [None] * len(specs)
        for i in range(start, start + order):
            members[i] = self.homfly(specs[i])
        coeffs = _char_poly(build_Tbar(r, 2))
        inv_const = coeffs[0].as_monomial().inverse()
        forward = range(start + order, len(specs))
        backward = range(start - 1, -1, -1)
        for i in [*forward, *backward]:
            if i > start:
                member = -_dot(coeffs[:order], members[i - order:i])
            else:
                member = (-_dot(coeffs[1:], members[i + 1:i + order + 1])
                          ).shift(inv_const)
            members[i] = canonicalize_framing(member)
            key = cache_key(specs[i].params, r)
            if key in self._memo:
                continue
            stored = self.cache.get(key) if self.cache is not None else None
            if stored is None:
                self._keep(key, members[i])
            elif stored != members[i]:
                raise CorruptStore(f"stored value of {specs[i].label()} "
                                   "differs from its family recurrence")
            else:
                self._memo[key] = stored
        return members

    def homfly_rational(self, spec: PretzelSpec) -> RationalFn:
        """The assembled invariant before polynomial conversion and the
        framing check.

        For an even number of all-odd parameters the diagram closes to a
        two-component link and the denominator does not clear; this is the
        form in which such values exist at all.
        """
        r = spec.rep
        _check_rep(r)
        rows = [self.twist_row(r, n) for n in spec.params]
        total = RationalFn.zero()
        for x, weight in enumerate(self._sum_weights(r, spec.genus)):
            term = rows[0][x]
            for row in rows[1:]:
                term = term * row[x]
            total = total + term * weight
        return self.chi_single_row(r) * total


def _check_rep(r: int):
    if r > REP_CAP:
        raise RepCapExceeded(f"r={r} exceeds the configured cap {REP_CAP}")


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


def homfly(spec: PretzelSpec, engine: Optional[HomflyEngine] = None) -> LaurentPoly:
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
        poly = eng.homfly_rational(PretzelSpec(perm, r)).to_poly()
        polys.add(canonicalize_framing(poly).key())
    return len(polys) == 1
