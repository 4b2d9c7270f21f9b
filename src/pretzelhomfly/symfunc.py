"""Schur functions at the topological locus.

Two independent routes to the same value:

* :func:`schur_jacobi_trudi` builds s_lambda as the determinant of complete
  homogeneous pieces h_n, each expanded as an explicit sum over integer
  partitions with power sums specialized to p_i* = {A^i}/{q^i};
* :func:`schur_hook` evaluates the closed hook/content product directly.

The partition weights 1/(i^{x_i} x_i!) force rational coefficients in the
intermediate h_n, so this module carries a small Fraction-coefficient
polynomial layer internally.  Final Schur values are returned as ordinary
:class:`RationalFn` with integer coefficients.

Convention note: diagrams are given by row lengths, and the content exponent
of the box in (0-based) row i, column j is j - i.  The opposite sign fails the
Jacobi-Trudi cross-check already for the diagram [2], which is how the choice
was fixed.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial, gcd
from typing import Dict, Iterator, List, Sequence, Tuple

from .errors import DiagramTooLarge, OutOfRange
from .laurent import LaurentPoly
from .qcore import RationalFn, qbracket_Aq, qbracket_q

MAX_ROWS = 8

FracTerms = Dict[Tuple[int, int], Fraction]


class YoungDiagram:
    """A partition given by weakly decreasing positive row lengths."""

    __slots__ = ("rows",)

    def __init__(self, rows: Sequence[int]):
        rows = [int(r) for r in rows if r != 0]
        if any(r < 0 for r in rows):
            raise ValueError("row lengths must be positive")
        if any(rows[i] < rows[i + 1] for i in range(len(rows) - 1)):
            raise ValueError("row lengths must be weakly decreasing")
        self.rows = tuple(rows)

    @property
    def size(self) -> int:
        return sum(self.rows)

    def boxes(self) -> Iterator[Tuple[int, int]]:
        for i, r in enumerate(self.rows):
            for j in range(r):
                yield i, j

    def hook(self, i: int, j: int) -> int:
        arm = self.rows[i] - j - 1
        leg = sum(1 for r in self.rows[i + 1:] if r > j)
        return arm + leg + 1

    def content(self, i: int, j: int) -> int:
        return j - i

    def __eq__(self, other):
        return isinstance(other, YoungDiagram) and self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def __repr__(self):
        return f"YoungDiagram({list(self.rows)!r})"


# -- Fraction-coefficient polynomial helpers (internal) --------------------

def _fadd(a: FracTerms, b: FracTerms) -> FracTerms:
    out = dict(a)
    for e, c in b.items():
        s = out.get(e, 0) + c
        if s:
            out[e] = s
        elif e in out:
            del out[e]
    return out


def _fmul(a: FracTerms, b: FracTerms) -> FracTerms:
    out: FracTerms = {}
    for (a1, q1), c1 in a.items():
        for (a2, q2), c2 in b.items():
            e = (a1 + a2, q1 + q2)
            s = out.get(e, 0) + c1 * c2
            if s:
                out[e] = s
            elif e in out:
                del out[e]
    return out


def _f_from_poly(p: LaurentPoly) -> FracTerms:
    return {e: Fraction(c) for e, c in p.terms.items()}


@lru_cache(maxsize=None)
def _den_terms(factors: Tuple[Tuple[int, int], ...]) -> FracTerms:
    """Expanded product of q-brackets given as ((i, multiplicity), ...)."""
    p = LaurentPoly.one()
    for i, mult in factors:
        for _ in range(mult):
            p = p * qbracket_q(i)
    return _f_from_poly(p)


class _FracRational:
    """num: Fraction-coefficient Laurent terms; den: multiset of q-brackets.

    The denominator is kept as {i: multiplicity} meaning prod {q^i}^mult and
    additions go over the factorwise least common multiple, so denominators
    stay bounded instead of growing multiplicatively with every operation.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: FracTerms, den: Dict[int, int]):
        self.num = num
        self.den = den

    @staticmethod
    def zero() -> "_FracRational":
        return _FracRational({}, {})

    @staticmethod
    def one() -> "_FracRational":
        return _FracRational({(0, 0): Fraction(1)}, {})

    def _lift(self, target: Dict[int, int]) -> FracTerms:
        extra = tuple(sorted((i, m - self.den.get(i, 0))
                             for i, m in target.items()
                             if m - self.den.get(i, 0)))
        if not extra:
            return self.num
        return _fmul(self.num, _den_terms(extra))

    def __add__(self, other: "_FracRational") -> "_FracRational":
        lcm = {i: max(self.den.get(i, 0), other.den.get(i, 0))
               for i in set(self.den) | set(other.den)}
        return _FracRational(_fadd(self._lift(lcm), other._lift(lcm)), lcm)

    def __mul__(self, other: "_FracRational") -> "_FracRational":
        den = dict(self.den)
        for i, m in other.den.items():
            den[i] = den.get(i, 0) + m
        return _FracRational(_fmul(self.num, other.num), den)

    def __neg__(self) -> "_FracRational":
        return _FracRational({e: -c for e, c in self.num.items()}, self.den)

    def scale(self, w: Fraction) -> "_FracRational":
        if not w:
            return _FracRational.zero()
        return _FracRational({e: c * w for e, c in self.num.items()}, self.den)

    def to_rational(self) -> RationalFn:
        """Clear coefficient denominators into a scalar and return num/den."""
        lcm = 1
        for c in self.num.values():
            d = c.denominator
            g = gcd(lcm, d)
            lcm = lcm // g * d
        int_num = LaurentPoly({e: int(c * lcm) for e, c in self.num.items()})
        out = RationalFn.from_poly(int_num)
        for i, mult in sorted(self.den.items()):
            for _ in range(mult):
                out = out.div_poly(qbracket_q(i))
        if lcm != 1:
            out = out.div_poly(LaurentPoly.const(lcm))
        return out


def _partitions_with_mults(n: int) -> Iterator[Dict[int, int]]:
    """All {part: multiplicity} maps with sum(part * mult) = n."""

    def rec(remaining: int, largest: int) -> Iterator[Dict[int, int]]:
        if remaining == 0:
            yield {}
            return
        for part in range(min(remaining, largest), 0, -1):
            for mult in range(remaining // part, 0, -1):
                for rest in rec(remaining - part * mult, part - 1):
                    out = {part: mult}
                    out.update(rest)
                    yield out

    return rec(n, n)


@lru_cache(maxsize=None)
def _p_star(i: int) -> _FracRational:
    """Power sum at the special point: p_i* = {A^i}/{q^i}."""
    num = LaurentPoly({(i, 0): 1, (-i, 0): -1})
    return _FracRational(_f_from_poly(num), {i: 1})


@lru_cache(maxsize=None)
def _h_special(n: int) -> _FracRational:
    """h_n at the special point via the explicit partition expansion."""
    if n < 0:
        return _FracRational.zero()
    total = _FracRational.zero()
    for mults in _partitions_with_mults(n):
        term = _FracRational.one()
        weight = Fraction(1)
        for part, mult in mults.items():
            weight /= Fraction(part ** mult * factorial(mult))
            p = _p_star(part)
            for _ in range(mult):
                term = term * p
        total = total + term.scale(weight)
    return total


def h_at_special(n: int, cap: int = 48) -> RationalFn:
    """Complete homogeneous h_n at the special point, 0 <= n <= cap."""
    if n < 0 or n > cap:
        raise OutOfRange(f"h_at_special({n}) with cap {cap}")
    return _h_special(n).to_rational()


def schur_jacobi_trudi(diagram: YoungDiagram) -> RationalFn:
    """s_lambda at the special point via det(h_{lambda_i - i + j})."""
    n = len(diagram.rows)
    if n > MAX_ROWS:
        raise DiagramTooLarge(f"{n} rows exceeds the supported {MAX_ROWS}")
    if n == 0:
        return RationalFn.one()
    entries = [[_h_special(diagram.rows[i] - i + j) for j in range(n)]
               for i in range(n)]
    det = _det(entries)
    return det.to_rational()


def _det(m: List[List[_FracRational]]) -> _FracRational:
    n = len(m)
    memo: Dict[Tuple[int, Tuple[int, ...]], _FracRational] = {}

    def minor(i: int, cols: Tuple[int, ...]) -> _FracRational:
        if i == n:
            return _FracRational.one()
        key = (i, cols)
        hit = memo.get(key)
        if hit is not None:
            return hit
        total = _FracRational.zero()
        for pos, j in enumerate(cols):
            if not m[i][j].num:
                continue
            cof = m[i][j] * minor(i + 1, cols[:pos] + cols[pos + 1:])
            total = total + (cof if pos % 2 == 0 else -cof)
        memo[key] = total
        return total

    return minor(0, tuple(range(n)))


def schur_hook(diagram: YoungDiagram) -> RationalFn:
    """s_lambda at the special point via the hook/content product."""
    num = []
    den = []
    for i, j in diagram.boxes():
        num.append(qbracket_Aq(diagram.content(i, j)))
        den.append(qbracket_q(diagram.hook(i, j)))
    from .qcore import rational_from_factors
    return rational_from_factors(num, den)
