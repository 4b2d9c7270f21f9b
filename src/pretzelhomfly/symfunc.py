"""Schur functions at the topological locus.

Two independent routes to the same value:

* :func:`schur_jacobi_trudi` builds s_lambda as the determinant of complete
  homogeneous pieces h_n, each expanded as an explicit sum over integer
  partitions with power sums specialized to p_i* = {A^i}/{q^i};
* :func:`schur_hook` evaluates the closed hook/content product directly.

Both routes compute in :class:`RationalFn`.  The q-brackets {q^i} and {Aq^c}
enter already factored over its basis, and each partition weight
1/(i^{x_i} x_i!) goes into its positive integer denominator, so the
Jacobi-Trudi sums need no rational-coefficient layer of their own.

Convention note: diagrams are given by row lengths, and the content exponent
of the box in (0-based) row i, column j is j - i.  The opposite sign fails the
Jacobi-Trudi cross-check already for the diagram [2], which is how the choice
was fixed.
"""

from __future__ import annotations

from functools import lru_cache
from math import factorial
from typing import Dict, Iterator, List, Sequence, Tuple

from .errors import DiagramTooLarge, OutOfRange
from .laurent import LaurentPoly
from .qcore import RationalFn, bracket_Aq, bracket_q

MAX_ROWS = 8
# largest n that h_at_special and schur_jacobi_trudi accept: _h_special(n)
# sums over all partitions of n, and n = 15 takes about 2 s (16 takes 2.7 s)
H_CAP = 15


class YoungDiagram:
    """A partition given by weakly decreasing positive row lengths."""

    __slots__ = ("rows",)

    def __init__(self, rows: Sequence[int]):
        if any(type(r) is not int for r in rows):
            raise ValueError("row lengths must be integers")
        rows = [r for r in rows if r != 0]
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
def _p_star(i: int) -> RationalFn:
    """Power sum at the special point: p_i* = {A^i}/{q^i}."""
    num = LaurentPoly({(i, 0): 1, (-i, 0): -1})
    return RationalFn.from_poly(num) / bracket_q(i)


@lru_cache(maxsize=None)
def _h_special(n: int) -> RationalFn:
    """h_n at the special point via the explicit partition expansion."""
    if n < 0:
        return RationalFn.zero()
    total = RationalFn.zero()
    for mults in _partitions_with_mults(n):
        term = RationalFn.one()
        z = 1
        for part, mult in mults.items():
            z *= part ** mult * factorial(mult)
            term = term * _p_star(part) ** mult
        total = total + term.div_poly(LaurentPoly.const(z))
    return total


def h_at_special(n: int) -> RationalFn:
    """Complete homogeneous h_n at the special point, 0 <= n <= H_CAP."""
    if n < 0 or n > H_CAP:
        raise OutOfRange(f"h_at_special({n}) with cap {H_CAP}")
    return _h_special(n)


def schur_jacobi_trudi(diagram: YoungDiagram) -> RationalFn:
    """s_lambda at the special point via det(h_{lambda_i - i + j})."""
    n = len(diagram.rows)
    if n > MAX_ROWS:
        raise DiagramTooLarge(f"{n} rows exceeds the supported {MAX_ROWS}")
    # the largest entry index, h_(rows[0] + n - 1), sits in the top right
    if n and diagram.rows[0] + n - 1 > H_CAP:
        raise DiagramTooLarge(
            f"needs h_{diagram.rows[0] + n - 1}, beyond the supported {H_CAP}")
    return _det([[_h_special(diagram.rows[i] - i + j) for j in range(n)]
                 for i in range(n)])


def _det(m: List[List[RationalFn]]) -> RationalFn:
    n = len(m)
    memo: Dict[Tuple[int, Tuple[int, ...]], RationalFn] = {}

    def minor(i: int, cols: Tuple[int, ...]) -> RationalFn:
        if i == n:
            return RationalFn.one()
        key = (i, cols)
        hit = memo.get(key)
        if hit is not None:
            return hit
        total = RationalFn.zero()
        for pos, j in enumerate(cols):
            if m[i][j].is_zero:
                continue
            cof = m[i][j] * minor(i + 1, cols[:pos] + cols[pos + 1:])
            total = total + (cof if pos % 2 == 0 else -cof)
        memo[key] = total
        return total

    return minor(0, tuple(range(n)))


def schur_hook(diagram: YoungDiagram) -> RationalFn:
    """s_lambda at the special point via the hook/content product."""
    out = RationalFn.one()
    for i, j in diagram.boxes():
        out = (out * bracket_Aq(diagram.content(i, j))
               / bracket_q(diagram.hook(i, j)))
    return out
