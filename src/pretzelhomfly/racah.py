"""Racah matrices S, S-bar and the diagonal twist T-bar for symmetric [r].

Entries carry formal square roots over a fixed radicand basis (the Delta_k,
the two-row chi_m and the odd quantum integers [2k+1]).  A product only ever
pairs a radical with itself, so exponents mod 2 suffice: a basis element
appearing twice collapses into the rational coefficient as its radicand.
Branch signs of individual square roots are never chosen; any operation that
would need one raises RadicalResidue instead.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

from .errors import IndexOutOfRange, RadicalResidue
from .laurent import LaurentPoly, Monomial
from .qcore import RationalFn, bigD, bigG, chi_two_row, delta, qfact_ratio

RadKey = Tuple[str, int]


class RadicalContext:
    """Radicand basis for a fixed representation size r."""

    def __init__(self, r: int):
        if r < 1:
            raise IndexOutOfRange("representation size must be >= 1")
        self.r = r
        self._radicands: Dict[RadKey, RationalFn] = {}
        self._trivial: Dict[RadKey, bool] = {}

    def radicand(self, key: RadKey) -> RationalFn:
        if key not in self._radicands:
            kind, idx = key
            if kind == "delta":
                value = delta(idx)
            elif kind == "chi":
                value = chi_two_row(self.r, idx)
            elif kind == "odd":
                value = qfact_ratio([idx], [idx - 1])  # [idx]
            else:
                raise IndexOutOfRange(f"unknown radicand basis key {key}")
            self._radicands[key] = value
            self._trivial[key] = value == RationalFn.one()
        return self._radicands[key]

    def is_trivial(self, key: RadKey) -> bool:
        self.radicand(key)
        return self._trivial[key]


class RadicalValue:
    """A rational function times a product of formal square roots."""

    __slots__ = ("ctx", "coeff", "rad")

    def __init__(self, ctx: RadicalContext, coeff: RationalFn,
                 rad: FrozenSet[RadKey] = frozenset()):
        self.ctx = ctx
        self.coeff = coeff
        self.rad = frozenset(k for k in rad if not ctx.is_trivial(k))

    @staticmethod
    def rational(ctx: RadicalContext, coeff: RationalFn) -> "RadicalValue":
        return RadicalValue(ctx, coeff)

    def mul_sqrt(self, key: RadKey) -> "RadicalValue":
        """Multiply by the formal square root of one basis element."""
        if self.ctx.is_trivial(key):
            return self
        if key in self.rad:
            return RadicalValue(self.ctx, self.coeff * self.ctx.radicand(key),
                                self.rad - {key})
        return RadicalValue(self.ctx, self.coeff, self.rad | {key})

    def div_sqrt(self, key: RadKey) -> "RadicalValue":
        """Multiply by 1/sqrt(x) = sqrt(x)/x."""
        if self.ctx.is_trivial(key):
            return self
        return self.mul_sqrt(key).scale(self.ctx.radicand(key).inverse())

    def scale(self, rf: RationalFn) -> "RadicalValue":
        return RadicalValue(self.ctx, self.coeff * rf, self.rad)

    def scale_mono(self, m: Monomial) -> "RadicalValue":
        return RadicalValue(self.ctx, self.coeff.mul_poly(m.as_poly()), self.rad)

    def __mul__(self, other: "RadicalValue") -> "RadicalValue":
        coeff = self.coeff * other.coeff
        for key in self.rad & other.rad:
            coeff = coeff * self.ctx.radicand(key)
        return RadicalValue(self.ctx, coeff, self.rad ^ other.rad)

    def __add__(self, other: "RadicalValue") -> "RadicalValue":
        if self.coeff.is_zero:
            return other
        if other.coeff.is_zero:
            return self
        if self.rad != other.rad:
            raise RadicalResidue(
                f"cannot add radicals {sorted(self.rad)} and {sorted(other.rad)}")
        return RadicalValue(self.ctx, self.coeff + other.coeff, self.rad)

    def __neg__(self) -> "RadicalValue":
        return RadicalValue(self.ctx, -self.coeff, self.rad)

    def inverse(self) -> "RadicalValue":
        """1/(c sqrt(R)) = sqrt(R) / (c R)."""
        coeff = self.coeff
        for key in self.rad:
            coeff = coeff * self.ctx.radicand(key)
        return RadicalValue(self.ctx, coeff.inverse(), self.rad)

    def __pow__(self, n: int) -> "RadicalValue":
        if n < 0:
            return self.inverse() ** (-n)
        out = RadicalValue.rational(self.ctx, RationalFn.one())
        for _ in range(n):
            out = out * self
        return out

    @property
    def is_zero(self) -> bool:
        return self.coeff.is_zero

    def to_rational(self) -> RationalFn:
        if self.rad:
            raise RadicalResidue(
                f"uncancelled radical {sorted(self.rad)} in conversion")
        return self.coeff

    def squared(self) -> RationalFn:
        out = self.coeff * self.coeff
        for key in self.rad:
            out = out * self.ctx.radicand(key)
        return out

    def __repr__(self):
        rads = " ".join(f"sqrt({kind}_{idx})" for kind, idx in sorted(self.rad))
        return f"RadicalValue({self.coeff.to_text()}{' ' + rads if rads else ''})"


# -- matrix construction ---------------------------------------------------

def sigma(k: int, m: int, j: int, r: int, ctx: Optional[RadicalContext] = None
          ) -> RadicalValue:
    """The sign/factorial weight sigma_{km}(j) carrying sqrt([2k+1][2m+1])."""
    if not (0 <= k <= r and 0 <= m <= r):
        raise IndexOutOfRange(f"sigma indices k={k}, m={m} outside 0..{r}")
    if not (max(r + m, r + k) <= j <= min(r + k + m, 2 * r)):
        raise IndexOutOfRange(f"sigma summation index j={j} out of range")
    ctx = ctx or RadicalContext(r)
    sign = -1 if (r + k + m + j) % 2 else 1
    num = [k, k, m, m, r - k, r - m, j + 1]
    den = [r + k + 1, r + m + 1, 2 * r - j]
    for t in (j - r - k, j - r - m, r + k + m - j):
        den.extend([t, t])
    coeff = qfact_ratio(num, den).mul_poly(LaurentPoly.const(sign))
    out = RadicalValue.rational(ctx, coeff)
    return out.mul_sqrt(("odd", 2 * k + 1)).mul_sqrt(("odd", 2 * m + 1))


def build_S(r: int, ctx: Optional[RadicalContext] = None
            ) -> List[List[RadicalValue]]:
    """The (r+1)x(r+1) Racah matrix S of Eq.-type
    S_km = sum_j sigma_km(j) sqrt([2m+1] Delta_k / ([2k+1] chi_m))
           G(r-m) G(j+1) / (G(r+k+1) G(j-r-m))."""
    ctx = ctx or RadicalContext(r)
    matrix = []
    for k in range(r + 1):
        row = []
        for m in range(r + 1):
            total = RadicalValue.rational(ctx, RationalFn.zero())
            for j in range(max(r + m, r + k), min(r + k + m, 2 * r) + 1):
                term = sigma(k, m, j, r, ctx)
                term = (term.mul_sqrt(("odd", 2 * m + 1))
                            .mul_sqrt(("delta", k))
                            .div_sqrt(("odd", 2 * k + 1))
                            .div_sqrt(("chi", m)))
                gfac = (bigG(r - m) * bigG(j + 1)
                        / (bigG(r + k + 1) * bigG(j - r - m)))
                term = term.scale(gfac)
                total = total + term
            if not total.rad <= {("delta", k), ("chi", m)}:
                raise RadicalResidue(
                    f"S[{k}][{m}] has unexpected radical {sorted(total.rad)}")
            row.append(total)
        matrix.append(row)
    return matrix


def build_Sbar(r: int, ctx: Optional[RadicalContext] = None
               ) -> List[List[RadicalValue]]:
    """The (r+1)x(r+1) Racah matrix S-bar with prefactor [r+1]! / prod D_i."""
    ctx = ctx or RadicalContext(r)
    prefactor = qfact_ratio([r + 1])
    for i in range(r):
        prefactor = prefactor / bigD(i)
    matrix = []
    for k in range(r + 1):
        row = []
        for m in range(r + 1):
            total = RadicalValue.rational(ctx, RationalFn.zero())
            for j in range(max(r + m, r + k), min(r + k + m, 2 * r) + 1):
                term = sigma(k, m, j, r, ctx)
                term = (term.mul_sqrt(("delta", k))
                            .mul_sqrt(("delta", m))
                            .div_sqrt(("odd", 2 * k + 1))
                            .div_sqrt(("odd", 2 * m + 1)))
                gfac = (bigG(r + 1) * bigG(j + 1)
                        / (bigG(r + k + 1) * bigG(r + m + 1)
                           * bigG(r + k + m - j)))
                term = term.scale(gfac)
                total = total + term
            total = total.scale(prefactor)
            if not total.rad <= {("delta", k), ("delta", m)}:
                raise RadicalResidue(
                    f"Sbar[{k}][{m}] has unexpected radical {sorted(total.rad)}")
            row.append(total)
        matrix.append(row)
    return matrix


def build_Tbar(r: int, n: int = 1) -> List[Monomial]:
    """Diagonal of T-bar^n: entry m is (-q^(m-1) A)^(m n)."""
    if r < 1:
        raise IndexOutOfRange("representation size must be >= 1")
    out = []
    for m in range(r + 1):
        e = m * n
        out.append(Monomial(-1 if e % 2 else 1, e, (m - 1) * e))
    return out


def first_row_squares_at(matrix: List[List[RadicalValue]],
                         mono: Monomial) -> List[Optional[RationalFn]]:
    """Squares of the row-0 entries specialized at A -> mono.

    Squaring removes the formal radicals, so each entry becomes an honest
    rational function.  An entry with a genuine pole at the point is reported
    as None rather than raising; the first rows do develop poles at
    A = +-1/q once r >= 2.
    """
    from .errors import DivisionByZero

    out: List[Optional[RationalFn]] = []
    for entry in matrix[0]:
        try:
            out.append(entry.squared().substitute("A", mono))
        except DivisionByZero:
            out.append(None)
    return out


def twist_row(r: int, n: int, S: Optional[List[List[RadicalValue]]] = None,
              Sbar: Optional[List[List[RadicalValue]]] = None,
              ctx: Optional[RadicalContext] = None) -> List[RadicalValue]:
    """Row 0 of S-bar . T-bar^n . S; entry x carries exactly sqrt(chi_x)."""
    ctx = ctx or RadicalContext(r)
    S = S if S is not None else build_S(r, ctx)
    Sbar = Sbar if Sbar is not None else build_Sbar(r, ctx)
    tbar = build_Tbar(r, n)
    row = []
    for x in range(r + 1):
        total = RadicalValue.rational(ctx, RationalFn.zero())
        for k in range(r + 1):
            total = total + (Sbar[0][k] * S[k][x]).scale_mono(tbar[k])
        if not total.rad <= {("chi", x)}:
            raise RadicalResidue(
                f"twist row entry {x} has unexpected radical {sorted(total.rad)}")
        row.append(total)
    return row
