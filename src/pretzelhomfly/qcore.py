"""Quantum-number combinatorics and exact rational functions over the Laurent ring.

A :class:`RationalFn` keeps its denominator as a multiset of unit-stripped
polynomial factors rather than a single expanded polynomial.  Sums then share
denominators factor-by-factor (multiset max instead of a full product), and
cancellation is trial exact division against each factor, so no general GCD is
ever needed.  Factors are kept as they arrive, never factored further: a
quantum bracket {q^j} or {Aq^j} stays a binomial, but ``inverse()`` moves a
whole numerator into the bag and ``div_sqrt`` (in racah) divides by a whole
radicand.  At r = 3 the S and S-bar entries carry 13 distinct denominator
factors, only 3 of them binomials, the largest with 346 terms; up to a unit
each splits into factors A^2 q^2k - 1 and cyclotomic Phi_d(q^2), but the bag
does not know that, so trial division is tried against the unexpanded
products.
"""

from __future__ import annotations

from math import gcd
from typing import Dict, Iterable, List, Optional, Tuple

from .errors import (DivisionByZero, NegativeInput, NotDivisible,
                     NotPolynomial, OutOfRange)
from .laurent import LaurentPoly, Monomial

# factor key -> (stripped poly, multiplicity)
FactorBag = Dict[tuple, Tuple[LaurentPoly, int]]


def qbracket(m: Monomial) -> LaurentPoly:
    """{x} = x - 1/x for a monomial x = ±A^a q^b."""
    return m.as_poly() - m.inverse().as_poly()


def qbracket_q(j: int) -> LaurentPoly:
    """{q^j}."""
    return qbracket(Monomial(1, 0, j))


def qbracket_Aq(j: int) -> LaurentPoly:
    """{Aq^j}."""
    return qbracket(Monomial(1, 1, j))


def qint(n: int) -> LaurentPoly:
    """Quantum integer [n] = q^(n-1) + q^(n-3) + ... + q^(1-n); [0] = 0."""
    if n < 0:
        raise NegativeInput(f"qint({n})")
    return LaurentPoly({(0, n - 1 - 2 * i): 1 for i in range(n)})


def qfact(n: int) -> LaurentPoly:
    """Quantum factorial [n]! = [1][2]...[n]; [0]! = 1."""
    if n < 0:
        raise NegativeInput(f"qfact({n})")
    out = LaurentPoly.one()
    for i in range(1, n + 1):
        out = out * qint(i)
    return out


def qbinom(n: int, k: int) -> LaurentPoly:
    """Gaussian binomial [n]! / ([k]! [n-k]!), always a Laurent polynomial."""
    if k < 0 or k > n:
        raise OutOfRange(f"qbinom({n},{k})")
    return qfact(n).exact_div(qfact(k) * qfact(n - k))


class RationalFn:
    """Quotient of Laurent polynomials with a factored denominator."""

    __slots__ = ("num", "den")

    def __init__(self, num: LaurentPoly, den: Optional[FactorBag] = None,
                 reduce: bool = True):
        self.num = num
        self.den = den or {}
        if reduce:
            self._reduce()

    # -- construction ------------------------------------------------------

    @staticmethod
    def from_poly(p: LaurentPoly) -> "RationalFn":
        return RationalFn(p, None, reduce=False)

    @staticmethod
    def one() -> "RationalFn":
        return RationalFn(LaurentPoly.one(), None, reduce=False)

    @staticmethod
    def zero() -> "RationalFn":
        return RationalFn(LaurentPoly.zero(), None, reduce=False)

    @staticmethod
    def from_ratio(num: LaurentPoly, *dens: LaurentPoly) -> "RationalFn":
        out = RationalFn(num, None, reduce=False)
        for d in dens:
            out = out.div_poly(d)
        return out

    # -- normalization -----------------------------------------------------

    def _reduce(self):
        if self.num.is_zero:
            self.den = {}
            return
        # pull denominator units into the numerator, drop trivial factors
        bag: FactorBag = {}
        num = self.num
        for poly, mult in self.den.values():
            unit, stripped = poly.strip_monomial()
            if not unit.is_one:
                num = num.shift((unit ** mult).inverse())
            if stripped.is_one:
                continue
            key = stripped.key()
            if key in bag:
                bag[key] = (stripped, bag[key][1] + mult)
            else:
                bag[key] = (stripped, mult)
        # integer-content cancellation against constant factors
        consts = [k for k, (p, _) in bag.items() if p.as_int() is not None]
        if consts:
            c = 1
            for k in consts:
                p, m = bag.pop(k)
                c *= p.as_int() ** m
            g = gcd(num.content(), c)
            if g > 1:
                num = LaurentPoly({e: v // g for e, v in num.terms.items()})
                c //= g
            if c != 1:
                cp = LaurentPoly.const(c)
                bag[cp.key()] = (cp, 1)
        # cancel factors dividing the numerator exactly
        for key in list(bag):
            poly, mult = bag[key]
            while mult > 0:
                try:
                    num = num.exact_div(poly)
                except NotDivisible:
                    break
                mult -= 1
            if mult:
                bag[key] = (poly, mult)
            else:
                del bag[key]
        self.num = num
        self.den = bag

    def _den_poly(self, skip: Optional[FactorBag] = None) -> LaurentPoly:
        """Expanded denominator, optionally divided by the multiset ``skip``."""
        out = LaurentPoly.one()
        for key, (poly, mult) in self.den.items():
            m = mult - (skip[key][1] if skip and key in skip else 0)
            for _ in range(m):
                out = out * poly
        return out

    # -- queries -----------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    @property
    def is_polynomial(self) -> bool:
        return not self.den

    def to_poly(self) -> LaurentPoly:
        if self.den:
            raise NotPolynomial(
                f"denominator did not clear: {self._den_poly().to_text()}")
        return self.num

    def __eq__(self, other) -> bool:
        if isinstance(other, LaurentPoly):
            other = RationalFn.from_poly(other)
        if not isinstance(other, RationalFn):
            return NotImplemented
        return self.num * other._den_poly() == other.num * self._den_poly()

    def __hash__(self):
        raise TypeError("RationalFn is unhashable; compare with ==")

    # -- arithmetic --------------------------------------------------------

    def __mul__(self, other: "RationalFn") -> "RationalFn":
        bag: FactorBag = dict(self.den)
        for key, (poly, mult) in other.den.items():
            if key in bag:
                bag[key] = (poly, bag[key][1] + mult)
            else:
                bag[key] = (poly, mult)
        return RationalFn(self.num * other.num, bag)

    def mul_poly(self, p: LaurentPoly) -> "RationalFn":
        return RationalFn(self.num * p, dict(self.den))

    def div_poly(self, p: LaurentPoly) -> "RationalFn":
        if p.is_zero:
            raise DivisionByZero("division by zero polynomial")
        bag = dict(self.den)
        key = p.key()
        if key in bag:
            bag[key] = (p, bag[key][1] + 1)
        else:
            bag[key] = (p, 1)
        return RationalFn(self.num, bag)

    def __add__(self, other: "RationalFn") -> "RationalFn":
        # common denominator: factorwise max of the two multisets
        bag: FactorBag = dict(self.den)
        for key, (poly, mult) in other.den.items():
            if key in bag:
                bag[key] = (poly, max(bag[key][1], mult))
            else:
                bag[key] = (poly, mult)
        left = self.num * _bag_quotient(bag, self.den)
        right = other.num * _bag_quotient(bag, other.den)
        return RationalFn(left + right, bag)

    def __neg__(self) -> "RationalFn":
        return RationalFn(-self.num, dict(self.den), reduce=False)

    def __sub__(self, other: "RationalFn") -> "RationalFn":
        return self + (-other)

    def inverse(self) -> "RationalFn":
        if self.num.is_zero:
            raise DivisionByZero("inverse of zero")
        num = self._den_poly()
        out = RationalFn(num, None, reduce=False)
        return out.div_poly(self.num)

    def __truediv__(self, other: "RationalFn") -> "RationalFn":
        return self * other.inverse()

    def __pow__(self, n: int) -> "RationalFn":
        if n < 0:
            return self.inverse() ** (-n)
        out = RationalFn.one()
        for _ in range(n):
            out = out * self
        return out

    # -- specialization ----------------------------------------------------

    def substitute(self, var: str, value: Monomial) -> "RationalFn":
        """Specialize one variable.  Removable singularities are cancelled
        exactly: every denominator factor that vanishes under the substitution
        is written as kernel^k * rest with the kernel A - value (or q - value),
        and the numerator must absorb the full kernel power, else the point is
        a genuine pole."""
        num = self.num
        kernel_power = 0
        finite_dens: List[Tuple[LaurentPoly, int]] = []
        kernel: Optional[LaurentPoly] = None
        for poly, mult in self.den.values():
            d = poly.substitute(var, value)
            if not d.is_zero:
                finite_dens.append((d, mult))
                continue
            if kernel is None:
                kernel = _substitution_kernel(var, value)
            k, rest = 0, poly
            while True:
                try:
                    rest = rest.exact_div(kernel)
                except NotDivisible:
                    break
                k += 1
            rest_sub = rest.substitute(var, value)
            if k == 0 or rest_sub.is_zero:
                raise DivisionByZero(
                    f"denominator factor {poly.to_text()} vanishes beyond the "
                    "linear kernel under the substitution")
            kernel_power += k * mult
            if not rest_sub.is_one:
                finite_dens.append((rest_sub, mult))
        for _ in range(kernel_power):
            try:
                num = num.exact_div(kernel)
            except NotDivisible:
                raise DivisionByZero(
                    "substitution hits a genuine pole: numerator does not "
                    f"absorb {kernel.to_text()}^{kernel_power}") from None
        out = RationalFn(num.substitute(var, value), None, reduce=False)
        for d, mult in finite_dens:
            for _ in range(mult):
                out = out.div_poly(d)
        return out

    # -- serialization -----------------------------------------------------

    def to_json(self) -> dict:
        return {
            "num": self.num.to_json(),
            "den": self._den_poly().to_json(),
            "den_factors": [[poly.to_json(), mult]
                            for _, (poly, mult) in sorted(self.den.items())],
        }

    def to_text(self) -> str:
        if self.is_polynomial:
            return self.num.to_text()
        return f"({self.num.to_text()}) / ({self._den_poly().to_text()})"

    def __repr__(self):
        return f"RationalFn({self.to_text()!r})"


def _substitution_kernel(var: str, value: Monomial) -> LaurentPoly:
    """The linear polynomial vanishing exactly where var equals value."""
    if var == "A" and value.expA == 0:
        return LaurentPoly({(1, 0): 1, (0, value.expQ): -value.sign})
    if var == "q" and value.expQ == 0:
        return LaurentPoly({(0, 1): 1, (value.expA, 0): -value.sign})
    raise DivisionByZero(
        f"cannot cancel a vanishing denominator for substitution {var} -> {value}")


def _bag_quotient(big: FactorBag, small: FactorBag) -> LaurentPoly:
    out = LaurentPoly.one()
    for key, (poly, mult) in big.items():
        m = mult - (small[key][1] if key in small else 0)
        for _ in range(m):
            out = out * poly
    return out


def rational_from_factors(num_polys: Iterable[LaurentPoly],
                          den_polys: Iterable[LaurentPoly]) -> RationalFn:
    num = LaurentPoly.one()
    for p in num_polys:
        num = num * p
    out = RationalFn(num, None, reduce=False)
    for d in den_polys:
        out = out.div_poly(d)
    return out


# -- the paper-facing quantum-number functions -----------------------------

def bigD(j: int) -> RationalFn:
    """D_j = {Aq^j} / {q}."""
    return RationalFn.from_ratio(qbracket_Aq(j), qbracket_q(1))


def bigG(n: int) -> RationalFn:
    """G(n) = prod_{j=1..n} {Aq^(j-2)} / {q^j}; G(0) = 1."""
    if n < 0:
        raise NegativeInput(f"bigG({n})")
    return rational_from_factors(
        (qbracket_Aq(j - 2) for j in range(1, n + 1)),
        (qbracket_q(j) for j in range(1, n + 1)))


def delta(m: int) -> RationalFn:
    """Delta_m = (D_(2m-1) / D_(-1)) * G(m)^2."""
    if m < 0:
        raise NegativeInput(f"delta({m})")
    return bigD(2 * m - 1) / bigD(-1) * bigG(m) ** 2


def chi_rows(p: int, s: int) -> RationalFn:
    """chi of the two-row diagram with row lengths (p, s), p >= s >= 0:
    G(p+1) G(s) [p-s+1] / D_(-1)."""
    if s < 0 or p < s:
        raise OutOfRange(f"chi_rows({p},{s})")
    return (bigG(p + 1) * bigG(s)).mul_poly(qint(p - s + 1)) / bigD(-1)


def chi_two_row(r: int, m: int) -> RationalFn:
    """chi_{[r+m, r-m]} for 0 <= m <= r."""
    if m < 0 or m > r:
        raise OutOfRange(f"chi_two_row({r},{m})")
    return chi_rows(r + m, r - m)
