"""Quantum-number combinatorics and exact rational functions over the Laurent ring.

A :class:`RationalFn` is ``cof * prod f^e / den``.  ``cof`` is an expanded
Laurent polynomial, ``den`` a positive integer, and the ``f`` run over a
fixed basis of pairwise coprime, unit-stripped polynomials with signed
exponents ``e``:

    ("B", k)   A^2 q^2k - 1      {Aq^k} = A^-1 q^-k (A^2 q^2k - 1)
    ("C", d)   Phi_d(q^2)        q^2n - 1 = prod over d | n of Phi_d(q^2)

so every quantum bracket, quantum integer and factorial is a unit times an
exponent vector; the brackets, D_j, G(n) and [a]!/[b]! below are built as
one directly, with no polynomial arithmetic.  Products, quotients and
inverses of such values add vectors and cancel for free.  A sum keeps the
factors its two terms share (the componentwise min of the vectors, which is
the max of the denominators) and expands only the factors each side lacks;
cancellation then divides the new cofactor only by the basis factors of the
denominator, each behind an exact divisibility test (a chain sum for
("B", k), a residue mod q^2d - 1 for ("C", d)), so no division by a basis
factor fails.

Premise, enforced: every divisor is a unit times an integer times a basis
vector.  ``div_poly`` takes only a unit times an integer (the Jacobi-Trudi
route of ``symfunc`` puts its partition weights into ``den`` this way), and
``inverse`` only a value whose cofactor is a unit times an integer times
basis factors, which it first folds into the vector.  Any other divisor
(``A - q``, a piece ``A q - 1`` of a basis factor, ``1 + A``) raises
:class:`NotInBasis`.  The values the engine divides by meet it:
the brackets, D_j, G(n), chi and [a]!/[b]! below are built that way, and the
first-row Racah entries s_0x, which are sums, reduce to it.

Reduced form, restored after every operation: ``f`` does not divide ``cof``
for each ``f`` with ``e < 0``; ``den`` is coprime to the content of ``cof``;
a zero value has an empty denominator.  That is not always lowest terms
(``cof`` may share a piece A q^k ± 1 or Phi_d(q) with a denominator factor),
but the value is a polynomial exactly when its denominator is empty.
"""

from __future__ import annotations

from math import gcd, isqrt
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .errors import (DivisionByZero, NegativeInput, NotInBasis,
                     NotPolynomial, OutOfRange)
from .laurent import LaurentPoly, Monomial

BasisKey = Tuple[str, int]
Vec = Dict[BasisKey, int]


# -- the basis -------------------------------------------------------------

# Fixed tables, filled on first use of each entry: Phi_d coefficients
# (constant term first) and the unit-stripped basis polynomials.
_CYCLOTOMIC: Dict[int, List[int]] = {}
_BASIS: Dict[BasisKey, LaurentPoly] = {}


def _cyclotomic(d: int) -> List[int]:
    """Coefficients of Phi_d(x), constant term first."""
    coeffs = _CYCLOTOMIC.get(d)
    if coeffs is None:
        coeffs = [-1] + [0] * (d - 1) + [1]  # x^d - 1
        for e in range(1, d):
            if d % e == 0:
                coeffs = _dense_div(coeffs, _cyclotomic(e))
        _CYCLOTOMIC[d] = coeffs
    return coeffs


def _basis_poly(key: BasisKey) -> LaurentPoly:
    poly = _BASIS.get(key)
    if poly is None:
        kind, n = key
        if kind == "B":
            poly = LaurentPoly({(2, 2 * n): 1, (0, 0): -1}).strip_monomial()[1]
        else:
            poly = LaurentPoly({(0, 2 * e): c
                                for e, c in enumerate(_cyclotomic(n))})
        _BASIS[key] = poly
    return poly


def _dense_div(a: Sequence[int], f: Sequence[int]) -> Optional[List[int]]:
    """Exact quotient of dense integer polynomials (constant term first) by
    the monic ``f``, or None if the remainder is not zero."""
    m = len(f) - 1
    a = list(a)
    if len(a) <= m:
        return None if any(a) else []
    quot = [0] * (len(a) - m)
    for t in range(len(a) - 1, m - 1, -1):
        c = a[t]
        if c:
            quot[t - m] = c
            for s in range(m):
                a[t - m + s] -= c * f[s]
    return None if any(a[:m]) else quot


def _divides(key: BasisKey, p: LaurentPoly) -> bool:
    """Exact test for ``basis(key) | p``; the divisions it admits never fail."""
    kind, n = key
    if kind == "B":
        # A^2 q^2n - 1 = (A q^n - 1)(A q^n + 1) divides p iff p vanishes at
        # A = ±q^-n, that is iff the coefficients of p sum to zero along
        # every chain of exponents with the same i mod 2 and j - n i.
        sums: Dict[Tuple[int, int], int] = {}
        for (i, j), c in p.terms.items():
            k = (i & 1, j - n * i)
            sums[k] = sums.get(k, 0) + c
        return not any(sums.values())
    # Phi_d(q^2) divides q^2d - 1: fold the q-exponents mod 2d, then split
    # each A-coefficient into its even and odd parts as polynomials in q^2.
    rows: Dict[Tuple[int, int], List[int]] = {}
    for (i, j), c in p.terms.items():
        r = j % (2 * n)
        row = rows.get((i, r & 1))
        if row is None:
            row = rows[(i, r & 1)] = [0] * n
        row[r >> 1] += c
    phi = _cyclotomic(n)
    return all(_dense_div(row, phi) is not None for row in rows.values())


def _basis_quotient(p: LaurentPoly, key: BasisKey) -> Optional[LaurentPoly]:
    """p / basis(key), or None if it does not divide."""
    if not _divides(key, p):
        return None
    kind, n = key
    out: Dict[Tuple[int, int], int] = {}
    if kind == "B":
        # p = Q (A^2 q^2n - 1) gives Q(i, j) = Q(i-2, j-2n) - p(i, j): a
        # running sum up each chain, which closes to zero at its top.
        chains: Dict[Tuple[int, int], Dict[int, int]] = {}
        for (i, j), c in p.terms.items():
            chains.setdefault((i & 1, j - n * i), {})[i] = c
        for (_, e), pts in chains.items():
            run = 0
            for i in range(min(pts), max(pts), 2):
                run -= pts.get(i, 0)
                if run:
                    out[(i, e + n * i)] = run
        quot = LaurentPoly(out)
        # the stored (stripped) factor is q^-2n (A^2 q^2n - 1) when n < 0
        return quot.shift(Monomial(1, 0, 2 * n)) if n < 0 else quot
    rows: Dict[Tuple[int, int], Dict[int, int]] = {}
    for (i, j), c in p.terms.items():
        rows.setdefault((i, j & 1), {})[j >> 1] = c
    phi = _cyclotomic(n)
    for (i, par), row in rows.items():
        lo = min(row)
        quot = _dense_div([row.get(lo + t, 0)
                           for t in range(max(row) - lo + 1)], phi)
        for t, c in enumerate(quot):
            if c:
                out[(i, 2 * (lo + t) + par)] = c
    return LaurentPoly(out)


def _split(p: LaurentPoly, role: str) -> Tuple[Monomial, int]:
    """p = unit * content with content > 0, or raise NotInBasis."""
    unit, s = p.strip_monomial()
    if len(s.terms) > 1:
        raise NotInBasis(f"{role} {p.to_text()} is not a unit times an "
                         "integer; build it over the basis")
    return unit, s.terms[(0, 0)]


def _phi_at_most(h: int) -> List[int]:
    """Every d >= 1 with Euler's phi(d) <= h, in increasing order: each
    prime p <= h + 1 in turn extends the products of smaller primes by p^k
    while phi stays within h."""
    found = [(1, 1)]  # (d, phi(d))
    for p in range(2, h + 2):
        if any(p % f == 0 for f in range(2, isqrt(p) + 1)):
            continue
        more = []
        for d, f in found:
            pk, fk = p, f * (p - 1)
            while fk <= h:
                more.append((d * pk, fk))
                pk, fk = pk * p, fk * p
        found += more
    return sorted(d for d, f in found if f <= h)


def _fold_basis(cof: LaurentPoly, vec: Vec) -> Tuple[LaurentPoly, Vec]:
    """cof with every basis factor it holds divided out, and vec with them
    added.

    Spans add in a product, so only a factor no wider than cof can divide
    it: ("B", k) has A-span 2 and q-span 2|k|, ("C", d) q-span 2 phi(d)."""
    lo_a, hi_a = cof.degA_range()
    lo_q, hi_q = cof.degQ_range()
    half = (hi_q - lo_q) // 2
    keys: List[BasisKey] = [("C", d) for d in _phi_at_most(half)]
    if hi_a - lo_a >= 2:
        keys += [("B", k) for k in range(-half, half + 1)]
    vec = dict(vec)
    for key in keys:
        while (quot := _basis_quotient(cof, key)) is not None:
            cof = quot
            vec[key] = vec.get(key, 0) + 1
    return cof, {key: e for key, e in vec.items() if e}


def _expand(vec: Vec) -> LaurentPoly:
    """prod basis(key)^e over the positive entries of vec."""
    out = LaurentPoly.one()
    for key, e in vec.items():
        for _ in range(e):
            out = out * _basis_poly(key)
    return out


def _add_vec(a: Vec, b: Vec, sign: int = 1) -> Vec:
    out = dict(a)
    for key, e in b.items():
        s = out.get(key, 0) + sign * e
        if s:
            out[key] = s
        else:
            del out[key]
    return out


def _den_keys(vec: Vec) -> List[BasisKey]:
    return [key for key, e in vec.items() if e < 0]


class RationalFn:
    """Quotient of Laurent polynomials over the bracket/cyclotomic basis."""

    __slots__ = ("cof", "vec", "den")

    def __init__(self, cof: LaurentPoly, vec: Optional[Vec] = None,
                 den: int = 1):
        """Takes the parts as they are; the operations keep them reduced."""
        self.cof = cof
        self.vec = vec or {}
        self.den = den

    # -- construction ------------------------------------------------------

    @staticmethod
    def from_poly(p: LaurentPoly) -> "RationalFn":
        return RationalFn(p)

    @staticmethod
    def one() -> "RationalFn":
        return RationalFn(LaurentPoly.one())

    @staticmethod
    def zero() -> "RationalFn":
        return RationalFn(LaurentPoly.zero())

    # -- normalization -----------------------------------------------------

    @staticmethod
    def _reduced(cof: LaurentPoly, vec: Vec, den: int,
                 keys: Iterable[BasisKey]) -> "RationalFn":
        """Restore the reduced form.  ``keys`` are the denominator basis
        factors that may divide ``cof``; the caller knows the others do not."""
        if cof.is_zero:
            return RationalFn.zero()
        if len(cof.terms) > 1:
            for key in keys:
                e = vec[key]
                while e < 0:
                    quot = _basis_quotient(cof, key)
                    if quot is None:
                        break
                    cof, e = quot, e + 1
                if e:
                    vec[key] = e
                else:
                    del vec[key]
        if den > 1:
            g = gcd(cof.content(), den)
            if g > 1:
                cof = LaurentPoly({e: c // g for e, c in cof.terms.items()})
                den //= g
        return RationalFn(cof, vec, den)

    def _num_poly(self) -> LaurentPoly:
        return self.cof * _expand({k: e for k, e in self.vec.items() if e > 0})

    def _den_poly(self) -> LaurentPoly:
        return LaurentPoly.const(self.den) * _expand(
            {k: -e for k, e in self.vec.items() if e < 0})

    # -- queries -----------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return self.cof.is_zero

    @property
    def is_polynomial(self) -> bool:
        return self.den == 1 and all(e > 0 for e in self.vec.values())

    def to_poly(self) -> LaurentPoly:
        if not self.is_polynomial:
            raise NotPolynomial(
                f"denominator did not clear: {self._den_poly().to_text()}")
        return self._num_poly()

    def __eq__(self, other) -> bool:
        if isinstance(other, LaurentPoly):
            other = RationalFn.from_poly(other)
        if not isinstance(other, RationalFn):
            return NotImplemented
        _, _, left, right = _common(self, other)
        return left == right

    def __hash__(self):
        raise TypeError("RationalFn is unhashable; compare with ==")

    # -- arithmetic --------------------------------------------------------

    def __mul__(self, other: "RationalFn") -> "RationalFn":
        if self.is_zero or other.is_zero:
            return RationalFn.zero()
        vec = _add_vec(self.vec, other.vec)
        # a reduced side's own denominator factors do not divide its cofactor
        # (nor, by coprimality, a unit times it)
        unit_self = len(self.cof.terms) == 1
        unit_other = len(other.cof.terms) == 1
        keys = [k for k in _den_keys(vec)
                if not (unit_self and other.vec.get(k, 0) < 0)
                and not (unit_other and self.vec.get(k, 0) < 0)]
        return RationalFn._reduced(self.cof * other.cof, vec,
                                   self.den * other.den, keys)

    def mul_poly(self, p: LaurentPoly) -> "RationalFn":
        keys = _den_keys(self.vec) if len(p.terms) > 1 else ()
        return RationalFn._reduced(self.cof * p, dict(self.vec), self.den,
                                   keys)

    def div_poly(self, p: LaurentPoly) -> "RationalFn":
        """self / p for p a unit times an integer; other divisors raise
        NotInBasis."""
        if p.is_zero:
            raise DivisionByZero("division by zero polynomial")
        unit, content = _split(p, "divisor")
        return RationalFn._reduced(self.cof.shift(unit.inverse()),
                                   dict(self.vec), self.den * content, ())

    def __add__(self, other: "RationalFn") -> "RationalFn":
        if self.is_zero:
            return other
        if other.is_zero:
            return self
        vec, den, left, right = _common(self, other)
        return RationalFn._reduced(left + right, vec, den, _den_keys(vec))

    def __neg__(self) -> "RationalFn":
        return RationalFn(-self.cof, self.vec, self.den)

    def __sub__(self, other: "RationalFn") -> "RationalFn":
        return self + (-other)

    def inverse(self) -> "RationalFn":
        """1 / self for a cofactor that is a unit times an integer times
        basis factors, expanded or not; other cofactors raise NotInBasis."""
        if self.is_zero:
            raise DivisionByZero("inverse of zero")
        cof, vec = self.cof, self.vec
        if len(cof.terms) > 1:
            cof, vec = _fold_basis(cof, vec)
        unit, content = _split(cof, "cofactor")
        # reduced: self.den is coprime to content (basis factors are
        # primitive, so folding them out keeps the content), and the new
        # cofactor is a monomial, which no basis factor divides
        return RationalFn(LaurentPoly.const(self.den).shift(unit.inverse()),
                          {k: -e for k, e in vec.items()}, content)

    def __truediv__(self, other: "RationalFn") -> "RationalFn":
        return self * other.inverse()

    def __pow__(self, n: int) -> "RationalFn":
        if n < 0:
            return self.inverse() ** (-n)
        out = RationalFn.one()
        for _ in range(n):
            out = out * self
        return out

    # -- display -----------------------------------------------------------

    def to_text(self) -> str:
        if self.is_polynomial:
            return self._num_poly().to_text()
        return f"({self._num_poly().to_text()}) / ({self._den_poly().to_text()})"

    def __repr__(self):
        return f"RationalFn({self.to_text()!r})"


def _common(x: RationalFn, y: RationalFn
            ) -> Tuple[Vec, int, LaurentPoly, LaurentPoly]:
    """x = left * F and y = right * F over the common factor F: the
    componentwise min of the vectors, over the lcm of the integer
    denominators."""
    vec: Vec = {}
    # in dict order, not set order, so that expansions repeat run to run
    for key in {**x.vec, **y.vec}:
        e = min(x.vec.get(key, 0), y.vec.get(key, 0))
        if e:
            vec[key] = e
    den = x.den * y.den // gcd(x.den, y.den)

    def lift(z: RationalFn) -> LaurentPoly:
        out = z.cof if den == z.den else z.cof.scale(den // z.den)
        missing = _expand(_add_vec(z.vec, vec, -1))
        return out if missing.is_one else out * missing

    return vec, den, lift(x), lift(y)


# -- the paper-facing quantum-number functions -----------------------------

def bracket_Aq(j: int) -> RationalFn:
    """{Aq^j} = A^-1 q^-|j| ("B", j)."""
    return RationalFn(LaurentPoly.term(1, -1, -abs(j)), {("B", j): 1})


def bracket_q(j: int) -> RationalFn:
    """{q^j} = sign(j) q^-|j| prod over d | j of ("C", d); {q^0} = 0."""
    if j == 0:
        return RationalFn.zero()
    return RationalFn(LaurentPoly.term(1 if j > 0 else -1, 0, -abs(j)),
                      {("C", d): 1 for d in range(1, abs(j) + 1) if j % d == 0})


def qfact_ratio(nums: Iterable[int], dens: Iterable[int] = ()) -> RationalFn:
    """prod [a]! / prod [b]!, built as an exponent vector.

    [n] = q^(1-n) prod over d | n, d > 1 of Phi_d(q^2), so [n]! is
    q^(-n(n-1)/2) times Phi_d(q^2)^floor(n/d) over 2 <= d <= n."""
    vec: Vec = {}
    shift = 0
    for ns, sign in ((nums, 1), (dens, -1)):
        for n in ns:
            if n < 0:
                raise NegativeInput(f"qfact({n})")
            shift -= sign * n * (n - 1) // 2
            vec = _add_vec(vec, {("C", d): n // d for d in range(2, n + 1)},
                           sign)
    return RationalFn(LaurentPoly.var_q(shift), vec)


def bigD(j: int) -> RationalFn:
    """D_j = {Aq^j} / {q} = A^-1 q^(1-|j|) ("B", j) / ("C", 1)."""
    return RationalFn(LaurentPoly.term(1, -1, 1 - abs(j)),
                      {("B", j): 1, ("C", 1): -1})


def bigG(n: int) -> RationalFn:
    """G(n) = prod_{j=1..n} {Aq^(j-2)} / {q^j}; G(0) = 1.  For n >= 1 that is
    A^-n q^2(n-1) prod_{k=-1..n-2} ("B", k) / prod_{d<=n} ("C", d)^floor(n/d)."""
    if n < 0:
        raise NegativeInput(f"bigG({n})")
    if n == 0:
        return RationalFn.one()
    vec: Vec = {("B", k): 1 for k in range(-1, n - 1)}
    vec.update({("C", d): -(n // d) for d in range(1, n + 1)})
    return RationalFn(LaurentPoly.term(1, -n, 2 * (n - 1)), vec)


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
    n = p - s + 1
    return bigG(p + 1) * bigG(s) * qfact_ratio([n], [n - 1]) / bigD(-1)


def chi_two_row(r: int, m: int) -> RationalFn:
    """chi_{[r+m, r-m]} for 0 <= m <= r."""
    if m < 0 or m > r:
        raise OutOfRange(f"chi_two_row({r},{m})")
    return chi_rows(r + m, r - m)
