"""Quantum-number combinatorics and exact rational functions over the Laurent ring.

A :class:`RationalFn` is ``cof * prod f^e / (den * prod O^m)``.  ``cof`` is
an expanded Laurent polynomial, ``den`` a positive integer, and the ``f`` run
over a fixed basis of pairwise coprime, unit-stripped polynomials with signed
exponents ``e``:

    ("B", k)   A^2 q^2k - 1      {Aq^k} = A^-1 q^-k (A^2 q^2k - 1)
    ("C", d)   Phi_d(q^2)        q^2n - 1 = prod over d | n of Phi_d(q^2)

so every quantum bracket, quantum integer and factorial is a unit times an
exponent vector.  Products, quotients and inverses of such values add
vectors and cancel for free.  A sum keeps the factors its two terms share
(the componentwise min of the vectors, which is the max of the
denominators) and expands only the factors each side lacks; cancellation
then divides the new cofactor only by the basis factors of the denominator,
each behind an exact divisibility test (a chain sum for ("B", k), a residue
mod q^2d - 1 for ("C", d)), so no division by a basis factor fails.

Premise, measured over the inputs of the four benchmark workloads,
``verify conj-935 --depth 5``, ``verify conj-946 --depth 5`` and
``homfly --rep 5`` for (3,3,-3), (1,1,1) and (-3,5,1): every denominator
factor splits into this basis, with k in [-1, 9] and d <= 11, and none is
left over.  A factor outside the basis (``A - q``, or what remains of an
inverted cofactor) is kept whole as an opaque denominator factor ``O``;
cancellation against it is trial division of the full numerator, so
``to_poly`` succeeds whenever the value is a polynomial.

Reduced form, restored after every operation: ``f`` does not divide ``cof``
for each ``f`` with ``e < 0``; no ``O`` divides the numerator; ``den`` is
coprime to the content of ``cof``; a zero value has an empty denominator.
That is not always lowest terms (``cof`` may share a piece A q^k ± 1 or
Phi_d(q) with a denominator factor), but the value is a polynomial exactly
when its denominator is empty.
"""

from __future__ import annotations

from math import gcd
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .errors import (DivisionByZero, NegativeInput, NotDivisible,
                     NotPolynomial, OutOfRange)
from .laurent import LaurentPoly, Monomial

BasisKey = Tuple[str, int]
Vec = Dict[BasisKey, int]
# opaque denominator factors: poly key -> (stripped primitive poly, multiplicity)
Opaque = Dict[tuple, Tuple[LaurentPoly, int]]


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


def _candidates(s: LaurentPoly) -> List[BasisKey]:
    """Every basis factor that can divide the unit-stripped ``s``."""
    amax = max(i for i, _ in s.terms)
    qmax = max(j for _, j in s.terms)
    # a ("B", k) factor spans 2 in A and 2|k| in q
    out: List[BasisKey] = ([("B", k) for k in range(-(qmax // 2), qmax // 2 + 1)]
                           if amax >= 2 else [])
    # Phi_d(q^2) divides every A-coefficient of s, so its q-degree 2 phi(d)
    # is at most their least span; phi(d) > d/6 for d < 6e9 gives d < 3 span
    rows: Dict[int, List[int]] = {}
    for i, j in s.terms:
        rows.setdefault(i, []).append(j)
    span = min(max(js) - min(js) for js in rows.values())
    return out + [("C", d) for d in range(1, 3 * span)]


def _split(p: LaurentPoly) -> Tuple[Monomial, int, Vec, LaurentPoly]:
    """p = unit * content * prod basis^vec * rest, with rest unit-stripped,
    primitive and divisible by no basis factor."""
    unit, s = p.strip_monomial()
    content = s.content()
    if content > 1:
        s = LaurentPoly({e: c // content for e, c in s.terms.items()})
    vec: Vec = {}
    if len(s.terms) > 1:
        for key in _candidates(s):
            while True:
                quot = _basis_quotient(s, key)
                if quot is None:
                    break
                s = quot
                vec[key] = vec.get(key, 0) + 1
    return unit, content, vec, s


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

    __slots__ = ("cof", "vec", "den", "opq")

    def __init__(self, cof: LaurentPoly, vec: Optional[Vec] = None,
                 den: int = 1, opq: Optional[Opaque] = None):
        """Takes the parts as they are; the operations keep them reduced."""
        self.cof = cof
        self.vec = vec or {}
        self.den = den
        self.opq = opq or {}

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

    @staticmethod
    def from_ratio(num: LaurentPoly, *dens: LaurentPoly) -> "RationalFn":
        out = RationalFn(num)
        for d in dens:
            out = out.div_poly(d)
        return out

    # -- normalization -----------------------------------------------------

    @staticmethod
    def _reduced(cof: LaurentPoly, vec: Vec, den: int, opq: Opaque,
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
        if opq:
            cof, vec, opq = _cancel_opaque(cof, vec, opq)
        if den > 1:
            g = gcd(cof.content(), den)
            if g > 1:
                cof = LaurentPoly({e: c // g for e, c in cof.terms.items()})
                den //= g
        return RationalFn(cof, vec, den, opq)

    def _num_poly(self) -> LaurentPoly:
        return self.cof * _expand({k: e for k, e in self.vec.items() if e > 0})

    def _den_poly(self) -> LaurentPoly:
        out = LaurentPoly.const(self.den) * _expand(
            {k: -e for k, e in self.vec.items() if e < 0})
        for poly, mult in self.opq.values():
            out = out * poly ** mult
        return out

    # -- queries -----------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return self.cof.is_zero

    @property
    def is_polynomial(self) -> bool:
        return self.den == 1 and not self.opq and all(
            e > 0 for e in self.vec.values())

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
        _, _, _, left, right = _common(self, other)
        return left == right

    def __hash__(self):
        raise TypeError("RationalFn is unhashable; compare with ==")

    # -- arithmetic --------------------------------------------------------

    def __mul__(self, other: "RationalFn") -> "RationalFn":
        if self.is_zero or other.is_zero:
            return RationalFn.zero()
        vec = _add_vec(self.vec, other.vec)
        opq = dict(self.opq)
        for key, (poly, mult) in other.opq.items():
            opq[key] = (poly, opq[key][1] + mult if key in opq else mult)
        # a reduced side's own denominator factors do not divide its cofactor
        # (nor, by coprimality, a unit times it)
        unit_self = len(self.cof.terms) == 1
        unit_other = len(other.cof.terms) == 1
        keys = [k for k in _den_keys(vec)
                if not (unit_self and other.vec.get(k, 0) < 0)
                and not (unit_other and self.vec.get(k, 0) < 0)]
        return RationalFn._reduced(self.cof * other.cof, vec,
                                   self.den * other.den, opq, keys)

    def mul_poly(self, p: LaurentPoly) -> "RationalFn":
        keys = _den_keys(self.vec) if len(p.terms) > 1 else ()
        return RationalFn._reduced(self.cof * p, dict(self.vec), self.den,
                                   dict(self.opq), keys)

    def div_poly(self, p: LaurentPoly) -> "RationalFn":
        if p.is_zero:
            raise DivisionByZero("division by zero polynomial")
        unit, content, split, rest = _split(p)
        vec = _add_vec(self.vec, split, -1)
        opq = dict(self.opq)
        if not rest.is_one:
            key = rest.key()
            opq[key] = (rest, opq[key][1] + 1 if key in opq else 1)
        keys = [k for k in split
                if vec.get(k, 0) < 0 and self.vec.get(k, 0) >= 0]
        return RationalFn._reduced(self.cof.shift(unit.inverse()), vec,
                                   self.den * content, opq, keys)

    def __add__(self, other: "RationalFn") -> "RationalFn":
        if self.is_zero:
            return other
        if other.is_zero:
            return self
        vec, den, opq, left, right = _common(self, other)
        return RationalFn._reduced(left + right, vec, den, opq, _den_keys(vec))

    def __neg__(self) -> "RationalFn":
        return RationalFn(-self.cof, self.vec, self.den, self.opq)

    def __sub__(self, other: "RationalFn") -> "RationalFn":
        return self + (-other)

    def inverse(self) -> "RationalFn":
        if self.is_zero:
            raise DivisionByZero("inverse of zero")
        unit, content, split, rest = _split(self.cof)
        num = LaurentPoly.const(self.den).shift(unit.inverse())
        for poly, mult in self.opq.values():
            num = num * poly ** mult
        vec = _add_vec({k: -e for k, e in self.vec.items()}, split, -1)
        opq = {} if rest.is_one else {rest.key(): (rest, 1)}
        return RationalFn._reduced(num, vec, content, opq,
                                   _den_keys(vec) if self.opq else ())

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
        num = self._num_poly()
        dens = [(_basis_poly(k), -e) for k, e in self.vec.items() if e < 0]
        dens += self.opq.values()
        kernel_power = 0
        finite_dens: List[Tuple[LaurentPoly, int]] = []
        kernel: Optional[LaurentPoly] = None
        for poly, mult in dens:
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
        out = RationalFn.from_ratio(num.substitute(var, value),
                                    LaurentPoly.const(self.den))
        for d, mult in finite_dens:
            for _ in range(mult):
                out = out.div_poly(d)
        return out

    # -- display -----------------------------------------------------------

    def to_text(self) -> str:
        if self.is_polynomial:
            return self._num_poly().to_text()
        return f"({self._num_poly().to_text()}) / ({self._den_poly().to_text()})"

    def __repr__(self):
        return f"RationalFn({self.to_text()!r})"


def _common(x: RationalFn, y: RationalFn
            ) -> Tuple[Vec, int, Opaque, LaurentPoly, LaurentPoly]:
    """x = left * F and y = right * F over the common factor F: the
    componentwise min of the vectors, over the lcm of the integer
    denominators and the max of the opaque multisets."""
    vec: Vec = {}
    # in dict order, not set order, so that expansions repeat run to run
    for key in {**x.vec, **y.vec}:
        e = min(x.vec.get(key, 0), y.vec.get(key, 0))
        if e:
            vec[key] = e
    den = x.den * y.den // gcd(x.den, y.den)
    opq = dict(x.opq)
    for key, (poly, mult) in y.opq.items():
        if mult > opq.get(key, (poly, 0))[1]:
            opq[key] = (poly, mult)

    def lift(z: RationalFn) -> LaurentPoly:
        out = z.cof if den == z.den else z.cof.scale(den // z.den)
        missing = _expand(_add_vec(z.vec, vec, -1))
        for key, (poly, mult) in opq.items():
            extra = mult - z.opq.get(key, (poly, 0))[1]
            if extra:
                missing = missing * poly ** extra
        return out if missing.is_one else out * missing

    return vec, den, opq, lift(x), lift(y)


def _cancel_opaque(cof: LaurentPoly, vec: Vec, opq: Opaque
                   ) -> Tuple[LaurentPoly, Vec, Opaque]:
    """Divide the numerator by each opaque factor as often as it goes.  An
    opaque factor may share an irreducible piece (A q^k ± 1, Phi_d(q)) with a
    numerator basis factor, so before giving up the numerator is expanded."""
    out: Opaque = {}
    for key, (poly, mult) in opq.items():
        while mult:
            try:
                cof = cof.exact_div(poly)
            except NotDivisible:
                num_part = {k: e for k, e in vec.items() if e > 0}
                if not num_part:
                    break
                cof = cof * _expand(num_part)
                vec = {k: e for k, e in vec.items() if e < 0}
                continue
            mult -= 1
        if mult:
            out[key] = (poly, mult)
    return cof, vec, out


def _substitution_kernel(var: str, value: Monomial) -> LaurentPoly:
    """The linear polynomial vanishing exactly where var equals value."""
    if var == "A" and value.expA == 0:
        return LaurentPoly({(1, 0): 1, (0, value.expQ): -value.sign})
    if var == "q" and value.expQ == 0:
        return LaurentPoly({(0, 1): 1, (value.expA, 0): -value.sign})
    raise DivisionByZero(
        f"cannot cancel a vanishing denominator for substitution {var} -> {value}")


def rational_from_factors(num_polys: Iterable[LaurentPoly],
                          den_polys: Iterable[LaurentPoly]) -> RationalFn:
    num = LaurentPoly.one()
    for p in num_polys:
        num = num * p
    out = RationalFn.from_poly(num)
    for d in den_polys:
        out = out.div_poly(d)
    return out


# -- the paper-facing quantum-number functions -----------------------------

def _factored(poly: LaurentPoly, vec: Vec) -> RationalFn:
    """poly, whose unit-stripped form is the basis product vec."""
    return RationalFn(poly.strip_monomial()[0].as_poly(), vec)


def _bracket_Aq(j: int) -> RationalFn:
    return _factored(qbracket_Aq(j), {("B", j): 1})


def _bracket_q(j: int) -> RationalFn:
    if j == 0:
        return RationalFn.zero()
    return _factored(qbracket_q(j), {("C", d): 1 for d in range(1, abs(j) + 1)
                                     if j % d == 0})


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
    """D_j = {Aq^j} / {q}."""
    return _bracket_Aq(j) / _bracket_q(1)


def bigG(n: int) -> RationalFn:
    """G(n) = prod_{j=1..n} {Aq^(j-2)} / {q^j}; G(0) = 1."""
    if n < 0:
        raise NegativeInput(f"bigG({n})")
    out = RationalFn.one()
    for j in range(1, n + 1):
        out = out * _bracket_Aq(j - 2) / _bracket_q(j)
    return out


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
