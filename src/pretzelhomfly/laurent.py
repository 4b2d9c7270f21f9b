"""Exact sparse Laurent polynomials in the two variables A and q over the integers.

A polynomial is stored as a map from exponent pairs ``(expA, expQ)`` to nonzero
integer coefficients.  All arithmetic is exact; coefficients are plain Python
integers and never overflow.  Values are immutable after construction and safe
to share between threads.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from math import gcd
from typing import Dict, Optional, Tuple

from .errors import DivisionByZero, NotDivisible, ParseError, ZeroPolynomial

ExpPair = Tuple[int, int]


@dataclass(frozen=True)
class Monomial:
    """A signed monomial ±A^expA q^expQ with coefficient ±1."""

    sign: int = 1
    expA: int = 0
    expQ: int = 0

    def __post_init__(self):
        if self.sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")

    def inverse(self) -> "Monomial":
        return Monomial(self.sign, -self.expA, -self.expQ)

    def __mul__(self, other: "Monomial") -> "Monomial":
        return Monomial(self.sign * other.sign,
                        self.expA + other.expA,
                        self.expQ + other.expQ)

    def __pow__(self, n: int) -> "Monomial":
        return Monomial(self.sign if n % 2 else 1, self.expA * n, self.expQ * n)

    def as_poly(self) -> "LaurentPoly":
        return LaurentPoly({(self.expA, self.expQ): self.sign})

    @property
    def is_one(self) -> bool:
        return self.sign == 1 and self.expA == 0 and self.expQ == 0


class LaurentPoly:
    """Sparse bivariate Laurent polynomial with exact integer coefficients."""

    __slots__ = ("terms", "_key")

    def __init__(self, terms: Optional[Dict[ExpPair, int]] = None):
        clean = {}
        if terms:
            for exps, coeff in terms.items():
                if coeff:
                    clean[exps] = coeff
        object.__setattr__(self, "terms", clean)
        object.__setattr__(self, "_key", None)

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero() -> "LaurentPoly":
        return _ZERO

    @staticmethod
    def one() -> "LaurentPoly":
        return _ONE

    @staticmethod
    def const(c: int) -> "LaurentPoly":
        return LaurentPoly({(0, 0): c})

    @staticmethod
    def term(coeff: int, expA: int = 0, expQ: int = 0) -> "LaurentPoly":
        return LaurentPoly({(expA, expQ): coeff})

    @staticmethod
    def var_A(exp: int = 1) -> "LaurentPoly":
        return LaurentPoly.term(1, exp, 0)

    @staticmethod
    def var_q(exp: int = 1) -> "LaurentPoly":
        return LaurentPoly.term(1, 0, exp)

    # -- basic queries -----------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def is_one(self) -> bool:
        return self.terms == {(0, 0): 1}

    def as_monomial(self) -> Optional[Monomial]:
        """Return this polynomial as a ±A^a q^b unit, or None."""
        if len(self.terms) != 1:
            return None
        ((ea, eq), c), = self.terms.items()
        if c in (1, -1):
            return Monomial(c, ea, eq)
        return None

    def degA_range(self) -> Tuple[int, int]:
        if self.is_zero:
            raise ZeroPolynomial("zero polynomial has no degree")
        exps = [ea for ea, _ in self.terms]
        return min(exps), max(exps)

    def degQ_range(self) -> Tuple[int, int]:
        if self.is_zero:
            raise ZeroPolynomial("zero polynomial has no degree")
        exps = [eq for _, eq in self.terms]
        return min(exps), max(exps)

    def total_degree(self) -> int:
        """Degree span used by the factor-size heuristics: max(a+b) - min(a+b)."""
        if self.is_zero:
            raise ZeroPolynomial("zero polynomial has no degree")
        sums = [ea + eq for ea, eq in self.terms]
        return max(sums) - min(sums)

    def content(self) -> int:
        """gcd of the coefficients (0 for the zero polynomial)."""
        g = 0
        for c in self.terms.values():
            g = gcd(g, abs(c))
            if g == 1:
                return 1
        return g

    # -- canonical form ----------------------------------------------------

    def key(self) -> tuple:
        """Canonical hashable form: terms sorted descending by (expA, expQ)."""
        if self._key is None:
            object.__setattr__(
                self, "_key",
                tuple((ea, eq, self.terms[(ea, eq)])
                      for ea, eq in sorted(self.terms, reverse=True)))
        return self._key

    def __eq__(self, other) -> bool:
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(self.key())

    # -- ring operations ---------------------------------------------------

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        if self.is_zero:
            return other
        if other.is_zero:
            return self
        out = dict(self.terms)
        for exps, c in other.terms.items():
            s = out.get(exps, 0) + c
            if s:
                out[exps] = s
            elif exps in out:
                del out[exps]
        return _from_clean(out)

    def __neg__(self) -> "LaurentPoly":
        return _from_clean({e: -c for e, c in self.terms.items()})

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        if other.is_zero:
            return self
        out = dict(self.terms)
        for exps, c in other.terms.items():
            s = out.get(exps, 0) - c
            if s:
                out[exps] = s
            elif exps in out:
                del out[exps]
        return _from_clean(out)

    def __mul__(self, other: "LaurentPoly") -> "LaurentPoly":
        if self.is_zero or other.is_zero:
            return _ZERO
        a, b = self.terms, other.terms
        if len(a) > len(b):
            a, b = b, a
        out: Dict[ExpPair, int] = {}
        for (ea1, eq1), c1 in a.items():
            for (ea2, eq2), c2 in b.items():
                exps = (ea1 + ea2, eq1 + eq2)
                s = out.get(exps, 0) + c1 * c2
                if s:
                    out[exps] = s
                elif exps in out:
                    del out[exps]
        return _from_clean(out)

    def __pow__(self, n: int) -> "LaurentPoly":
        if n < 0:
            m = self.as_monomial()
            if m is None:
                raise DivisionByZero("negative power of a non-unit polynomial")
            return (m ** n).as_poly()
        result = _ONE
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def scale(self, c: int) -> "LaurentPoly":
        if c == 0:
            return _ZERO
        return LaurentPoly({e: k * c for e, k in self.terms.items()})

    def shift(self, mono: Monomial) -> "LaurentPoly":
        """Multiply by a monomial unit (always exact)."""
        return LaurentPoly({(ea + mono.expA, eq + mono.expQ): c * mono.sign
                            for (ea, eq), c in self.terms.items()})

    # -- substitution ------------------------------------------------------

    def substitute(self, var: str, value: Monomial) -> "LaurentPoly":
        """Ring homomorphism sending ``var`` (``"A"`` or ``"q"``) to
        ``value.sign * A^value.expA * q^value.expQ``; the other variable is fixed.
        """
        flip, va, vq = value.sign < 0, value.expA, value.expQ
        out: Dict[ExpPair, int] = {}
        if var == "A":
            for (ea, eq), c in self.terms.items():
                exps = (va * ea, eq + vq * ea)
                s = out.get(exps, 0) + (-c if flip and ea & 1 else c)
                if s:
                    out[exps] = s
                elif exps in out:
                    del out[exps]
        elif var == "q":
            for (ea, eq), c in self.terms.items():
                exps = (ea + va * eq, vq * eq)
                s = out.get(exps, 0) + (-c if flip and eq & 1 else c)
                if s:
                    out[exps] = s
                elif exps in out:
                    del out[exps]
        else:
            raise ValueError("var must be 'A' or 'q'")
        return _from_clean(out)

    # -- unit normalization ------------------------------------------------

    def strip_monomial(self) -> Tuple[Monomial, "LaurentPoly"]:
        """Factor out the unique unit u = ±A^a q^b such that the cofactor has
        minimal exponents 0 in each variable and a positive leading
        (lexicographically largest) coefficient.
        """
        if self.is_zero:
            raise ZeroPolynomial("cannot strip a unit from zero")
        min_a = min(ea for ea, _ in self.terms)
        min_q = min(eq for _, eq in self.terms)
        lead = max((ea, eq) for ea, eq in self.terms)
        sign = 1 if self.terms[lead] > 0 else -1
        unit = Monomial(sign, min_a, min_q)
        stripped = LaurentPoly({(ea - min_a, eq - min_q): c * sign
                                for (ea, eq), c in self.terms.items()})
        return unit, stripped

    # -- exact division ----------------------------------------------------

    def exact_div(self, d: "LaurentPoly") -> "LaurentPoly":
        """Exact quotient self / d in the Laurent ring, or raise NotDivisible.

        Implemented as long division in A with coefficients that are Laurent
        polynomials in q; every leading-coefficient division must itself be
        exact over the integers.
        """
        if d.is_zero:
            raise DivisionByZero("division by the zero polynomial")
        if self.is_zero:
            return _ZERO
        du, ds = d.strip_monomial()
        pu, ps = self.strip_monomial()
        quot = _exact_div_stripped(ps, ds)
        return quot.shift(pu * du.inverse())

    def divides(self, p: "LaurentPoly") -> bool:
        try:
            p.exact_div(self)
            return True
        except NotDivisible:
            return False

    # -- serialization -----------------------------------------------------

    def to_json(self) -> dict:
        return {"terms": [[ea, eq, str(self.terms[(ea, eq)])]
                          for ea, eq in sorted(self.terms, reverse=True)]}

    @staticmethod
    def from_json(obj: dict) -> "LaurentPoly":
        """Inverse of `to_json`: `int()` alone would truncate a float and
        accept a bool, "1_0" or " 1", so each term must be exactly
        `[int, int, str(int)]`."""
        terms = {}
        try:
            for ea, eq, c in obj["terms"]:
                v = int(c)
                if type(ea) is not int or type(eq) is not int or str(v) != c:
                    raise ValueError(f"term {[ea, eq, c]!r}")
                terms[ea, eq] = v
            return LaurentPoly(terms)
        except (KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"bad polynomial JSON: {exc}") from exc

    def to_text(self) -> str:
        """Human-readable form, e.g. ``7*q^2 - 13 + 7*q^-2``."""
        if self.is_zero:
            return "0"
        parts = []
        for ea, eq in sorted(self.terms, reverse=True):
            c = self.terms[(ea, eq)]
            factors = []
            if ea:
                factors.append(f"A^{ea}" if ea != 1 else "A")
            if eq:
                factors.append(f"q^{eq}" if eq != 1 else "q")
            mag = abs(c)
            if mag != 1 or not factors:
                factors.insert(0, str(mag))
            body = "*".join(factors)
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(parts)

    @staticmethod
    def from_text(text: str) -> "LaurentPoly":
        return _parse(text)

    def __repr__(self):
        return f"LaurentPoly({self.to_text()!r})"


_ZERO = LaurentPoly()
_ONE = LaurentPoly({(0, 0): 1})


def _from_clean(terms: Dict[ExpPair, int]) -> LaurentPoly:
    """Wrap a term map that holds no zero coefficient, without copying it."""
    res = LaurentPoly.__new__(LaurentPoly)
    res.terms = terms
    res._key = None
    return res


# -- univariate helpers for exact division --------------------------------

def _levels(p: LaurentPoly) -> Dict[int, Dict[int, int]]:
    """p as A-degree -> {q-degree: coefficient}."""
    out: Dict[int, Dict[int, int]] = {}
    for (ea, eq), c in p.terms.items():
        level = out.get(ea)
        if level is None:
            out[ea] = {eq: c}
        else:
            level[eq] = c
    return out


def _qdiv(num: Dict[int, int], den: Dict[int, int]) -> Optional[Dict[int, int]]:
    """Exact division of univariate Laurent polynomials in q over Z, or None."""
    if not num:
        return {}
    rem = dict(num)
    dmax = max(den)
    dlead = den[dmax]
    quot: Dict[int, int] = {}
    while rem:
        rmax = max(rem)
        if rmax - dmax < (min(rem) - min(den)):
            return None
        c, r = divmod(rem[rmax], dlead)
        if r:
            return None
        shift = rmax - dmax
        quot[shift] = c
        for e, dc in den.items():
            k = e + shift
            s = rem.get(k, 0) - c * dc
            if s:
                rem[k] = s
            elif k in rem:
                del rem[k]
    return quot


def _exact_div_stripped(p: LaurentPoly, d: LaurentPoly) -> LaurentPoly:
    """Long division in A of unit-stripped polynomials; raises NotDivisible
    with the remainder left at the step that fails.

    The remainder is kept as q-polynomials by A-degree, and each step
    subtracts qc * d from the levels d reaches, so no step rescans or copies
    the levels it does not touch.
    """
    d_levels = _levels(d)
    d_min_a, d_max_a = min(d_levels), max(d_levels)
    dlead = d_levels[d_max_a]
    rem = _levels(p)
    quot_terms: Dict[ExpPair, int] = {}
    while rem:
        r_max_a = max(rem)
        shift_a = r_max_a - d_max_a
        # rem keeps no empty level, so min(rem) is its lowest A-degree
        if shift_a < min(rem) - d_min_a:
            raise NotDivisible(_from_levels(rem))
        qc = _qdiv(rem[r_max_a], dlead)
        if qc is None:
            raise NotDivisible(_from_levels(rem))
        for eq, c in qc.items():
            quot_terms[(shift_a, eq)] = c
        for da, dq_terms in d_levels.items():
            ea = da + shift_a
            level = rem.get(ea)
            if level is None:
                level = rem[ea] = {}
            for sq, c in qc.items():
                for dq, dc in dq_terms.items():
                    k = sq + dq
                    s = level.get(k, 0) - c * dc
                    if s:
                        level[k] = s
                    elif k in level:
                        del level[k]
            if not level:
                del rem[ea]
    return _from_clean(quot_terms)


def _from_levels(levels: Dict[int, Dict[int, int]]) -> LaurentPoly:
    return _from_clean({(ea, eq): c for ea, level in levels.items()
                        for eq, c in level.items()})


# -- text parsing ----------------------------------------------------------

_TOKEN = re.compile(r"\s*([+-]|\d+|[Aq](?:\^-?\d+)?|\*)")


def _parse(text: str) -> LaurentPoly:
    pos = 0
    terms: Dict[ExpPair, int] = {}
    n = len(text)
    while pos < n:
        sign = 1
        coeff = None
        ea = eq = 0
        saw_factor = False
        # leading signs
        while True:
            m = _TOKEN.match(text, pos)
            if m is None:
                if text[pos:].strip():
                    raise ParseError(f"unexpected input at {text[pos:]!r}")
                break
            tok = m.group(1)
            if tok == "+":
                pos = m.end()
            elif tok == "-":
                sign = -sign
                pos = m.end()
            else:
                break
        if pos >= n or not text[pos:].strip():
            if saw_factor or coeff is not None:
                raise ParseError("trailing sign")
            break
        # factors separated by '*'
        while True:
            m = _TOKEN.match(text, pos)
            if m is None:
                raise ParseError(f"unexpected input at {text[pos:]!r}")
            tok = m.group(1)
            if tok.isdigit():
                coeff = (coeff if coeff is not None else 1) * int(tok)
            elif tok[0] in "Aq":
                exp = int(tok[2:]) if "^" in tok else 1
                if tok[0] == "A":
                    ea += exp
                else:
                    eq += exp
            else:
                raise ParseError(f"unexpected token {tok!r}")
            saw_factor = True
            pos = m.end()
            m = _TOKEN.match(text, pos)
            if m is not None and m.group(1) == "*":
                pos = m.end()
                continue
            break
        c = sign * (coeff if coeff is not None else 1)
        s = terms.get((ea, eq), 0) + c
        if s:
            terms[(ea, eq)] = s
        elif (ea, eq) in terms:
            del terms[(ea, eq)]
    return LaurentPoly(terms)
