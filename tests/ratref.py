"""Reference arithmetic for tests: the expanded quantum numbers, equality
with a ratio of expanded polynomials, values at a point, and plain long
division.

The engine holds quantum numbers only as values over qcore's basis; the
expanded brackets {q^j} and {Aq^j}, [n], [n]! and the Gaussian binomial
below are built term by term, independently of that basis, to check it.

RationalFn divides only by a unit times a vector over its basis, so a
reference value such as (A - q)(A + q) / ((A^2 - 1)(q^2 + 1)) cannot be
built as one.  equals_ratio compares with such a ratio by
cross-multiplication, which needs no division, and at specialises one
variable of the expanded numerator and denominator, cancelling the linear
kernel var - value exactly wherever both vanish.
"""

from pretzelhomfly.errors import (DivisionByZero, NegativeInput, NotDivisible,
                                  OutOfRange)
from pretzelhomfly.laurent import LaurentPoly, Monomial, _qdiv


def qbracket_q(j: int) -> LaurentPoly:
    """{q^j} = q^j - q^-j, expanded."""
    return LaurentPoly.var_q(j) - LaurentPoly.var_q(-j)


def qbracket_Aq(j: int) -> LaurentPoly:
    """{Aq^j} = A q^j - A^-1 q^-j, expanded."""
    return LaurentPoly.term(1, 1, j) - LaurentPoly.term(1, -1, -j)


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


def equals_ratio(f, num: LaurentPoly, *dens: LaurentPoly) -> bool:
    """f == num / prod(dens), checked as f * prod(dens) == num."""
    for d in dens:
        f = f.mul_poly(d)
    return f == num


def at(f, var: str, value: Monomial):
    """(num, den) with f = num / den at var = value and den != 0.

    value must not involve var itself: A = +-q^k or q = +-A^k.  Raises
    DivisionByZero when f has a pole there."""
    if var == "A":
        kernel = LaurentPoly({(1, 0): 1, (0, value.expQ): -value.sign})
    else:
        kernel = LaurentPoly({(0, 1): 1, (value.expA, 0): -value.sign})
    num, den = f._num_poly(), f._den_poly()
    while den.substitute(var, value).is_zero:
        if not num.substitute(var, value).is_zero:
            raise DivisionByZero(f"pole at {var} = {value}")
        num, den = num.exact_div(kernel), den.exact_div(kernel)
    return num.substitute(var, value), den.substitute(var, value)


def is_value(pair, value: LaurentPoly) -> bool:
    """pair = (num, den), as at returns it, is num / den == value."""
    return pair is not None and pair[0] == value * pair[1]


def first_row_squares_at(matrix, radicands, mono: Monomial):
    """matrix[0][m]^2 radicands[m] at A = mono, as (num, den), or None where
    the entry has a pole.  The radicands are chi_m for s and Delta_m for
    s-bar (Delta_0 = 1)."""
    out = []
    for entry, radicand in zip(matrix[0], radicands):
        try:
            out.append(at(entry * entry * radicand, "A", mono))
        except DivisionByZero:
            out.append(None)
    return out


def long_div(p: LaurentPoly, d: LaurentPoly) -> LaurentPoly:
    """p / d by textbook long division in A, rebuilding the whole remainder
    rem - piece * d at each step; raises NotDivisible with that remainder.
    p and d are unit-stripped, as LaurentPoly.exact_div passes them on."""
    def level(f, degA):
        return {eq: c for (ea, eq), c in f.terms.items() if ea == degA}

    d_min_a, d_max_a = d.degA_range()
    dlead = level(d, d_max_a)
    rem = p
    quot_terms = {}
    while not rem.is_zero:
        r_min_a, r_max_a = rem.degA_range()
        if r_max_a - d_max_a < r_min_a - d_min_a:
            raise NotDivisible(rem)
        qc = _qdiv(level(rem, r_max_a), dlead)
        if qc is None:
            raise NotDivisible(rem)
        piece = LaurentPoly({(r_max_a - d_max_a, eq): c
                             for eq, c in qc.items()})
        for exps, c in piece.terms.items():
            quot_terms[exps] = quot_terms.get(exps, 0) + c
        rem = rem - piece * d
    return LaurentPoly(quot_terms)
