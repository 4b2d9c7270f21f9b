"""Unit and property tests for the exact Laurent polynomial kernel."""

import pytest
from hypothesis import given, settings, strategies as st

from pretzelhomfly.errors import DivisionByZero, NotDivisible
from pretzelhomfly.laurent import LaurentPoly, Monomial

from ratref import long_div

A = LaurentPoly.var_A()
q = LaurentPoly.var_q()
one = LaurentPoly.one()


def poly_strategy(max_terms=6, max_exp=4, max_coeff=30):
    term = st.tuples(st.integers(-max_exp, max_exp),
                     st.integers(-max_exp, max_exp),
                     st.integers(-max_coeff, max_coeff).filter(bool))
    return st.lists(term, max_size=max_terms).map(
        lambda ts: LaurentPoly({(a, b): c for a, b, c in ts}))


def nonzero_poly():
    return poly_strategy().filter(lambda p: not p.is_zero)


monomials = st.builds(Monomial, st.sampled_from((1, -1)),
                      st.integers(-3, 3), st.integers(-3, 3))


class TestBasics:
    def test_zero_one(self):
        assert LaurentPoly.zero().is_zero
        assert one.is_one
        assert (one - one).is_zero

    def test_text_round_trip(self):
        p = LaurentPoly({(0, 2): 7, (0, 0): -13, (0, -2): 7})
        assert p.to_text() == "7*q^2 - 13 + 7*q^-2"
        assert LaurentPoly.from_text(p.to_text()) == p

    def test_json_round_trip(self):
        p = A * A - q + LaurentPoly.const(3)
        assert LaurentPoly.from_json(p.to_json()) == p

    def test_substitute_A(self):
        p = A * q - one
        assert p.substitute("A", Monomial(1, 0, 1)) == q * q - one

    def test_strip_monomial(self):
        p = (A - q).shift(Monomial(-1, 2, -3))
        unit, stripped = p.strip_monomial()
        assert stripped == A - q or stripped == q - A
        assert stripped.shift(unit) == p


class TestRingAxioms:
    @given(poly_strategy(), poly_strategy(), poly_strategy())
    @settings(max_examples=60, deadline=None)
    def test_associativity_distributivity(self, a, b, c):
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c

    @given(poly_strategy(), poly_strategy())
    @settings(max_examples=60, deadline=None)
    def test_commutativity(self, a, b):
        assert a + b == b + a
        assert a * b == b * a

    @given(poly_strategy())
    @settings(max_examples=60, deadline=None)
    def test_identities(self, a):
        assert a + LaurentPoly.zero() == a
        assert a * one == a
        assert a - a == LaurentPoly.zero()


class TestExactDivision:
    @given(nonzero_poly(), nonzero_poly())
    @settings(max_examples=60, deadline=None)
    def test_product_division_round_trip(self, a, b):
        assert (a * b).exact_div(b) == a

    @given(nonzero_poly())
    @settings(max_examples=40, deadline=None)
    def test_indivisible_raises(self, a):
        p = a * (A - q) + one  # remainder 1 cannot vanish
        with pytest.raises(NotDivisible):
            p.exact_div(A - q)

    def test_divide_by_zero(self):
        with pytest.raises(DivisionByZero):
            one.exact_div(LaurentPoly.zero())

    def test_known_quotient(self):
        p = A * A - q * q
        assert p.exact_div(A - q) == A + q


def _quotient_or_remainder(div, p, d):
    try:
        return "quotient", div(p, d)
    except NotDivisible as exc:
        return "remainder", exc.remainder


class TestDivisionMatchesLongDivision:
    """exact_div against the textbook long division in tests/ratref.py: the
    same quotient, or the same NotDivisible remainder (which conj-935,
    conj-946 and InexactDivision print)."""

    @given(nonzero_poly(), nonzero_poly(), poly_strategy(max_terms=2))
    @settings(max_examples=200, deadline=None)
    def test_same_quotient_or_remainder(self, a, d, noise):
        # a * d + noise: divisible when noise is 0 or a multiple of d,
        # otherwise it fails at some step with a nontrivial remainder
        for p in (a * d, a * d + noise, a):
            if p.is_zero:
                continue
            pu, ps = p.strip_monomial()
            du, ds = d.strip_monomial()
            kind, ref = _quotient_or_remainder(long_div, ps, ds)
            if kind == "quotient":
                assert p.exact_div(d) == ref.shift(pu * du.inverse())
            else:
                with pytest.raises(NotDivisible) as exc:
                    p.exact_div(d)
                assert exc.value.remainder == ref

    def test_remainder_at_failing_step(self):
        # A^3 + 2 over A - q: three steps succeed and leave q^3 + 2
        p = A ** 3 + LaurentPoly.const(2)
        with pytest.raises(NotDivisible) as exc:
            p.exact_div(A - q)
        with pytest.raises(NotDivisible) as ref:
            long_div(p, A - q)
        assert exc.value.remainder == ref.value.remainder == \
            q ** 3 + LaurentPoly.const(2)


class TestSubstitutionHomomorphism:
    @given(poly_strategy(), poly_strategy(), monomials)
    @settings(max_examples=60, deadline=None)
    def test_respects_ring_ops(self, a, b, m):
        for var in ("A", "q"):
            assert ((a + b).substitute(var, m)
                    == a.substitute(var, m) + b.substitute(var, m))
            assert ((a * b).substitute(var, m)
                    == a.substitute(var, m) * b.substitute(var, m))


def _substitute_reference(p, var, m):
    """Term by term: c A^ea q^eq with var replaced by a power of m."""
    out = LaurentPoly.zero()
    for (ea, eq), c in p.terms.items():
        if var == "A":
            out = out + LaurentPoly.term(c, 0, eq) * m.as_poly() ** ea
        else:
            out = out + LaurentPoly.term(c, ea, 0) * m.as_poly() ** eq
    return out


class TestLeanArithmetic:
    """substitute and __sub__ write their term maps directly, without the
    cleaning pass of the constructor: results must equal the ring-operation
    references and never store a zero coefficient."""

    @given(poly_strategy(), monomials)
    @settings(max_examples=150, deadline=None)
    def test_substitute_matches_reference(self, p, m):
        for var in ("A", "q"):
            got = p.substitute(var, m)
            assert got == _substitute_reference(p, var, m)
            assert 0 not in got.terms.values()

    @given(poly_strategy(), poly_strategy())
    @settings(max_examples=150, deadline=None)
    def test_sub_is_add_neg(self, a, b):
        # (a + b) - b and b - (a + b) cancel every term that b adds to a
        for x, y in ((a, b), (a + b, b), (b, a + b), (a, a)):
            got = x - y
            assert got == x + (-y)
            assert 0 not in got.terms.values()
        assert (a + b) - b == a

    def test_substitute_cancels_to_zero(self):
        p = A * q.scale(-1) + q * q  # -Aq + q^2 vanishes at A = q
        got = p.substitute("A", Monomial(1, 0, 1))
        assert got.is_zero and got.terms == {}

    def test_substitute_rejects_unknown_variable(self):
        with pytest.raises(ValueError):
            A.substitute("x", Monomial(1, 0, 1))


class TestSerialization:
    @given(poly_strategy())
    @settings(max_examples=60, deadline=None)
    def test_json_round_trip(self, p):
        assert LaurentPoly.from_json(p.to_json()) == p

    @given(poly_strategy())
    @settings(max_examples=60, deadline=None)
    def test_text_round_trip(self, p):
        assert LaurentPoly.from_text(p.to_text()) == p

    @given(poly_strategy())
    @settings(max_examples=60, deadline=None)
    def test_json_deterministic(self, p):
        import json
        assert json.dumps(p.to_json()) == json.dumps(
            LaurentPoly(dict(reversed(list(p.terms.items())))).to_json())
