"""Quantum-number combinatorics and factored rational functions."""

import pytest
from hypothesis import given, settings, strategies as st

from pretzelhomfly.errors import (DivisionByZero, NegativeInput, NotPolynomial,
                                  OutOfRange)
from pretzelhomfly.laurent import LaurentPoly, Monomial
from pretzelhomfly.qcore import (RationalFn, _basis_poly, _basis_quotient,
                                 _divides, bigD, bigG, bracket_Aq, bracket_q,
                                 chi_rows, chi_two_row, delta, qbinom,
                                 qbracket_Aq, qbracket_q, qfact, qfact_ratio,
                                 qint)

one = LaurentPoly.one()


class TestQuantumNumbers:
    def test_qint_small(self):
        assert qint(0).is_zero
        assert qint(1) == one
        assert qint(2) == LaurentPoly({(0, 1): 1, (0, -1): 1})

    def test_qint_bracket_ratio(self):
        # [n] = {q^n}/{q}
        for n in range(1, 8):
            assert qint(n) * qbracket_q(1) == qbracket_q(n)

    def test_qfact(self):
        assert qfact(0) == one
        assert qfact(3) == qint(1) * qint(2) * qint(3)

    def test_qbinom_symmetry_and_pascal(self):
        for n in range(8):
            for k in range(n + 1):
                assert qbinom(n, k) == qbinom(n, n - k)
        # q-Pascal: C(n,k) = q^k C(n-1,k) + q^(k-n) C(n-1,k-1)
        for n in range(1, 7):
            for k in range(1, n):
                lhs = qbinom(n, k)
                rhs = (qbinom(n - 1, k).shift(Monomial(1, 0, k))
                       + qbinom(n - 1, k - 1).shift(Monomial(1, 0, k - n)))
                assert lhs == rhs

    def test_qbinom_range(self):
        with pytest.raises(OutOfRange):
            qbinom(3, 5)

    def test_qbinom_at_q1(self):
        from math import comb
        sub = Monomial(1, 0, 0)
        for n in range(7):
            for k in range(n + 1):
                v = qbinom(n, k).substitute("q", sub)
                assert sum(v.terms.values()) == comb(n, k)


class TestBigDG:
    def test_D_examples(self):
        assert bigD(0) == RationalFn.from_ratio(qbracket_Aq(0), qbracket_q(1))
        assert bigD(-1) == RationalFn.from_ratio(qbracket_Aq(-1), qbracket_q(1))

    def test_D_at_A_eq_q(self):
        # D_j specializes to [j+1] for j >= 0
        sub = Monomial(1, 0, 1)
        for j in range(5):
            assert bigD(j).substitute("A", sub) == RationalFn.from_poly(qint(j + 1))

    def test_G_basics(self):
        assert bigG(0) == RationalFn.one()
        assert bigG(1) == RationalFn.from_ratio(qbracket_Aq(-1), qbracket_q(1))

    def test_G_vanishing_at_special_points(self):
        # at A = q every G(i), i > 0 vanishes; at A = 1/q only i >= 3 do
        at_q = Monomial(1, 0, 1)
        at_inv = Monomial(1, 0, -1)
        for i in range(1, 6):
            assert bigG(i).substitute("A", at_q).is_zero
        assert not bigG(1).substitute("A", at_inv).is_zero
        assert not bigG(2).substitute("A", at_inv).is_zero
        for i in range(3, 6):
            assert bigG(i).substitute("A", at_inv).is_zero

    @staticmethod
    def assert_unit_times_vector(f):
        assert f.cof.as_monomial() is not None
        assert f.den == 1 and not f.opq

    def test_G_matches_expanded_product(self):
        for n in range(13):
            num = one
            for j in range(1, n + 1):
                num = num * qbracket_Aq(j - 2)
            expect = RationalFn.from_ratio(
                num, *[qbracket_q(j) for j in range(1, n + 1)])
            assert bigG(n) == expect, n
            self.assert_unit_times_vector(bigG(n))

    def test_brackets_and_D_match_expanded(self):
        for j in range(-12, 13):
            assert bracket_Aq(j) == RationalFn.from_poly(qbracket_Aq(j)), j
            assert bracket_q(j) == RationalFn.from_poly(qbracket_q(j)), j
            assert bigD(j) == RationalFn.from_ratio(
                qbracket_Aq(j), qbracket_q(1)), j
            for f in (bracket_Aq(j), bigD(j)) + ((bracket_q(j),) if j else ()):
                self.assert_unit_times_vector(f)
        assert bracket_q(0).is_zero

    def test_delta_zero_is_one(self):
        assert delta(0) == RationalFn.one()

    def test_chi_rows_matches_hook(self):
        from pretzelhomfly.symfunc import YoungDiagram, schur_hook
        for r in range(1, 5):
            assert chi_rows(r, 0) == schur_hook(YoungDiagram([r]))
        assert chi_two_row(2, 1) == schur_hook(YoungDiagram([3, 1]))


def poly_strategy(max_terms=3):
    term = st.tuples(st.integers(-2, 2), st.integers(-2, 2),
                     st.integers(-5, 5).filter(bool))
    return st.lists(term, min_size=1, max_size=max_terms).map(
        lambda ts: LaurentPoly({(a, b): c for a, b, c in ts}))


def rational_strategy():
    poly = poly_strategy()
    dens = st.lists(st.sampled_from(
        [qbracket_q(1), qbracket_q(2), qbracket_Aq(0), qbracket_Aq(1)]),
        max_size=2)
    return st.builds(
        lambda n, ds: RationalFn.from_ratio(n, *ds), poly, dens)


class TestRationalFn:
    def test_cancellation(self):
        f = RationalFn.from_ratio(qbracket_q(2), qbracket_q(1))
        assert f.is_polynomial
        assert f.to_poly() == qint(2)

    def test_non_polynomial(self):
        f = RationalFn.from_ratio(one, qbracket_q(1))
        with pytest.raises(NotPolynomial):
            f.to_poly()

    @given(rational_strategy(), rational_strategy())
    @settings(max_examples=40, deadline=None)
    def test_field_ops(self, f, g):
        assert f + g == g + f
        assert f * g == g * f
        assert f - f == RationalFn.zero()
        if not g.is_zero:
            assert (f / g) * g == f

    @given(rational_strategy())
    @settings(max_examples=40, deadline=None)
    def test_inverse(self, f):
        if not f.is_zero:
            assert f * f.inverse() == RationalFn.one()

    def test_substitute_plain(self):
        f = RationalFn.from_ratio(qbracket_Aq(0), qbracket_q(1))
        v = f.substitute("A", Monomial(1, 0, 2))
        assert v == RationalFn.from_ratio(qbracket_q(2), qbracket_q(1))

    def test_substitute_removable_singularity(self):
        # (A^2 - q^2)/(A - q) -> 2q at A = q after cancelling the kernel
        f = RationalFn.from_ratio(
            LaurentPoly({(2, 0): 1, (0, 2): -1}),
            LaurentPoly({(1, 0): 1, (0, 1): -1}))
        v = f.substitute("A", Monomial(1, 0, 1))
        assert v == RationalFn.from_poly(LaurentPoly({(0, 1): 2}))

    def test_substitute_genuine_pole(self):
        f = RationalFn.from_ratio(one, LaurentPoly({(1, 0): 1, (0, 1): -1}))
        with pytest.raises(DivisionByZero):
            f.substitute("A", Monomial(1, 0, 1))

    def test_eq_cross_multiplication(self):
        f = RationalFn.from_ratio(qint(2) * qbracket_q(1), qbracket_q(1))
        assert f == RationalFn.from_poly(qint(2))


# Denominator factors: basis products ({q^j}, {Aq^j}, [n]), a factor outside
# the basis (A - q) and irreducible pieces of basis factors (A q^j - 1 of
# A^2 q^2j - 1, q + 1 of Phi_1(q^2) = q^2 - 1).
den_factor = st.one_of(
    st.integers(-3, 3).filter(bool).map(qbracket_q),
    st.integers(-3, 3).map(qbracket_Aq),
    st.integers(1, 5).map(qint),
    st.just(LaurentPoly({(1, 0): 1, (0, 1): -1})),
    st.integers(-2, 2).map(lambda j: LaurentPoly({(1, j): 1, (0, 0): -1})),
    st.just(LaurentPoly({(0, 1): 1, (0, 0): 1})))

basis_key = st.one_of(st.integers(-10, 10).map(lambda k: ("B", k)),
                      st.integers(1, 12).map(lambda d: ("C", d)))


class TestFactoredCancellation:
    @given(poly_strategy(4), st.lists(den_factor, max_size=5), st.booleans())
    @settings(max_examples=80, deadline=None)
    def test_cancellation_is_complete(self, p, dens, factored):
        f = RationalFn.from_poly(p)
        for d in dens:
            # an inverted reciprocal holds d split over the basis
            f = (f * RationalFn.one().div_poly(d).inverse() if factored
                 else f.mul_poly(d))
        for i, d in enumerate(dens):
            # alternate div_poly with multiplication by an inverse
            f = f.div_poly(d) if i % 2 else f / RationalFn.from_poly(d)
        assert f.is_polynomial
        assert f.to_poly() == p

    @given(rational_strategy(), rational_strategy(), poly_strategy(4))
    @settings(max_examples=60, deadline=None)
    def test_inverse_of_sum_round_trips(self, f, g, p):
        s = f.mul_poly(p) + g
        if s.is_zero:
            return
        inv = s.inverse()
        assert inv.inverse() == s
        prod = s * inv
        assert prod.is_polynomial and prod.to_poly() == one

    @given(basis_key, poly_strategy(5))
    @settings(max_examples=150, deadline=None)
    def test_divisibility_test_admits_every_multiple(self, key, g):
        f = _basis_poly(key)
        assert _divides(key, f * g)
        assert _basis_quotient(f * g, key) == g

    @given(basis_key, poly_strategy(5), poly_strategy(2))
    @settings(max_examples=150, deadline=None)
    def test_divisibility_test_is_exact(self, key, g, h):
        p = _basis_poly(key) * g + h
        assert _divides(key, p) == _basis_poly(key).divides(p)

    def test_piece_of_a_basis_factor_cancels(self):
        piece = LaurentPoly({(1, 1): 1, (0, 0): -1})  # A q - 1
        aq_plus = LaurentPoly({(0, 0): 1, (-1, -1): 1})  # {Aq} / (A q - 1)
        assert RationalFn.from_ratio(qbracket_Aq(1), piece).to_poly() == aq_plus
        # the same with {Aq} held as the basis factor A^2 q^2 - 1
        f = bigD(1).mul_poly(qbracket_q(1)).div_poly(piece)
        assert f.to_poly() == aq_plus
        g = RationalFn.from_ratio(piece, qbracket_Aq(1))
        assert not g.is_polynomial
        assert (g * f).to_poly() == one

    def test_qfact_ratio_matches_expanded(self):
        assert qfact_ratio([5, 2], [3]) == RationalFn.from_ratio(
            qfact(5) * qfact(2), qfact(3))
        assert qfact_ratio([4], [3]).to_poly() == qint(4)
        with pytest.raises(NegativeInput):
            qfact_ratio([-1])
