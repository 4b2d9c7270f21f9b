"""Quantum-number combinatorics and factored rational functions."""

import operator
from functools import reduce

import pytest
from hypothesis import given, settings, strategies as st

from pretzelhomfly.diffexp import _binom_q
from pretzelhomfly.errors import (DivisionByZero, EngineError, NegativeInput,
                                  NotInBasis, NotPolynomial, OutOfRange)
from pretzelhomfly.laurent import LaurentPoly, Monomial
from pretzelhomfly.qcore import (RationalFn, _basis_poly, _basis_quotient,
                                 _divides, _phi_at_most, bigD, bigG,
                                 bracket_Aq, bracket_q, chi_rows, chi_two_row,
                                 delta, qfact_ratio)

from ratref import (at, equals_ratio, is_value, qbinom, qbracket_Aq,
                    qbracket_q, qfact, qint)

one = LaurentPoly.one()


def basis_qint(n: int) -> RationalFn:
    """[n] = [n]! / [n-1]! over the basis."""
    return qfact_ratio([n], [n - 1])


class TestQuantumNumbers:
    """qcore's basis values against the expanded references of ratref."""

    def test_qint_small(self):
        assert qint(0).is_zero
        assert basis_qint(1) == RationalFn.one() == qint(1)
        assert basis_qint(2).to_poly() == LaurentPoly({(0, 1): 1, (0, -1): 1})
        for n in range(1, 8):
            assert basis_qint(n).to_poly() == qint(n)

    def test_qint_bracket_ratio(self):
        # [n] = {q^n}/{q}
        for n in range(1, 8):
            assert bracket_q(n) / bracket_q(1) == basis_qint(n)
            assert qint(n) * qbracket_q(1) == qbracket_q(n)

    def test_qfact(self):
        assert qfact_ratio([0]) == RationalFn.one()
        assert qfact_ratio([3]) == basis_qint(1) * basis_qint(2) * basis_qint(3)
        for n in range(8):
            assert qfact_ratio([n]).to_poly() == qfact(n)

    def test_qbinom_symmetry_and_pascal(self):
        for n in range(8):
            for k in range(n + 1):
                assert _binom_q(n, k) == _binom_q(n, n - k)
                assert _binom_q(n, k) == qbinom(n, k)
        # q-Pascal: C(n,k) = q^k C(n-1,k) + q^(k-n) C(n-1,k-1)
        for n in range(1, 7):
            for k in range(1, n):
                lhs = _binom_q(n, k)
                rhs = (_binom_q(n - 1, k).shift(Monomial(1, 0, k))
                       + _binom_q(n - 1, k - 1).shift(Monomial(1, 0, k - n)))
                assert lhs == rhs

    def test_qbinom_range(self):
        with pytest.raises(OutOfRange):
            qbinom(3, 5)
        # over the basis, k > n is the factorial of a negative number
        with pytest.raises(NegativeInput):
            _binom_q(3, 5)

    def test_qbinom_at_q1(self):
        from math import comb
        sub = Monomial(1, 0, 0)
        for n in range(7):
            for k in range(n + 1):
                v = _binom_q(n, k).substitute("q", sub)
                assert sum(v.terms.values()) == comb(n, k)


class TestBigDG:
    def test_D_examples(self):
        assert equals_ratio(bigD(0), qbracket_Aq(0), qbracket_q(1))
        assert equals_ratio(bigD(-1), qbracket_Aq(-1), qbracket_q(1))

    def test_D_at_A_eq_q(self):
        # D_j specializes to [j+1] for j >= 0
        sub = Monomial(1, 0, 1)
        for j in range(5):
            assert is_value(at(bigD(j), "A", sub), qint(j + 1))

    def test_G_basics(self):
        assert bigG(0) == RationalFn.one()
        assert equals_ratio(bigG(1), qbracket_Aq(-1), qbracket_q(1))

    def test_G_vanishing_at_special_points(self):
        # at A = q every G(i), i > 0 vanishes; at A = 1/q only i >= 3 do
        at_q = Monomial(1, 0, 1)
        at_inv = Monomial(1, 0, -1)
        for i in range(1, 6):
            assert at(bigG(i), "A", at_q)[0].is_zero
        assert not at(bigG(1), "A", at_inv)[0].is_zero
        assert not at(bigG(2), "A", at_inv)[0].is_zero
        for i in range(3, 6):
            assert at(bigG(i), "A", at_inv)[0].is_zero

    @staticmethod
    def assert_unit_times_vector(f):
        assert f.cof.as_monomial() is not None
        assert f.den == 1

    def test_G_matches_expanded_product(self):
        for n in range(13):
            num = one
            for j in range(1, n + 1):
                num = num * qbracket_Aq(j - 2)
            assert equals_ratio(
                bigG(n), num, *[qbracket_q(j) for j in range(1, n + 1)]), n
            self.assert_unit_times_vector(bigG(n))

    def test_brackets_and_D_match_expanded(self):
        for j in range(-12, 13):
            assert bracket_Aq(j) == RationalFn.from_poly(qbracket_Aq(j)), j
            assert bracket_q(j) == RationalFn.from_poly(qbracket_q(j)), j
            assert equals_ratio(bigD(j), qbracket_Aq(j), qbracket_q(1)), j
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


# A value over the basis with its expansion: the bracket constructors, [n]
# and [n]! as qfact_ratio, and a unit times an integer.
basis_value = st.one_of(
    st.integers(-3, 3).filter(bool).map(
        lambda j: (bracket_q(j), qbracket_q(j))),
    st.integers(-3, 3).map(lambda j: (bracket_Aq(j), qbracket_Aq(j))),
    st.integers(1, 5).map(lambda n: (qfact_ratio([n], [n - 1]), qint(n))),
    st.integers(0, 4).map(lambda n: (qfact_ratio([n]), qfact(n))),
    st.tuples(st.sampled_from([-3, -1, 2, 5]), st.integers(-2, 2),
              st.integers(-2, 2)).map(lambda t: (
                  RationalFn.from_poly(LaurentPoly.term(*t)),
                  LaurentPoly.term(*t))))


def unit_strategy():
    """A unit times an integer times a signed basis vector: what inverse
    and / accept."""
    factor = st.tuples(basis_value, st.booleans()).map(
        lambda t: t[0][0] if t[1] else t[0][0].inverse())
    return st.lists(factor, min_size=1, max_size=3).map(
        lambda fs: reduce(operator.mul, fs))


def rational_strategy():
    """A polynomial times a unit-vector value, times expanded basis
    polynomials through mul_poly, which cancel against the vector's
    denominator."""
    return st.builds(
        lambda p, u, es: reduce(RationalFn.mul_poly, es, u.mul_poly(p)),
        poly_strategy(), unit_strategy(),
        st.lists(basis_value.map(lambda t: t[1]), max_size=2))


class TestRationalFn:
    def test_cancellation(self):
        f = RationalFn.from_poly(qbracket_q(2)) / bracket_q(1)
        assert f.is_polynomial
        assert f.to_poly() == qint(2)

    def test_non_polynomial(self):
        f = RationalFn.one() / bracket_q(1)
        with pytest.raises(NotPolynomial):
            f.to_poly()

    @given(rational_strategy(), rational_strategy(), unit_strategy())
    @settings(max_examples=40, deadline=None)
    def test_field_ops(self, f, g, u):
        assert f + g == g + f
        assert f * g == g * f
        assert f - f == RationalFn.zero()
        assert (f / u) * u == f

    @given(unit_strategy())
    @settings(max_examples=40, deadline=None)
    def test_inverse(self, f):
        assert f * f.inverse() == RationalFn.one()

    @pytest.mark.parametrize("divisor", [
        LaurentPoly({(1, 0): 1, (0, 1): -1}),  # A - q, outside the basis
        LaurentPoly({(1, 1): 1, (0, 0): -1}),  # A q - 1, a piece of ("B", 1)
        LaurentPoly({(0, 1): 1, (0, 0): 1}),   # q + 1, a piece of ("C", 1)
        qbracket_q(1),                         # {q} expanded: use bracket_q(1)
    ], ids=["A-q", "Aq-1", "q+1", "expanded-bracket"])
    def test_div_poly_outside_basis_raises(self, divisor):
        with pytest.raises(NotInBasis) as exc:
            bigD(1).div_poly(divisor)
        assert isinstance(exc.value, EngineError)

    def test_inverse_of_sum_raises(self):
        f = RationalFn.one() + RationalFn.from_poly(LaurentPoly.var_A())
        with pytest.raises(NotInBasis):
            f.inverse()
        with pytest.raises(NotInBasis):
            bigD(0) / f

    def test_inverse_folds_expanded_basis_factors(self):
        # {q} and [3] = q^-2 Phi_3(q^2) held expanded in the cofactor
        assert RationalFn.from_poly(qbracket_q(1)).inverse() == \
            bracket_q(1).inverse()
        assert RationalFn.from_poly(qint(3)).inverse() == \
            qfact_ratio([2], [3])
        unit = LaurentPoly.term(-3, 1, 2)
        expanded = qbracket_Aq(-2) * qbracket_q(6) * unit
        assert RationalFn.from_poly(expanded).inverse() == \
            (bracket_Aq(-2) * bracket_q(6)).inverse().div_poly(unit)

    def test_fold_candidates(self):
        # every d with phi(d) <= 4: ("C", d) up to a q-span of 8
        assert _phi_at_most(4) == [1, 2, 3, 4, 5, 6, 8, 10, 12]
        assert _phi_at_most(0) == []

    def test_inverse_of_sum_reaching_basis_value(self):
        # q - q^-1 = {q} as a sum of two monomials keeps q^2 - 1 expanded
        s = (RationalFn.from_poly(LaurentPoly.var_q())
             - RationalFn.from_poly(LaurentPoly.var_q(-1)))
        inv = s.inverse()
        assert equals_ratio(inv, LaurentPoly.var_q(),
                            LaurentPoly({(0, 2): 1, (0, 0): -1}))
        assert inv == bracket_q(1).inverse()
        prod = s * inv
        assert prod.is_polynomial and prod.to_poly() == one

    def test_inverse_outside_basis_still_raises(self):
        with pytest.raises(NotInBasis):
            RationalFn.from_poly(LaurentPoly({(1, 0): 1, (0, 1): -1})).inverse()
        # a piece A q - 1 of ("B", 1) next to a whole ("B", 1) is left over
        with pytest.raises(NotInBasis):
            RationalFn.from_poly(LaurentPoly({(1, 1): 1, (0, 0): -1})
                                 * qbracket_Aq(1)).inverse()

    @given(unit_strategy(), st.lists(basis_value, min_size=1, max_size=3))
    @settings(max_examples=60, deadline=None)
    def test_inverse_of_expanded_product(self, u, vals):
        f = reduce(RationalFn.mul_poly, (e for _, e in vals), u)
        inv = f.inverse()
        assert inv == reduce(operator.mul, (v for v, _ in vals), u).inverse()
        prod = f * inv
        assert prod.is_polynomial and prod.to_poly() == one

    def test_substitute_plain(self):
        # D_0 = {A}/{q} at A = q^2 is {q^2}/{q} = [2]
        assert is_value(at(bigD(0), "A", Monomial(1, 0, 2)), qint(2))

    def test_substitute_removable_singularity(self):
        # (A q - 1) / {Aq} = A q / (A q + 1) -> 1/2 at A = 1/q, after
        # cancelling the kernel A - 1/q of the basis factor A^2 q^2 - 1
        f = RationalFn.from_poly(LaurentPoly({(1, 1): 1, (0, 0): -1})) \
            / bracket_Aq(1)
        assert not f.is_polynomial
        num, den = at(f, "A", Monomial(1, 0, -1))
        assert num.scale(2) == den

    def test_substitute_genuine_pole(self):
        with pytest.raises(DivisionByZero):
            at(bracket_Aq(1).inverse(), "A", Monomial(1, 0, -1))

    def test_eq_cross_multiplication(self):
        f = RationalFn.from_poly(qint(2) * qbracket_q(1)) / bracket_q(1)
        assert f == RationalFn.from_poly(qint(2))
        # the same value held as a basis vector equals its expansion
        assert bracket_q(2) / bracket_q(1) == RationalFn.from_poly(qint(2))


basis_key = st.one_of(st.integers(-10, 10).map(lambda k: ("B", k)),
                      st.integers(1, 12).map(lambda d: ("C", d)))


class TestFactoredCancellation:
    @given(poly_strategy(4), st.lists(basis_value, max_size=5), st.booleans())
    @settings(max_examples=80, deadline=None)
    def test_cancellation_is_complete(self, p, dens, factored):
        f = RationalFn.from_poly(p)
        for v, e in dens:
            # the factored value, or its expansion through mul_poly
            f = f * v if factored else f.mul_poly(e)
        for i, (v, e) in enumerate(dens):
            # alternate / with div_poly where the divisor is a unit times
            # an integer
            f = f.div_poly(e) if i % 2 and len(e.terms) == 1 else f / v
        assert f.is_polynomial
        assert f.to_poly() == p

    @given(st.lists(basis_value, min_size=1, max_size=3), basis_value,
           poly_strategy(4))
    @settings(max_examples=60, deadline=None)
    def test_inverse_of_sum_round_trips(self, dens, v, p):
        # t = 1 / prod(dens) has only denominator factors, and w e = t for
        # the expansion e of v, so the sum of w p and w (e - p) collapses
        # onto a unit over t's vector
        t = reduce(operator.mul, (d for d, _ in dens)).inverse()
        w = t / v[0]
        s = w.mul_poly(p) + w.mul_poly(v[1] - p)
        assert s == t
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
        # A q - 1 and A q + 1 are the pieces of the basis factor
        # A^2 q^2 - 1: one alone leaves it in the denominator, both clear it
        piece = LaurentPoly({(1, 1): 1, (0, 0): -1})  # A q - 1
        aq_plus = LaurentPoly({(0, 0): 1, (-1, -1): 1})  # {Aq} / (A q - 1)
        g = RationalFn.from_poly(piece) / bracket_Aq(1)
        assert not g.is_polynomial
        assert equals_ratio(g, piece, qbracket_Aq(1))
        assert g.mul_poly(aq_plus).to_poly() == one
        # the same with {Aq} held as the basis factor of D_1 {q}
        f = RationalFn.from_poly(piece) / (bigD(1) * bracket_q(1))
        assert f == g
        assert f.mul_poly(aq_plus).to_poly() == one

    def test_qfact_ratio_matches_expanded(self):
        assert equals_ratio(qfact_ratio([5, 2], [3]),
                            qfact(5) * qfact(2), qfact(3))
        assert qfact_ratio([4], [3]).to_poly() == qint(4)
        with pytest.raises(NegativeInput):
            qfact_ratio([-1])
