"""Racah matrices: printed r=1 entries, orthonormality, unitarity and the
behaviour of the first rows at the four special substitutions.

The matrices are built as rational parts: S_km = s_km sqrt(Delta_k chi_m)
and S-bar_km = s-bar_km sqrt(Delta_k Delta_m), so a square of an entry is
the rational part squared times its radicands, and Delta_0 = 1."""

import pytest

from pretzelhomfly.errors import OutOfRange
from pretzelhomfly.laurent import LaurentPoly, Monomial
from pretzelhomfly.qcore import RationalFn, chi_two_row, delta
from pretzelhomfly.racah import (build_S, build_Sbar, build_Tbar, sigma,
                                 twist_row)

from ratref import at, equals_ratio, first_row_squares_at, is_value

A = LaurentPoly.var_A()
q = LaurentPoly.var_q()
one, zero = LaurentPoly.one(), LaurentPoly.zero()
ONE, ZERO = RationalFn.one(), RationalFn.zero()

SPECIAL = [("A=q", Monomial(1, 0, 1)), ("A=-q", Monomial(-1, 0, 1)),
           ("A=1/q", Monomial(1, 0, -1)), ("A=-1/q", Monomial(-1, 0, -1))]


def radicands(r):
    """(Delta_0..Delta_r, chi_0..chi_r)."""
    return ([delta(k) for k in range(r + 1)],
            [chi_two_row(r, m) for m in range(r + 1)])


def total(values):
    return sum(values, ZERO)


@pytest.fixture(scope="module")
def matrices():
    return {r: (build_S(r), build_Sbar(r)) + radicands(r) for r in (1, 2, 3)}


class TestPrintedR1Entries:
    def test_S_squares(self, matrices):
        S, _, _, chi = matrices[1]
        den = (A * A - one) * (q * q + one)
        assert equals_ratio(S[0][0] ** 2 * chi[0], (A - q) * (A + q), den)
        assert equals_ratio(S[0][1] ** 2 * chi[1],
                            (A * q - one) * (A * q + one), den)

    def test_S_symmetry(self, matrices):
        S, _, D, chi = matrices[1]
        assert S[0][0] ** 2 * chi[0] == S[1][1] ** 2 * D[1] * chi[1]
        assert S[0][1] ** 2 * chi[1] == S[1][0] ** 2 * D[1] * chi[0]

    def test_Sbar_diagonal_rational(self, matrices):
        _, Sbar, D, _ = matrices[1]
        num, den = A * (q * q - one), (A * A - one) * q
        # diagonal entries carry sqrt(Delta_k)^2 = Delta_k: they are rational
        assert equals_ratio(Sbar[0][0], num, den)
        # the (1,1) entry agrees up to sign; signs are recorded, not assumed
        assert equals_ratio(Sbar[1][1] * D[1], -num, den)
        assert (Sbar[1][1] * D[1]) ** 2 == Sbar[0][0] ** 2

    def test_Sbar_off_diagonal_square(self, matrices):
        _, Sbar, D, _ = matrices[1]
        diag_sq = Sbar[0][0] ** 2
        # S-bar_01^2 Delta_1 = S-bar_00^2 times the radical num / den
        num = (A - q) * (A + q) * (A * q - one) * (A * q + one)
        den = A * A * (q * q - one) * (q * q - one)
        assert (Sbar[0][1] ** 2 * D[1]).mul_poly(den) == diag_sq.mul_poly(num)

class TestTbar:
    def test_r1(self):
        assert build_Tbar(1, 1) == [Monomial(1, 0, 0), Monomial(-1, 1, 0)]
        assert build_Tbar(1, 3) == [Monomial(1, 0, 0), Monomial(-1, 3, 0)]

    def test_identity_at_n0(self):
        for r in (1, 2, 3):
            assert build_Tbar(r, 0) == [Monomial(1, 0, 0)] * (r + 1)

    def test_general_entry(self):
        # entry m of Tbar^n is (-q^(m-1) A)^(mn)
        tb = build_Tbar(2, 3)
        assert tb[1] == Monomial(-1, 3, 0)
        assert tb[2] == Monomial(1, 6, 6)


class TestUnitarity:
    @pytest.mark.parametrize("r", (1, 2, 3))
    def test_first_row_S(self, matrices, r):
        S, _, _, chi = matrices[r]
        assert total(S[0][x] ** 2 * chi[x] for x in range(r + 1)) == ONE

    @pytest.mark.parametrize("r", (1, 2, 3))
    def test_first_row_Sbar(self, matrices, r):
        _, Sbar, D, _ = matrices[r]
        assert total(Sbar[0][x] ** 2 * D[x] for x in range(r + 1)) == ONE


class TestRadicalShapes:
    @pytest.mark.parametrize("r", (1, 2, 3, 4, 5))
    def test_rows_orthonormal(self, r):
        # sum_x S_kx S_mx = delta_km over the rational parts, which also
        # checks the radicands the racah docstring assigns to each entry
        S, Sbar = build_S(r), build_Sbar(r)
        D, chi = radicands(r)
        for k in range(r + 1):
            for m in range(r + 1):
                expect = ONE if k == m else ZERO
                assert D[k] * total(S[k][x] * S[m][x] * chi[x]
                                    for x in range(r + 1)) == expect
                assert D[k] * total(Sbar[k][x] * Sbar[m][x] * D[x]
                                    for x in range(r + 1)) == expect

    def test_sigma_index_errors(self):
        with pytest.raises(OutOfRange):
            sigma(0, 3, 4, 2)
        with pytest.raises(OutOfRange):
            sigma(0, 0, 0, 1)


class TestSpecializations:
    """At A = +-q the first rows collapse to indicator vectors. At
    A = +-1/q the collapse claimed alongside it does not happen: at r = 1
    the indicator flips to m = 0, and for r >= 2 the entries have genuine
    poles.  The tests pin the observed behaviour; signs are recorded from
    observation, not assumed."""

    @pytest.mark.parametrize("r", (1, 2, 3))
    @pytest.mark.parametrize("label,mono", SPECIAL[:2])
    def test_indicators_at_A_eq_pm_q(self, matrices, r, label, mono):
        S, Sbar, D, chi = matrices[r]
        s_sq = first_row_squares_at(S, chi, mono)
        sb_sq = first_row_squares_at(Sbar, D, mono)
        for m in range(r + 1):
            assert is_value(s_sq[m], one if m == r else zero)
            assert is_value(sb_sq[m], one if m == 0 else zero)

    @pytest.mark.parametrize("label,mono", SPECIAL[2:])
    def test_r1_flipped_indicator_at_A_eq_pm_inv_q(self, matrices, label, mono):
        S, Sbar, D, chi = matrices[1]
        s_sq = first_row_squares_at(S, chi, mono)
        assert len(s_sq) == 2
        assert is_value(s_sq[0], one) and is_value(s_sq[1], zero)
        sb_sq = first_row_squares_at(Sbar, D, mono)
        assert len(sb_sq) == 2
        assert is_value(sb_sq[0], one) and is_value(sb_sq[1], zero)

    def test_Sbar00_observed_signs(self, matrices):
        entry = matrices[1][1][0][0]
        observed = [at(entry, "A", mono) for _, mono in SPECIAL]
        for pair, sign in zip(observed, [one, -one, -one, one]):
            assert is_value(pair, sign)

    @pytest.mark.parametrize("r", (2, 3))
    @pytest.mark.parametrize("label,mono", SPECIAL[2:])
    def test_poles_at_A_eq_pm_inv_q(self, matrices, r, label, mono):
        S, Sbar, D, chi = matrices[r]
        s_sq = first_row_squares_at(S, chi, mono)
        sb_sq = first_row_squares_at(Sbar, D, mono)
        if r == 2:
            assert all(v is None for v in s_sq)
            assert all(v is None for v in sb_sq)
        else:
            # only S_00 and Sbar_0r stay finite at r = 3
            assert s_sq[0] is not None
            assert all(v is None for v in s_sq[1:])
            assert sb_sq[r] is not None
            assert all(v is None for v in sb_sq[:r])


class TestTwistRow:
    def test_r1_entry_rad_shape(self, matrices):
        # entry x is rho_x sqrt(chi_x) (chi_0 = chi_{[1,1]} here), so with S
        # orthogonal, sum_x row_x^2 = (S-bar T-bar^2n S-bar^T)_00 reads
        # sum_x rho_x^2 chi_x = sum_k s-bar_0k^2 Delta_k T-bar^2n_k
        S, Sbar, D, chi = matrices[1]
        for n in (-1, 1, 3):
            row = twist_row(1, n, S, Sbar)
            t2n = build_Tbar(1, 2 * n)
            assert total(row[x] ** 2 * chi[x] for x in range(2)) == total(
                (Sbar[0][k] ** 2 * D[k]).mul_poly(t2n[k].as_poly())
                for k in range(2))

    def test_n_zero_is_Sbar_S_row(self, matrices):
        S, Sbar, _, chi = matrices[2]
        row = twist_row(2, 0, S, Sbar)
        # Sbar . S is an involution-like product; its row 0 squared sums to 1
        assert total(row[x] ** 2 * chi[x] for x in range(3)) == ONE
