"""Finite differences, catalog factorization and the verdict checks.

The first-difference four-point property holds at r = 1 and is refuted at
r = 2; these tests pin both behaviours.  The engine side has been validated
against independent identities (see test_pretzel), so the r = 2 refutation
is a property of the mathematics, not of this implementation.
"""

import pytest

from pretzelhomfly.differences import (check_conjecture_main,
                                       check_conjecture_mono,
                                       check_genus_vanishing, check_theorem_1,
                                       factor_X, four_point_divisor, q_diff,
                                       q_diff_window, special_point_monomials)
from pretzelhomfly.errors import ZeroPolynomial
from pretzelhomfly.laurent import LaurentPoly, Monomial
from pretzelhomfly.pretzel import HomflyEngine
from pretzelhomfly.qcore import qbracket_Aq, qbracket_q
from pretzelhomfly.report import FAILS, HOLDS, INSUFFICIENT


@pytest.fixture(scope="module")
def engine():
    return HomflyEngine()


class TestQDiff:
    def test_zeroth_is_invariant(self, engine):
        from pretzelhomfly.pretzel import PretzelSpec
        assert q_diff(0, 1, 1, 1, 1, engine) == engine.homfly(
            PretzelSpec((1, 1, 1), 1)).poly

    def test_first_difference_telescopes(self, engine):
        d = q_diff(1, 1, 1, 1, 1, engine)
        assert d == q_diff(0, 1, 1, 3, 1, engine) - q_diff(0, 1, 1, 1, 1, engine)

    def test_second_difference(self, engine):
        d2 = q_diff(2, 1, 1, 1, 1, engine)
        assert d2 == (q_diff(1, 1, 1, 3, 1, engine)
                      - q_diff(1, 1, 1, 1, 1, engine))

    def test_genus_variant_matches_genus2(self, engine):
        from pretzelhomfly.pretzel import PretzelSpec
        assert q_diff_window(1, (1, 1), [1], 1, engine) == [
            q_diff(1, 1, 1, 1, 1, engine)]
        # genus 4, three members at r = 1: one member comes from the
        # recurrence, which holds in the last parameter at any genus
        h = [HomflyEngine().homfly(PretzelSpec((1, 1, 1, 1, c), 1)).poly
             for c in (1, 3, 5)]
        assert q_diff_window(2, (1, 1, 1, 1), [1], 1, engine) == [
            h[2] - h[1].scale(2) + h[0]]

    def test_table_fill(self, engine):
        rows = q_diff_window(1, (1, 1), range(1, 4, 2), 1, engine)
        assert rows == [q_diff(1, 1, 1, 1, 1, engine),
                        q_diff(1, 1, 1, 3, 1, engine)]
        assert q_diff_window(1, (1, 1), range(3, 1, 2), 1, engine) == []


class TestFourPointDivisor:
    def test_expansion(self):
        A, q = LaurentPoly.var_A(), LaurentPoly.var_q()
        one = LaurentPoly.one()
        d = four_point_divisor()
        assert d == (A - q) * (A + q) * (A * q - one) * (A * q + one)

    def test_vanishes_exactly_at_special_points(self):
        d = four_point_divisor()
        for _, mono in special_point_monomials():
            assert d.substitute("A", mono).is_zero


class TestTheorem1:
    @pytest.mark.parametrize("a,b,m", [(1, 1, 1), (1, 3, 2), (3, 3, -1),
                                       (-3, 1, 0), (1, -3, 2)])
    def test_holds_at_r1(self, engine, a, b, m):
        assert check_theorem_1(a, b, m, 1, engine).status == HOLDS

    def test_refuted_at_r2(self, engine):
        # the A = +-1/q half of the four-point argument fails for r >= 2;
        # the first rows of the Racah matrices have poles there and the
        # invariant's A = 1/q slice genuinely depends on c
        v = check_theorem_1(1, 1, 1, 2, engine)
        assert v.status == FAILS
        assert "A=1/q" in v.detail or "A=-1/q" in v.detail
        assert v.witness is not None and not v.witness.is_zero

    def test_r2_partial_divisibility(self, engine):
        # the A = +-q half survives at r = 2
        A, q = LaurentPoly.var_A(), LaurentPoly.var_q()
        d = q_diff(1, 1, 1, 1, 2, engine)
        d.exact_div((A - q) * (A + q))  # raises if not exact
        for label, mono in special_point_monomials()[:2]:
            assert d.substitute("A", mono).is_zero


class TestGenusRemark:
    def test_genus3_link_first_difference_vanishes(self, engine):
        v = check_genus_vanishing((1, 1, 1, 1), 1, engine)
        assert v.status == HOLDS

    def test_genus2_agrees_with_theorem_route(self, engine):
        v = check_genus_vanishing((1, 1, 1), 1, engine)
        assert v.status == HOLDS


class TestFactorX:
    def test_rejects_zero(self):
        with pytest.raises(ZeroPolynomial):
            factor_X(LaurentPoly.zero())

    def test_monomial_input(self):
        rep = factor_X(LaurentPoly({(2, -1): -3}))
        assert rep.unit == Monomial(-1, 2, -1)
        assert rep.X == LaurentPoly.const(3)  # integer content stays residual
        assert rep.reconstruct() == LaurentPoly({(2, -1): -3})

    def test_catalog_product(self):
        # greedy order takes {q} out of {q^2} first, leaving q^2 + 1 residual
        p = qbracket_q(2) * qbracket_Aq(1) * qbracket_Aq(1)
        rep = factor_X(p)
        assert rep.reconstruct() == p
        mults = {f.to_text(): m for f, m in rep.catalog_factors}
        assert mults[qbracket_Aq(1).to_text()] == 2
        assert mults[qbracket_q(1).to_text()] == 1
        assert rep.residual == LaurentPoly({(0, 2): 1, (0, 0): 1})

    def test_reconstruction_on_sweep_output(self, engine):
        d = q_diff(1, 1, 1, 1, 1, engine)
        rep = factor_X(d)
        assert rep.reconstruct() == d
        assert not rep.residual_certified

    def test_X_is_highest_degree_piece(self):
        p = qbracket_q(1) * qbracket_Aq(3)
        rep = factor_X(p)
        assert rep.X == qbracket_Aq(3)


class TestConjectureMain:
    def test_r1_reports_observed_ratio(self, engine):
        v = check_conjecture_main(1, 1, 1, 1, engine)
        assert v.status == FAILS
        assert "A^2" in v.detail  # differences agree up to A^2, not A^1

    def test_r2_fails_beyond_monomial(self, engine):
        v = check_conjecture_main(1, 1, 1, 2, engine)
        assert v.status == FAILS
        assert "not monomial multiples" in v.detail


class TestConjectureMono:
    def test_literal_step_hits_link(self, engine):
        mv = check_conjecture_mono(1, 1, 1, 1, engine)
        assert mv.literal_step.status == INSUFFICIENT
        assert "NotPolynomial" in mv.literal_step.detail

    def test_odd_step_holds(self, engine):
        mv = check_conjecture_mono(1, 1, 1, 1, engine)
        assert mv.odd_step.status == HOLDS

    def test_json_shape(self, engine):
        mv = check_conjecture_mono(1, 1, 1, 1, engine)
        j = mv.to_json()
        assert set(j) == {"step_c_plus_1", "step_c_plus_2"}


class TestCacheCoherence:
    def test_fresh_equals_memoized(self, tmp_path):
        from pretzelhomfly.cache import HomflyCache
        cached = HomflyEngine(cache=HomflyCache(tmp_path))
        d_first = q_diff(1, 1, 1, 1, 1, cached)
        # second engine reads every H from the persistent store
        warm = HomflyEngine(cache=HomflyCache(tmp_path))
        d_warm = q_diff(1, 1, 1, 1, 1, warm)
        plain = q_diff(1, 1, 1, 1, 1, HomflyEngine())
        assert d_first == d_warm == plain
