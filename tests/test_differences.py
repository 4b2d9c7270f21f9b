"""Finite differences, catalog factorization and the verdict checks.

The first-difference four-point property holds at r = 1 and is refuted at
r = 2; these tests pin both behaviours.  The engine side has been validated
against independent identities (see test_pretzel), so the r = 2 refutation
is a property of the mathematics, not of this implementation.
"""

from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from pretzelhomfly.cache import HomflyCache
from pretzelhomfly.differences import (check_conjecture_main,
                                       check_conjecture_mono, check_theorem_1,
                                       factor_X, four_point_divisor,
                                       four_point_verdict, q_diff,
                                       q_diff_window, special_point_monomials)
from pretzelhomfly.errors import NotDivisible, ZeroPolynomial
from pretzelhomfly.laurent import LaurentPoly, Monomial
from pretzelhomfly.pretzel import HomflyEngine, PretzelSpec
from pretzelhomfly.report import FAILS, HOLDS, INSUFFICIENT, Verdict

from ratref import at, long_div, qbracket_Aq, qbracket_q


@pytest.fixture(scope="module")
def engine():
    return HomflyEngine()


# the distinct (min(a,b), max(a,b), m, r) of `verify theorem1 --depth 2`
DEPTH2_KEYS = sorted({(min(a, b), max(a, b), (c + 1) // 2, r)
                      for a, b, c in product((-3, -1, 1, 3), repeat=3)
                      for r in (1, 2)})


@pytest.fixture(scope="module")
def warm_engine(tmp_path_factory):
    """An engine on a store that a cold engine filled with every knot of
    DEPTH2_KEYS; it reads each of them back and never assembles."""
    store = tmp_path_factory.mktemp("store")
    cold = HomflyEngine(cache=HomflyCache(store))
    for a, b, m, r in DEPTH2_KEYS:
        check_theorem_1(a, b, m, r, cold)
    warm = HomflyEngine(cache=HomflyCache(store))

    def assemble(spec):
        raise AssertionError(f"warm engine assembled {spec.label()}")

    warm.homfly_rational = assemble
    return warm


class TestQDiff:
    def test_zeroth_is_invariant(self, engine):
        from pretzelhomfly.pretzel import PretzelSpec
        assert q_diff(0, 1, 1, 1, 1, engine) == engine.homfly(
            PretzelSpec((1, 1, 1), 1))

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
        h = [HomflyEngine().homfly(PretzelSpec((1, 1, 1, 1, c), 1))
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


def reference_four_point_verdict(d):
    """Theorem 1's verdict the plain way: substitute at each point in
    order, then long division."""
    for label, mono in special_point_monomials():
        value = d.substitute("A", mono)
        if not value.is_zero:
            return Verdict.fails(value, f"Q^1 does not vanish at {label}")
    if d.is_zero:
        return Verdict.holds("Q^1 is identically zero")
    try:
        long_div(d.strip_monomial()[1],
                 four_point_divisor().strip_monomial()[1])
    except NotDivisible as exc:
        return Verdict.fails(exc.remainder,
                             "four-point product does not divide Q^1")
    return Verdict.holds("divides exactly and vanishes at all four points")


def _point_factors():
    A, q = LaurentPoly.var_A(), LaurentPoly.var_q()
    one = LaurentPoly.one()
    return [A - q, A + q, A * q - one, A * q + one]


@st.composite
def q1_like(draw):
    """A random polynomial times a random subset of the four linear factors,
    so that it vanishes at none, some or all of the special points; or 0."""
    terms = draw(st.lists(st.tuples(st.integers(-4, 4), st.integers(-4, 4),
                                    st.integers(-9, 9).filter(bool)),
                          max_size=5))
    p = LaurentPoly({(a, b): c for a, b, c in terms})
    for factor, used in zip(_point_factors(),
                            draw(st.lists(st.booleans(), min_size=4,
                                          max_size=4))):
        if used:
            p = p * factor
    return p


class TestFourPointVerdict:
    @given(q1_like())
    @settings(max_examples=300, deadline=None)
    def test_matches_reference(self, d):
        v = four_point_verdict(d)
        ref = reference_four_point_verdict(d)
        assert (v.status, v.witness, v.detail) == (
            ref.status, ref.witness, ref.detail)
        assert v.to_json() == ref.to_json()

    @pytest.mark.parametrize("used", range(16))
    def test_each_subset_of_points(self, used):
        # x = 1 + A^2 q vanishes at none of the four points; each subset of
        # the linear factors fails at the first point it leaves out
        x = LaurentPoly({(0, 0): 1, (2, 1): 1})
        factors = [f for i, f in enumerate(_point_factors()) if used >> i & 1]
        d = x
        for f in factors:
            d = d * f
        v = four_point_verdict(d)
        assert v == reference_four_point_verdict(d)
        assert v.ok == (used == 15)

    def test_zero_and_divisor_multiple(self):
        assert four_point_verdict(LaurentPoly.zero()).detail == \
            "Q^1 is identically zero"
        v = four_point_verdict(four_point_divisor().shift(Monomial(-1, 3, -2)))
        assert v.ok and v.detail.startswith("divides exactly")

    # every distinct key of `verify theorem1 --depth 2`, and one swapped order
    @pytest.mark.parametrize("a,b,m,r", [*DEPTH2_KEYS, (1, -3, 0, 1)])
    def test_engine_q1_matches_reference(self, engine, warm_engine, a, b, m, r):
        ref = reference_four_point_verdict(q_diff(1, a, b, 2 * m - 1, r, engine))
        assert check_theorem_1(a, b, m, r, engine) == ref
        assert check_theorem_1(a, b, m, r, warm_engine) == ref


def first_difference_vanishes(params, r, engine):
    """The first difference in the last parameter, on the rational form so
    that link-valued families are covered, vanishes at the four special
    points, at any genus."""
    up = tuple(params[:-1]) + (params[-1] + 2,)
    d = (engine.homfly_rational(PretzelSpec(up, r))
         - engine.homfly_rational(PretzelSpec(params, r)))
    return all(at(d, "A", mono)[0].is_zero
               for _, mono in special_point_monomials())


class TestGenusRemark:
    def test_genus3_link_first_difference_vanishes(self, engine):
        assert first_difference_vanishes((1, 1, 1, 1), 1, engine)

    def test_genus2_agrees_with_theorem_route(self, engine):
        assert first_difference_vanishes((1, 1, 1), 1, engine)
        assert check_theorem_1(1, 1, 1, 1, engine).status == HOLDS


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
    EVEN_MEMBER = ("member (a,b,c+1) has an even parameter, outside the "
                   "all-odd (antiparallel) formula")

    def test_literal_step_hits_link(self, engine):
        mv = check_conjecture_mono(1, 1, 1, 1, engine)
        assert mv.literal_step.status == INSUFFICIENT
        assert mv.literal_step.detail == self.EVEN_MEMBER

    @pytest.mark.parametrize("r", [1, 2])
    def test_literal_step_insufficient_for_minus_a_a(self, monkeypatch, r):
        # the all-odd formula happens to give a polynomial at (-3, 3, c+1),
        # but that member is outside it all the same: nothing even is assembled
        eng = HomflyEngine()
        assembled = []
        real = eng.homfly_rational

        def spy(spec):
            assembled.append(spec.params)
            return real(spec)

        monkeypatch.setattr(eng, "homfly_rational", spy)
        mv = check_conjecture_mono(-3, 3, 1, r, eng)
        assert mv.literal_step.status == INSUFFICIENT
        assert mv.literal_step.detail == self.EVEN_MEMBER
        assert assembled and all(p % 2 for ps in assembled for p in ps)

    def test_one_S_build_per_call(self, monkeypatch):
        from pretzelhomfly import pretzel
        built = []
        real = pretzel.build_S

        def counting(r):
            built.append(r)
            return real(r)

        monkeypatch.setattr(pretzel, "build_S", counting)
        check_conjecture_mono(1, 1, 1, 2, HomflyEngine())
        assert built == [2]

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
