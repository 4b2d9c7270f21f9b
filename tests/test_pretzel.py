"""Pretzel HOMFLY engine: golden values, framing, independent identities."""

import pytest

from pretzelhomfly.errors import NoCanonicalUnit, RepCapExceeded, ZeroPolynomial
from pretzelhomfly.laurent import LaurentPoly, Monomial
from pretzelhomfly.pretzel import (HomflyEngine, PretzelSpec,
                                   canonicalize_framing, homfly,
                                   permutation_check)


@pytest.fixture(scope="module")
def engine():
    return HomflyEngine()


def H(engine, params, r):
    return engine.homfly(PretzelSpec(params, r)).poly


class TestSpec:
    def test_genus(self):
        assert PretzelSpec((1, 1, 1), 1).genus == 2
        assert PretzelSpec((1, 1, 1, 1), 1).genus == 3

    def test_all_odd(self):
        assert PretzelSpec((1, -3, 5), 1).all_odd
        assert not PretzelSpec((1, 2, 3), 1).all_odd

    def test_validation(self):
        with pytest.raises(ValueError):
            PretzelSpec((1, 1), 1)
        with pytest.raises(ValueError):
            PretzelSpec((1, 1, 1), 0)

    def test_even_params_rejected_by_default(self, engine):
        with pytest.raises(ValueError):
            engine.homfly(PretzelSpec((1, 2, 3), 1))

    def test_rep_cap(self):
        eng = HomflyEngine(rep_cap=2)
        with pytest.raises(RepCapExceeded):
            eng.homfly(PretzelSpec((1, 1, 1), 3))


class TestGoldenValues:
    def test_trefoil_fundamental(self, engine):
        # classic normalized HOMFLY of the trefoil
        expect = LaurentPoly({(4, 0): -1, (2, 2): 1, (2, -2): 1})
        assert H(engine, (1, 1, 1), 1) == expect

    def test_alexander_935(self, engine):
        al = H(engine, (3, 3, 3), 1).substitute("A", Monomial(1, 0, 0))
        assert al == LaurentPoly({(0, 2): 7, (0, 0): -13, (0, -2): 7})

    def test_alexander_946(self, engine):
        al = H(engine, (3, 3, -3), 1).substitute("A", Monomial(1, 0, 0))
        assert al == LaurentPoly({(0, 2): -2, (0, 0): 5, (0, -2): -2})

    def test_trefoil_alexander(self, engine):
        al = H(engine, (1, 1, 1), 1).substitute("A", Monomial(1, 0, 0))
        assert al == LaurentPoly({(0, 2): 1, (0, 0): -1, (0, -2): 1})


class TestNormalization:
    @pytest.mark.parametrize("params,r", [((1, 1, 1), 1), ((1, 1, 1), 2),
                                          ((3, 3, -3), 1), ((1, 1, 3), 2),
                                          ((1, 1, 1), 3)])
    def test_unit_at_A_eq_q(self, engine, params, r):
        p = H(engine, params, r)
        assert p.substitute("A", Monomial(1, 0, 1)) == LaurentPoly.one()

    @pytest.mark.parametrize("params", [(1, 1, 1), (3, 3, 3), (3, 3, -3)])
    def test_value_one_at_A1_q1(self, engine, params):
        p = H(engine, params, 1)
        assert sum(p.substitute("A", Monomial(1, 0, 0)).terms.values()) == 1


class TestIndependentIdentities:
    """Cross-checks against facts not used anywhere in the construction."""

    @pytest.mark.parametrize("params", [(1, 1, 1), (1, 1, 3), (3, 3, 3),
                                        (3, 3, -3), (1, 3, -3)])
    def test_special_polynomial_property(self, engine, params):
        # H_[2] at q = 1 is the square of H_[1] at q = 1
        s1 = H(engine, params, 1).substitute("q", Monomial(1, 0, 0))
        s2 = H(engine, params, 2).substitute("q", Monomial(1, 0, 0))
        assert s2 == s1 * s1

    @pytest.mark.parametrize("params", [(1, 1, 1), (1, 1, 3), (3, 3, 3),
                                        (3, 3, -3), (1, 3, -3)])
    def test_alexander_stability(self, engine, params):
        # H_[2] at A = 1 is H_[1] at A = 1 with q -> q^2
        a1 = H(engine, params, 1).substitute("A", Monomial(1, 0, 0))
        a2 = H(engine, params, 2).substitute("A", Monomial(1, 0, 0))
        assert a2 == a1.substitute("q", Monomial(1, 0, 2))

    def test_fundamental_at_A_inv_q_is_one(self, engine):
        # every knot's fundamental invariant is 1 at A = 1/q
        for params in [(1, 1, 1), (1, 1, 3), (3, 3, -3)]:
            v = H(engine, params, 1).substitute("A", Monomial(1, 0, -1))
            assert v == LaurentPoly.one()


class TestCanonicalFraming:
    def test_recovers_constructed_unit(self, engine):
        p = H(engine, (1, 1, 1), 1)
        shifted = p.shift(Monomial(-1, 2, -3))
        unit, canon = canonicalize_framing(shifted)
        assert canon == p
        assert unit == Monomial(-1, 2, -3)

    def test_identity_on_canonical(self, engine):
        p = H(engine, (3, 3, -3), 1)
        unit, canon = canonicalize_framing(p)
        assert unit == Monomial(1, 0, 0)
        assert canon == p

    def test_rejects_zero(self):
        with pytest.raises(ZeroPolynomial):
            canonicalize_framing(LaurentPoly.zero())

    def test_rejects_non_invariant(self):
        with pytest.raises(NoCanonicalUnit):
            canonicalize_framing(LaurentPoly.var_A() + LaurentPoly.one())


class TestPermutationInvariance:
    @pytest.mark.parametrize("params,r", [((3, 3, -3), 1), ((1, 1, 3), 2),
                                          ((1, -3, 3), 1), ((3, 3, 3), 1)])
    def test_samples(self, engine, params, r):
        assert permutation_check(params, r, engine)

    def test_genus2_only(self, engine):
        with pytest.raises(ValueError):
            permutation_check((1, 1, 1, 1), 1, engine)


class TestDeterminismAndMemo:
    def test_repeat_bit_identical(self, engine):
        a = H(engine, (3, 3, -3), 1)
        b = H(HomflyEngine(), (3, 3, -3), 1)
        import json
        assert json.dumps(a.to_json()) == json.dumps(b.to_json())

    def test_module_level_entry_point(self):
        res = homfly(PretzelSpec((1, 1, 1), 1))
        assert res.poly == LaurentPoly({(4, 0): -1, (2, 2): 1, (2, -2): 1})

    def test_memo_returns_same_poly(self, engine):
        r1 = engine.homfly(PretzelSpec((1, 1, 3), 1))
        r2 = engine.homfly(PretzelSpec((3, 1, 1), 1))  # sorted to same key
        assert r1.poly == r2.poly


class TestRationalForm:
    def test_link_is_not_polynomial(self, engine):
        from pretzelhomfly.errors import NotPolynomial
        rf = engine.homfly_rational(PretzelSpec((1, 1, 1, 1), 1))
        assert not rf.is_polynomial
        with pytest.raises(NotPolynomial):
            rf.to_poly()

    def test_knot_rational_matches_poly(self, engine):
        rf = engine.homfly_rational(PretzelSpec((1, 1, 1), 1))
        assert rf.is_polynomial
        unit, canon = canonicalize_framing(rf.to_poly())
        assert canon == H(engine, (1, 1, 1), 1)


class TestFamily:
    """Members from the evolution recurrence equal direct assembly."""

    @staticmethod
    def direct(engine, params, r):
        return canonicalize_framing(
            engine.homfly_rational(PretzelSpec(params, r)).to_poly())

    # c = -5..3: the seeds sit at -1..1 (r = 1) or -3..1 (r = 2), so the
    # window needs both backward and forward steps
    @pytest.mark.parametrize("r", [1, 2])
    @pytest.mark.parametrize("a,b", [(a, b) for a in (-3, -1, 1, 3)
                                     for b in (-3, -1, 1, 3) if a <= b])
    def test_matches_direct(self, engine, a, b, r):
        cs = range(-5, 4, 2)
        polys = engine.family((a, b), cs, r)
        for c, poly in zip(cs, polys):
            unit, canon = self.direct(engine, (a, b, c), r)
            assert poly == canon, (a, b, c, r)
            # members are memoised with their framing unit
            assert engine.homfly(PretzelSpec((a, b, c), r)).framing_unit == unit

    def test_r3_order3_window(self, engine):
        from pretzelhomfly.differences import q_diff_window
        cs = range(-7, 6, 2)
        diffs = q_diff_window(3, (1, 1), cs[:4], 3, engine)
        members = [self.direct(engine, (1, 1, c), 3)[1] for c in cs]
        for j, d in enumerate(diffs):
            m = members[j:j + 4]
            assert d == m[3] - m[2].scale(3) + m[1].scale(3) - m[0]

    def test_small_window_is_homfly(self, engine):
        assert engine.family((1, 3), [1, 3], 1) == [
            H(engine, (1, 3, 1), 1), H(engine, (1, 3, 3), 1)]
        assert engine.family((1, 3), [], 1) == []

    def test_rejects_bad_windows(self, engine):
        with pytest.raises(ValueError):
            engine.family((1, 1), [0, 2, 4], 1)
        with pytest.raises(ValueError):
            engine.family((1, 1), [1, 5, 7], 1)
        with pytest.raises(RepCapExceeded):
            engine.family((1, 1), [1, 3], engine.rep_cap + 1)

    def test_stored_seed_checked_against_assembly(self, tmp_path):
        from pretzelhomfly.cache import HomflyCache, cache_key
        from pretzelhomfly.errors import CorruptStore
        cache = HomflyCache(tmp_path)
        # a well-formed entry with the wrong value for the seed (1,3,-1)
        cache.put(cache_key((1, 3, -1), 1), H(HomflyEngine(), (1, 1, 1), 1))
        with pytest.raises(CorruptStore):
            HomflyEngine(cache=cache).family((1, 3), range(-3, 4, 2), 1)
