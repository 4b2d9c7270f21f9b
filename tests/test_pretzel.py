"""Pretzel HOMFLY engine: golden values, framing, independent identities."""

from itertools import combinations_with_replacement, product

import pytest
from hypothesis import given, settings, strategies as st

from pretzelhomfly.errors import CorruptStore, NoCanonicalUnit, RepCapExceeded
from pretzelhomfly.laurent import LaurentPoly, Monomial
from pretzelhomfly.pretzel import (REP_CAP, HomflyEngine, PretzelSpec,
                                   canonicalize_framing, homfly,
                                   permutation_check)


@pytest.fixture(scope="module")
def engine():
    return HomflyEngine()


def H(engine, params, r):
    return engine.homfly(PretzelSpec(params, r))


def reference_framing_check(p):
    """canonicalize_framing the plain way: two substitutions."""
    at_aq = p.substitute("A", Monomial(1, 0, 1))
    if not at_aq.is_one:
        raise NoCanonicalUnit(f"A=q slice is {at_aq.to_text()}, not 1")
    slice_a1 = p.substitute("A", Monomial(1, 0, 0))
    if any(slice_a1.terms.get((0, -e), 0) != c
           for (_, e), c in slice_a1.terms.items()):
        raise NoCanonicalUnit("A=1 slice is not palindromic under q -> 1/q")
    return p


def framing_outcome(check, p):
    """True if the check returns p itself, else its NoCanonicalUnit message."""
    try:
        return check(p) is p
    except NoCanonicalUnit as exc:
        return str(exc)


@st.composite
def framing_like(draw):
    """A random polynomial x, or 1 + (A - q) x (1 at A = q), or
    1 + (A - q)(A - 1) x (also 1 at A = 1, so canonical)."""
    terms = draw(st.lists(st.tuples(st.integers(-3, 3), st.integers(-4, 4),
                                    st.integers(-5, 5).filter(bool)),
                          max_size=6))
    p = LaurentPoly({(a, b): c for a, b, c in terms})
    A, q, one = LaurentPoly.var_A(), LaurentPoly.var_q(), LaurentPoly.one()
    kind = draw(st.sampled_from(("any", "one_at_q", "canonical")))
    if kind == "canonical":
        p = (A - one) * p
    if kind != "any":
        p = one + (A - q) * p
    return p


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

    def test_rep_cap(self, engine):
        with pytest.raises(RepCapExceeded):
            engine.homfly(PretzelSpec((1, 1, 1), REP_CAP + 1))


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
    def test_rejects_shifted_canonical(self, engine):
        p = H(engine, (1, 1, 1), 1)
        with pytest.raises(NoCanonicalUnit):
            canonicalize_framing(p.shift(Monomial(-1, 2, -3)))

    def test_rejects_unpalindromic(self, engine):
        # A/q keeps the A=q slice at 1 but moves the A=1 slice off centre
        p = H(engine, (1, 1, 1), 1).shift(Monomial(1, 1, -1))
        assert p.substitute("A", Monomial(1, 0, 1)).is_one
        with pytest.raises(NoCanonicalUnit):
            canonicalize_framing(p)

    def test_identity_on_canonical(self, engine):
        p = H(engine, (3, 3, -3), 1)
        assert canonicalize_framing(p) is p

    def test_rejects_zero(self):
        with pytest.raises(NoCanonicalUnit):
            canonicalize_framing(LaurentPoly.zero())

    def test_rejects_non_invariant(self):
        with pytest.raises(NoCanonicalUnit):
            canonicalize_framing(LaurentPoly.var_A() + LaurentPoly.one())

    def test_engine_checks_assembly(self, monkeypatch):
        from pretzelhomfly.qcore import RationalFn
        assemble = HomflyEngine.homfly_rational

        def shifted(self, spec):
            raw = assemble(self, spec).to_poly()
            return RationalFn.from_poly(raw.shift(Monomial(1, 1, -1)))

        monkeypatch.setattr(HomflyEngine, "homfly_rational", shifted)
        with pytest.raises(NoCanonicalUnit):
            HomflyEngine().homfly(PretzelSpec((1, 1, 3), 1))

    # T-bar carries the topological framing, so assembly needs no shift
    @pytest.mark.parametrize("r", [1, 2])
    def test_assembly_is_canonical_genus2(self, engine, r):
        for params in combinations_with_replacement(range(-5, 6, 2), 3):
            raw = engine.homfly_rational(PretzelSpec(params, r)).to_poly()
            assert canonicalize_framing(raw) is raw, params

    @given(framing_like())
    @settings(max_examples=300, deadline=None)
    def test_matches_reference_drawn(self, p):
        assert framing_outcome(canonicalize_framing, p) == \
            framing_outcome(reference_framing_check, p)

    @pytest.mark.parametrize("r", [1, 2])
    def test_matches_reference_on_shifts(self, engine, r):
        # each canonical genus-2 value passes; a shift by A^i q^-i keeps
        # A=q at 1 and fails the palindrome; any other shift fails at A=q
        assert framing_outcome(canonicalize_framing, LaurentPoly.zero()) == \
            framing_outcome(reference_framing_check, LaurentPoly.zero()) == \
            "A=q slice is 0, not 1"
        for params in combinations_with_replacement(range(-5, 6, 2), 3):
            value = H(engine, params, r)
            for sign, i, j in product((1, -1), (-1, 0, 1), (-1, 0, 1)):
                p = value.shift(Monomial(sign, i, j))
                got = framing_outcome(canonicalize_framing, p)
                assert got == framing_outcome(reference_framing_check, p)
                assert (got is True) == ((sign, i, j) == (1, 0, 0))

    def test_assembly_is_canonical_genus4(self, engine):
        for params in combinations_with_replacement((-3, -1, 1, 3), 5):
            raw = engine.homfly_rational(PretzelSpec(params, 1)).to_poly()
            assert canonicalize_framing(raw) is raw, params


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
        assert homfly(PretzelSpec((1, 1, 1), 1)) == LaurentPoly(
            {(4, 0): -1, (2, 2): 1, (2, -2): 1})

    def test_memo_returns_same_poly(self, engine):
        r1 = engine.homfly(PretzelSpec((1, 1, 3), 1))
        r2 = engine.homfly(PretzelSpec((3, 1, 1), 1))  # sorted to same key
        assert r1 == r2


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
        assert rf.to_poly() == H(engine, (1, 1, 1), 1)


class TestFamily:
    """Members from the evolution recurrence equal direct assembly."""

    @staticmethod
    def direct(engine, params, r):
        return engine.homfly_rational(PretzelSpec(params, r)).to_poly()

    # c = -5..3: the seeds sit at -1..1 (r = 1) or -3..1 (r = 2), so the
    # window needs both backward and forward steps
    @pytest.mark.parametrize("r", [1, 2])
    @pytest.mark.parametrize("a,b", [(a, b) for a in (-3, -1, 1, 3)
                                     for b in (-3, -1, 1, 3) if a <= b])
    def test_matches_direct(self, engine, a, b, r):
        cs = range(-5, 4, 2)
        polys = engine.family((a, b), cs, r)
        for c, poly in zip(cs, polys):
            direct = self.direct(engine, (a, b, c), r)
            assert poly == direct, (a, b, c, r)
            # the memoised member is the directly assembled value
            assert engine.homfly(PretzelSpec((a, b, c), r)) == direct

    def test_r3_order3_window(self, engine):
        from pretzelhomfly.differences import q_diff_window
        cs = range(-7, 6, 2)
        diffs = q_diff_window(3, (1, 1), cs[:4], 3, engine)
        members = [self.direct(engine, (1, 1, c), 3) for c in cs]
        for j, d in enumerate(diffs):
            m = members[j:j + 4]
            assert d == m[3] - m[2].scale(3) + m[1].scale(3) - m[0]

    def test_recurrence_members_are_checked(self, monkeypatch):
        # roots times q^2: the derived members leave the canonical framing
        from pretzelhomfly import pretzel
        roots = pretzel.build_Tbar
        monkeypatch.setattr(pretzel, "build_Tbar", lambda r, n: [
            Monomial(m.sign, m.expA, m.expQ + 2) for m in roots(r, n)])
        with pytest.raises(NoCanonicalUnit):
            HomflyEngine().family((1, 3), range(-5, 6, 2), 1)

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
            engine.family((1, 1), [1, 3], REP_CAP + 1)

    def test_shifted_stored_seed_is_corrupt(self, tmp_path):
        from pretzelhomfly.cache import HomflyCache, cache_key
        cache = HomflyCache(tmp_path)
        # a checksummed entry for the seed (1,3,-1) off the canonical framing
        shifted = H(HomflyEngine(), (1, 3, -1), 1).shift(Monomial(-1, 2, -3))
        cache.put(cache_key((1, 3, -1), 1), shifted)
        with pytest.raises(CorruptStore):
            HomflyEngine(cache=cache).family((1, 3), range(-3, 4, 2), 1)

    def test_warm_family_pass_writes_nothing(self, tmp_path, monkeypatch):
        from pretzelhomfly.cache import HomflyCache
        cs = range(-5, 6, 2)
        cold = HomflyEngine(cache=HomflyCache(tmp_path)).family((1, 3), cs, 1)
        assert len(list(tmp_path.glob("*.json"))) == len(cs)
        puts = []
        monkeypatch.setattr(HomflyCache, "put",
                            lambda self, key, poly: puts.append(key))
        warm = HomflyEngine(cache=HomflyCache(tmp_path)).family((1, 3), cs, 1)
        assert warm == cold
        assert puts == []

    def test_doctored_stored_member_is_corrupt(self, tmp_path):
        from pretzelhomfly.cache import HomflyCache, cache_key
        cache = HomflyCache(tmp_path)
        cs = range(-5, 6, 2)
        members = HomflyEngine(cache=cache).family((1, 3), cs, 1)
        # (1,3,-5) is a recurrence member (the seeds are c = -1, 1); store
        # the canonical value of (1,3,5) under its key
        cache.put(cache_key((1, 3, -5), 1), members[-1])
        with pytest.raises(CorruptStore):
            HomflyEngine(cache=cache).family((1, 3), cs, 1)
