"""Differential expansion: Alexander slices, defect, F-factor extraction and
the two knot-family divisibility conjectures."""

import pytest

from pretzelhomfly.diffexp import (AlexanderPoly, alexander,
                                   check_conjecture_935, check_conjecture_946,
                                   conjecture3_witness, defect, extract_F,
                                   f_prime, f_star, power_q2, reconstruct_H)
from pretzelhomfly.errors import (InexactDivision, NonzeroDefect,
                                  NotPalindromic, OddPower)
from pretzelhomfly.laurent import LaurentPoly, Monomial
from pretzelhomfly.pretzel import HomflyEngine, PretzelSpec
from pretzelhomfly.report import FAILS, HOLDS


@pytest.fixture(scope="module")
def engine():
    return HomflyEngine()


@pytest.fixture(scope="module")
def family_935(engine):
    hs = [engine.homfly(PretzelSpec((3, 3, 3), r)) for r in (1, 2, 3)]
    return extract_F(hs, "9_35")


@pytest.fixture(scope="module")
def family_946(engine):
    hs = [engine.homfly(PretzelSpec((3, 3, -3), r)) for r in (1, 2, 3)]
    return extract_F(hs, "9_46")


@pytest.fixture(scope="module")
def families_r5(engine):
    """H_[1..5] of 9_35 and 9_46."""
    return {params: [engine.homfly(PretzelSpec(params, r))
                     for r in range(1, 6)]
            for params in ((3, 3, 3), (3, 3, -3))}


NINE_ONE_ALEXANDER = ("q^8 - q^6 + q^4 - q^2 + 1 - q^-2 + q^-4 - q^-6 + q^-8")


class TestAlexanderAndDefect:
    def test_alexander_slice(self, engine):
        h1 = engine.homfly(PretzelSpec((3, 3, 3), 1))
        assert alexander(h1).poly == LaurentPoly(
            {(0, 2): 7, (0, 0): -13, (0, -2): 7})

    def test_defect_zero_examples(self, engine):
        for params in ((3, 3, 3), (3, 3, -3)):
            h1 = engine.homfly(PretzelSpec(params, 1))
            assert defect(alexander(h1)) == 0

    def test_defect_three_from_text(self):
        al = AlexanderPoly(LaurentPoly.from_text(NINE_ONE_ALEXANDER))
        assert power_q2(al) == 8
        assert defect(al) == 3

    def test_unknot_like_defect(self):
        al = AlexanderPoly(LaurentPoly.one())
        assert power_q2(al) == 0
        assert defect(al) == -1

    def test_odd_power_rejected(self):
        al = AlexanderPoly(LaurentPoly({(0, 2): 1, (0, 0): -1, (0, -2): 1}))
        assert power_q2(al) == 2
        with pytest.raises(OddPower):
            # q^2-span 3 is odd; the defect formula does not apply
            defect(AlexanderPoly(LaurentPoly({(0, 2): 1, (0, -4): 1})))

    def test_not_palindromic(self):
        with pytest.raises(NotPalindromic):
            alexander(LaurentPoly({(0, 2): 2, (0, 0): -1}))


class TestFExtraction:
    def test_935_printed_factors(self, family_935):
        f1 = LaurentPoly({(6, 0): 1, (4, 0): 3, (2, 0): 2, (0, 0): 1}).shift(
            Monomial(-1, 2, 0))
        assert family_935.factor(1) == f1

    def test_946_printed_factors(self, family_946):
        assert family_946.factor(1) == LaurentPoly({(4, 0): 1, (2, 0): 1})
        f2 = LaurentPoly({(4, 8): 1, (2, 6): 1, (2, 4): 1, (0, 0): 1}).shift(
            Monomial(1, 4, 0))
        assert family_946.factor(2) == f2
        f3 = (LaurentPoly({(2, 4): 1, (0, 0): 1})
              * LaurentPoly({(4, 16): 1, (2, 10): 1, (2, 8): 1,
                             (0, 6): -1, (0, 2): 1, (0, 0): 1})
              ).shift(Monomial(1, 6, 4))
        assert family_946.factor(3) == f3

    def test_trefoil_closed_form(self, engine):
        hs = [engine.homfly(PretzelSpec((1, 1, 1), r)) for r in (1, 2, 3)]
        fe = extract_F(hs, "trefoil")
        for s in (1, 2, 3):
            assert fe.factor(s) == LaurentPoly(
                {(2 * s, s * (s - 1)): (-1) ** s})

    def test_figure_eight_closed_form(self, engine):
        # (1,1,-3) is the figure-eight knot 4_1, whose F-factors are all 1
        hs = [engine.homfly(PretzelSpec((1, 1, -3), r)) for r in range(1, 5)]
        fe = extract_F(hs, "4_1")
        for s in range(1, 5):
            assert fe.factor(s) == LaurentPoly.one()

    def test_round_trip(self, family_946, engine):
        for r in (1, 2, 3):
            assert (reconstruct_H(family_946, r)
                    == engine.homfly(PretzelSpec((3, 3, -3), r)))

    def test_nonzero_defect_rejected(self, engine):
        # 9_1 is not reachable here, but a synthetic defect-1 slice is
        h = LaurentPoly({(0, 4): 1, (0, 0): -1, (0, -4): 1})
        with pytest.raises(NonzeroDefect):
            extract_F([h])

    def test_inexact_division_aborts_with_level(self, engine):
        h1 = engine.homfly(PretzelSpec((1, 1, 1), 1))
        h2 = engine.homfly(PretzelSpec((1, 1, 1), 2))
        corrupt = h2 + LaurentPoly({(2, 2): 1})
        with pytest.raises(InexactDivision) as err:
            extract_F([h1, corrupt])
        assert err.value.level == 2


class TestStarPrime:
    def test_f_prime(self):
        f = LaurentPoly({(2, 0): 3})
        assert f_prime(f, 2) == LaurentPoly({(4, 4): 3})

    def test_f_star(self):
        f = LaurentPoly({(1, 0): 1})  # A -> Aq^2, then * A^2/q^4
        assert f_star(f) == LaurentPoly({(3, -2): 1})

    def test_conjecture3_witness_printed_value(self, family_946):
        w = conjecture3_witness(family_946, 3)
        assert w == LaurentPoly({(6, 6): 1, (6, 10): -1})


class TestConjectures:
    def test_935_divisibility(self, family_935):
        for i in (2, 3):
            assert check_conjecture_935(family_935, i).status == HOLDS

    def test_946_divisibility_and_step(self, family_946):
        v = check_conjecture_946(family_946, 3)
        assert v.divisibility.status == HOLDS
        assert v.quotient_step.status == HOLDS
        assert v.ok

    def test_946_odd_index_only(self, family_946):
        with pytest.raises(ValueError):
            check_conjecture_946(family_946, 2)

    def test_insufficient_beyond_max_r(self, family_946):
        v = check_conjecture_946(family_946, 5)
        assert v.divisibility.status == "insufficient-data"


class TestRepFive:
    @pytest.mark.parametrize("params", [(3, 3, 3), (3, 3, -3)])
    def test_expansion_round_trips(self, families_r5, params):
        hs = families_r5[params]
        # extract_F raises unless every triangular division is exact
        fe = extract_F(hs, str(params))
        assert fe.maxR == 5
        assert reconstruct_H(fe, 5) == hs[4]

    def test_935_holds_through_i5(self, families_r5):
        fe = extract_F(families_r5[(3, 3, 3)], "9_35")
        for i in range(2, 6):
            assert check_conjecture_935(fe, i).status == HOLDS

    def test_946_at_i5(self, families_r5):
        fe = extract_F(families_r5[(3, 3, -3)], "9_46")
        v = check_conjecture_946(fe, 5)
        assert v.divisibility.status == HOLDS   # conjecture 2
        assert v.quotient_step.status == FAILS  # conjecture 3
