"""The engine against the Rosso-Jones formula for T(2,n) = P(1, ..., 1).

P(1^n) has genus n - 1, so n = 3, 5, 7 check the assembly's weight
chi_x / s_0x^(g-1) at g = 2, 4 and 6.  The engine's parameter sign is the
mirror of the torus-knot twist: P(1^n) matches T(2,-n).
"""

import pytest

from pretzelhomfly.pretzel import HomflyEngine, PretzelSpec

from rosso_jones import torus_2n


@pytest.fixture(scope="module")
def engine():
    return HomflyEngine()


@pytest.mark.parametrize("r", (1, 2, 3, 4, 5))
@pytest.mark.parametrize("n", (3, 5, 7))
def test_torus_knot_matches_pretzel(engine, n, r):
    expect = torus_2n(-n, r)
    assert engine.homfly(PretzelSpec((1,) * n, r)) == expect


def test_mirror_differs(engine):
    # the oracle is not symmetric in n, so the sign convention is tested
    assert torus_2n(3, 2) != engine.homfly(PretzelSpec((1, 1, 1), 2))
