"""Schur functions at the special point: hook product vs Jacobi-Trudi."""

import pytest

from pretzelhomfly.errors import DiagramTooLarge, OutOfRange
from pretzelhomfly.laurent import LaurentPoly
from pretzelhomfly.qcore import RationalFn
from pretzelhomfly.symfunc import (H_CAP, MAX_ROWS, YoungDiagram,
                                   h_at_special, schur_hook,
                                   schur_jacobi_trudi)

from ratref import equals_ratio, qbracket_Aq, qbracket_q


def _prod(polys):
    out = LaurentPoly.one()
    for p in polys:
        out = out * p
    return out


class TestHSpecial:
    def test_h0_h1(self):
        assert h_at_special(0) == RationalFn.one()
        assert equals_ratio(h_at_special(1), qbracket_Aq(0), qbracket_q(1))

    def test_h2_equals_single_row_schur(self):
        assert h_at_special(2) == schur_hook(YoungDiagram([2]))

    def test_hn_equals_single_row_schur(self):
        for n in range(3, 6):
            assert h_at_special(n) == schur_hook(YoungDiagram([n]))

    def test_out_of_range(self):
        with pytest.raises(OutOfRange):
            h_at_special(H_CAP + 1)
        with pytest.raises(OutOfRange):
            h_at_special(-1)


class TestSchur:
    def test_single_box(self):
        for value in (schur_hook(YoungDiagram([1])),
                      schur_jacobi_trudi(YoungDiagram([1]))):
            assert equals_ratio(value, qbracket_Aq(0), qbracket_q(1))

    def test_single_row_hook_product(self):
        # contents 0..r-1, hooks r..1
        lam = YoungDiagram([3])
        assert equals_ratio(schur_hook(lam),
                            _prod(qbracket_Aq(c) for c in (0, 1, 2)),
                            qbracket_q(3), qbracket_q(2), qbracket_q(1))

    def test_column_diagram(self):
        lam = YoungDiagram([1, 1])
        for value in (schur_hook(lam), schur_jacobi_trudi(lam)):
            assert equals_ratio(value, qbracket_Aq(0) * qbracket_Aq(-1),
                                qbracket_q(2), qbracket_q(1))

    def test_21_agreement(self):
        lam = YoungDiagram([2, 1])
        assert schur_jacobi_trudi(lam) == schur_hook(lam)

    def test_too_many_rows(self):
        with pytest.raises(DiagramTooLarge):
            schur_jacobi_trudi(YoungDiagram([1] * 9))

    def test_entry_index_beyond_cap(self):
        # the top-right entry is h_(rows[0] + len(rows) - 1)
        with pytest.raises(DiagramTooLarge):
            schur_jacobi_trudi(YoungDiagram([H_CAP - 1, 1, 1]))
        with pytest.raises(DiagramTooLarge):
            schur_jacobi_trudi(YoungDiagram([H_CAP + 1]))


def partitions(n, max_part=None):
    if n == 0:
        yield ()
        return
    if max_part is None:
        max_part = n
    for first in range(min(n, max_part), 0, -1):
        for rest in partitions(n - first, first):
            yield (first,) + rest


class TestOracleEquivalence:
    # every partition of at most 10 boxes with at most MAX_ROWS rows; the
    # three longer ones are rejected (test_too_many_rows)
    @pytest.mark.parametrize("boxes", range(1, 11))
    def test_jt_equals_hook(self, boxes):
        for rows in partitions(boxes):
            lam = YoungDiagram(list(rows))
            if len(rows) > MAX_ROWS:
                continue
            assert schur_jacobi_trudi(lam) == schur_hook(lam), rows

    def test_jt_equals_hook_six_rows(self):
        lam = YoungDiagram([8, 6, 4, 2, 1, 1])
        assert schur_jacobi_trudi(lam) == schur_hook(lam)
