"""Racah matrices S, S-bar and the diagonal twist T-bar for symmetric [r].

Every entry is a rational function times a square root fixed by its two
indices, so the matrices are built and stored as their rational parts s and
s-bar:

    S_km     = s_km     sqrt(Delta_k chi_m),
    S-bar_km = s-bar_km sqrt(Delta_k Delta_m),

with chi_m = chi_two_row(r, m) = chi_[r+m, r-m] and Delta_0 = 1.  (Each term
of the j-sums below carries the same roots, because the weights around it
depend on k and m alone.)  Row 0 of S-bar T-bar^n S therefore has entry x
equal to rho_x sqrt(chi_x) with rho_x rational, and the genus-g pretzel sum
pairs those roots with the sqrt(chi_x) of S_0x = s_0x sqrt(chi_x) into the
rational weight chi_x / s_0x^(g-1).  No square root is ever taken.
"""

from __future__ import annotations

from typing import List, Optional

from .errors import OutOfRange
from .laurent import LaurentPoly, Monomial
from .qcore import RationalFn, bigD, bigG, chi_two_row, delta, qfact_ratio

Matrix = List[List[RationalFn]]


def _check_size(r: int):
    if r < 1:
        raise OutOfRange("representation size must be >= 1")


def _j_range(r: int, k: int, m: int) -> range:
    return range(max(r + m, r + k), min(r + k + m, 2 * r) + 1)


def sigma(k: int, m: int, j: int, r: int) -> RationalFn:
    """The sign/factorial weight sigma_km(j) without its sqrt([2k+1][2m+1])."""
    if not (0 <= k <= r and 0 <= m <= r):
        raise OutOfRange(f"sigma indices k={k}, m={m} outside 0..{r}")
    if j not in _j_range(r, k, m):
        raise OutOfRange(f"sigma summation index j={j} out of range")
    sign = -1 if (r + k + m + j) % 2 else 1
    num = [k, k, m, m, r - k, r - m, j + 1]
    den = [r + k + 1, r + m + 1, 2 * r - j]
    for t in (j - r - k, j - r - m, r + k + m - j):
        den.extend([t, t])
    return qfact_ratio(num, den).mul_poly(LaurentPoly.const(sign))


def build_S(r: int) -> Matrix:
    """Rational part s of the (r+1)x(r+1) Racah matrix S of Eq.-type
    S_km = sum_j sigma_km(j) sqrt([2m+1] Delta_k / ([2k+1] chi_m))
           G(r-m) G(j+1) / (G(r+k+1) G(j-r-m)),
    so s_km is [2m+1] / chi_m times the j-sum with sigma's roots dropped."""
    _check_size(r)
    weight = [qfact_ratio([2 * m + 1], [2 * m]) / chi_two_row(r, m)
              for m in range(r + 1)]
    matrix = []
    for k in range(r + 1):
        row = []
        for m in range(r + 1):
            total = RationalFn.zero()
            for j in _j_range(r, k, m):
                gfac = (bigG(r - m) * bigG(j + 1)
                        / (bigG(r + k + 1) * bigG(j - r - m)))
                total = total + sigma(k, m, j, r) * gfac
            row.append(weight[m] * total)
        matrix.append(row)
    return matrix


def build_Sbar(r: int) -> Matrix:
    """Rational part s-bar of the (r+1)x(r+1) Racah matrix S-bar with
    prefactor [r+1]! / prod D_i; sigma's sqrt([2k+1][2m+1]) cancels the
    1/sqrt([2k+1][2m+1]) of each term, leaving sqrt(Delta_k Delta_m)."""
    _check_size(r)
    prefactor = qfact_ratio([r + 1])
    for i in range(r):
        prefactor = prefactor / bigD(i)
    matrix = []
    for k in range(r + 1):
        row = []
        for m in range(r + 1):
            total = RationalFn.zero()
            for j in _j_range(r, k, m):
                gfac = (bigG(r + 1) * bigG(j + 1)
                        / (bigG(r + k + 1) * bigG(r + m + 1)
                           * bigG(r + k + m - j)))
                total = total + sigma(k, m, j, r) * gfac
            row.append(total * prefactor)
        matrix.append(row)
    return matrix


def build_Tbar(r: int, n: int = 1) -> List[Monomial]:
    """Diagonal of T-bar^n: entry m is (-q^(m-1) A)^(m n)."""
    _check_size(r)
    out = []
    for m in range(r + 1):
        e = m * n
        out.append(Monomial(-1 if e % 2 else 1, e, (m - 1) * e))
    return out


def twist_row(r: int, n: int, S: Optional[Matrix] = None,
              Sbar: Optional[Matrix] = None) -> List[RationalFn]:
    """Rational parts rho_x of row 0 of S-bar . T-bar^n . S, whose entry x is
    rho_x sqrt(chi_x): rho_x = sum_k s-bar_0k Delta_k T-bar^n_k s_kx."""
    S = S if S is not None else build_S(r)
    Sbar = Sbar if Sbar is not None else build_Sbar(r)
    tbar = build_Tbar(r, n)
    left = [(Sbar[0][k] * delta(k)).mul_poly(tbar[k].as_poly())
            for k in range(r + 1)]
    row = []
    for x in range(r + 1):
        total = RationalFn.zero()
        for k in range(r + 1):
            total = total + left[k] * S[k][x]
        row.append(total)
    return row
