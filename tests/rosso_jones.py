"""Rosso-Jones oracle for the [r]-coloured HOMFLY of the torus knot T(2,n).

The two strands of T(2,n) fuse in [r] x [r] = sum_k [2r-k, k], and the n
half-twists act on the summand Q = [2r-k, k] by the eigenvalue
(-1)^(kn) q^(n kappa_Q), up to a power of A common to every Q (kappa_Q is the
content sum of Q).  So

    H_[r](T(2,n)) ~ sum_{k=0..r} (-1)^(kn) q^(n kappa_Q) chi_Q / chi_[r]

up to a monomial unit, which canonicalize_framing fixes.  The Schur values
come from the hook-content product; no Racah matrix enters, so this module
checks the Racah route from outside it.
"""

from pretzelhomfly.laurent import LaurentPoly, Monomial
from pretzelhomfly.pretzel import canonicalize_framing
from pretzelhomfly.qcore import RationalFn
from pretzelhomfly.symfunc import YoungDiagram, schur_hook


def kappa(diagram: YoungDiagram) -> int:
    """Content sum of a Young diagram: sum over boxes (i, j) of j - i."""
    return sum(diagram.content(i, j) for i, j in diagram.boxes())


def torus_2n(n: int, r: int) -> LaurentPoly:
    """Canonical [r]-coloured HOMFLY of T(2,n), n odd, by Rosso-Jones."""
    total = RationalFn.zero()
    for k in range(r + 1):
        Q = YoungDiagram([2 * r - k, k])
        eigen = Monomial(-1 if k * n % 2 else 1, 0, n * kappa(Q))
        total = total + schur_hook(Q).mul_poly(eigen.as_poly())
    raw = (total / schur_hook(YoungDiagram([r]))).to_poly()
    return canonicalize_framing(raw)[1]
