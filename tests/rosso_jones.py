"""Rosso-Jones oracle for the [r]-coloured HOMFLY of the torus knot T(2,n).

The two strands of T(2,n) fuse in [r] x [r] = sum_k [2r-k, k].  In the
topological framing a half-twist acts on the summand Q = [2r-k, k] by the
eigenvalue (-1)^k q^(kappa_Q) A^(-r) q^(-4 kappa_[r]) (kappa_Q is the content
sum of Q); the factor A^(-r) q^(-4 kappa_[r]), common to every Q, removes the
framing each crossing adds.  So

    H_[r](T(2,n)) = A^(-nr) q^(-4n kappa_[r])
                    sum_{k=0..r} (-1)^(kn) q^(n kappa_Q) chi_Q / chi_[r]

with no unit left to fit.  The Schur values come from the hook-content
product; no Racah matrix enters, so this module checks the Racah route from
outside it.
"""

from pretzelhomfly.laurent import LaurentPoly, Monomial
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
    return raw.shift(Monomial(1, -n * r, -4 * n * kappa(YoungDiagram([r]))))
