"""Squarefree-module numerics: the three Betti diagrams of a triplet, read
off its one solve.  A triplet is one pure free squarefree complex, and its
homology strands give the other two diagrams: Betti(rotate T) is the strand
sum of the chi family of T, and Betti(rotate^2 T) that of its psi family
with twists reflected d -> n - d.

A sheaf class is the integer Newton series a of its Hilbert polynomial (see
linalg).  The squarefree reduction of O_{P^i} has h^sq vector C(n, i) e_i,
so a strand adds a_k C(n, k) at one twist, with no polynomial built.  The
strands of a family tile one Newton series, so no two cells share a twist.
"""

from math import comb

from .errors import ConsistencyError
from .solver import BettiDiagram, betti, chi_family, solve_alpha


def _strand_sum(family, n, twist):
    """Betti diagram of the strands of a chi or psi family: a class with
    Newton series a adds the cell a_k C(n, k) at twist(k); entries by ascending twist."""
    cells = []
    for a in family:
        if a and min(a) < 0:
            raise ConsistencyError("negative class coefficients %r" % (a,))
        cells += [(twist(k), x * comb(n, k)) for k, x in enumerate(a) if x]
    return BettiDiagram(tuple((q, d, r) for q, (d, r) in enumerate(sorted(cells))))


def rotated_betti_via_strands(t, alpha, fam):
    """Betti diagram of rotate(t): the strands of `fam = chi_family(t, alpha)` at
    twist n - k.  alpha is not read; it stays a parameter for its callers."""
    return _strand_sum(fam.chi_series, t.n, t.n.__sub__)


def triplet_betti(t):
    """Betti diagrams of t, rotate(t), rotate^2(t) from one solve: betti(t), the chi
    strands, and the psi strands at twist k.  Their twists are B, reflect(H) and C."""
    alpha = solve_alpha(t)
    fam = chi_family(t, alpha)
    return betti(t, alpha), rotated_betti_via_strands(t, alpha, fam), _strand_sum(fam.psi_series, t.n, lambda k: k)
