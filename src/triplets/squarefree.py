"""Squarefree-module numerics: the triplet of Betti diagrams and its
strand-assembly cross-check.

A squarefree module with vector h = (h(0), ..., h(n)) has Hilbert series
sum_k h(k) t^k / (1-t)^k.  A sheaf class is held as the integer Newton
series of its Hilbert polynomial (see linalg), which is exactly its
decomposition in the twisted-structure-sheaf basis.  The reduction of
O_{P^i} has K-polynomial C(n, i) t^i (1-t)^(n-i), so its h^sq vector is
C(n, i) e_i and strand assembly is a_i C(n, i) in place, with no polynomial
built.
"""

from math import comb

from .errors import ConsistencyError, DegenerateSystem
from .solver import BettiDiagram, betti, chi_family, solve_alpha


def rotated_betti_via_strands(t, alpha=None, fam=None):
    """Betti diagram of the rotated triplet assembled strand by strand:
    homology index q contributes rank h^sq_q(k) at twist n - k.  Takes
    `alpha = solve_alpha(t)` and `fam = chi_family(t, alpha)`, made when not given."""
    if alpha is None:
        alpha = solve_alpha(t)
    if fam is None:
        fam = chi_family(t, alpha)
    acc = {}
    for chi in fam.chi_series:
        if any(a < 0 for a in chi):
            raise ConsistencyError("negative class coefficients %r" % (chi,))
        for k, a in enumerate(chi):
            if a:
                acc[t.n - k] = acc.get(t.n - k, 0) + a * comb(t.n, k)
    entries = tuple((q, d, acc[d]) for q, d in enumerate(sorted(acc)))
    return BettiDiagram(entries)


def triplet_betti(t):
    """Betti diagrams of t, rotate(t), rotate^2(t) (independently solved);
    their twists are B, reflect(H) and C, the B of each rotation."""
    diagrams = []
    cur = t
    for k in range(3):
        try:
            diagrams.append(betti(cur, solve_alpha(cur)))
        except DegenerateSystem as exc:
            exc.rotation = k
            raise
        cur = cur.rotate()
    return tuple(diagrams)
