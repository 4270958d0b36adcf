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


def _hsq_of_series(a, n):
    """h^sq vector of the reduction of the sheaf class with Newton series a."""
    if any(x < 0 for x in a):
        raise ConsistencyError("negative class coefficients %r" % (a,))
    return tuple(a[i] * comb(n, i) if i < len(a) else 0 for i in range(n + 1))


def rotated_betti_via_strands(t, alpha=None, fam=None):
    """Betti diagram of the rotated triplet assembled strand by strand:
    homology index q contributes rank h^sq_q(k) at twist n - k."""
    if alpha is None:
        alpha = solve_alpha(t)
    if fam is None:
        fam = chi_family(t, alpha)
    acc = {}
    for chi in fam.chi_series:
        if not chi:
            continue
        for k, v in enumerate(_hsq_of_series(chi, t.n)):
            if v:
                acc[t.n - k] = acc.get(t.n - k, 0) + v
    entries = tuple((q, d, acc[d]) for q, d in enumerate(sorted(acc)))
    return BettiDiagram(entries)


def triplet_betti(t):
    """Betti diagrams of t, rotate(t), rotate^2(t) (independently solved)."""
    diagrams = []
    cur = t
    for k in range(3):
        try:
            diagrams.append(betti(cur, solve_alpha(cur)))
        except DegenerateSystem as exc:
            exc.rotation = k
            raise
        cur = cur.rotate()
    degs = t.to_degree_triplet()
    for diag, expected in zip(diagrams, degs):
        if diag.twists() != tuple(expected):
            raise ConsistencyError("Betti twists %r differ from degrees %r for %r" % (diag.twists(), expected, t))
    return tuple(diagrams)
