"""Squarefree-module numerics: h^sq vectors, K-polynomials, decomposition of
Hilbert polynomials in the twisted-structure-sheaf basis, and the triplet of
Betti diagrams with its strand-assembly cross-check.

For a squarefree module with vector h = (h(0), ..., h(n)) the Hilbert series
is sum_k h(k) t^k / (1-t)^k, so the K-polynomial (series times (1-t)^n) is
sum_k h(k) t^k (1-t)^(n-k); the transform h -> K is triangular and is
inverted exactly.  A sheaf class is held as the integer Newton series of its
Hilbert polynomial (see linalg), which is exactly its decomposition in the
twisted-structure-sheaf basis.  The reduction of O_{P^i} has K-polynomial
C(n, i) t^i (1-t)^(n-i), so its h^sq vector is C(n, i) e_i and strand
assembly is a_i C(n, i) in place, with no polynomial built.
"""

from dataclasses import dataclass
from math import comb

from .errors import ConsistencyError, DegenerateSystem
from .linalg import RatPoly, in_basis, newton_series
from .solver import BettiDiagram, betti, chi_family, solve_alpha


def _one_minus_t_power(k):
    return RatPoly([(-1) ** i * comb(k, i) for i in range(k + 1)])


def hsq_series(h):
    """K-polynomial of the h^sq vector: the series numerator over (1-t)^n."""
    n = len(h) - 1
    out = RatPoly()
    for k, v in enumerate(h):
        if v:
            out = out + RatPoly([0] * k + [v]) * _one_minus_t_power(n - k)
    return out


def hsq_from_series(num, n):
    """Invert hsq_series: solve sum_s h(s) t^s (1-t)^(n-s) = num."""
    if num.degree > n:
        raise ValueError("numerator degree %d exceeds n = %d" % (num.degree, n))
    h = [0] * (n + 1)
    for s in range(n + 1):
        acc = sum(h[k] * ((-1) ** (s - k)) * comb(n - k, s - k) for k in range(s))
        h[s] = num.coeff(s) - acc
    return tuple(h)


def sheaf_class_decompose(chi, delta):
    """Coefficients a_0..a_delta with chi(d) = sum_i a_i C(d+i-1, i).

    This is the Newton series of chi, padded to length delta + 1.  Negative
    a_i are returned as-is (flagged by callers), never raised here.
    """
    if chi.degree > delta:
        raise ValueError("degree %d exceeds delta = %d" % (chi.degree, delta))
    return newton_series(in_basis(chi, delta))


def hsq_of_reduction(chi, delta, n):
    """h^sq vector of the squarefree reduction of a sheaf with Hilbert
    polynomial chi on P^delta, embedded for ambient n."""
    a = sheaf_class_decompose(chi, delta)
    if any(x.denominator != 1 for x in a):
        raise ConsistencyError("non-integer class coefficients %r for chi = %s" % (a, chi))
    return _hsq_of_series(tuple(x.numerator for x in a), n)


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


@dataclass(frozen=True)
class HomologicalData:
    B: BettiDiagram
    H: tuple  # one h^sq vector per homology index (zero strands included)
    C: tuple


def homological_data(t, alpha=None):
    if alpha is None:
        alpha = solve_alpha(t)
    fam = chi_family(t, alpha)

    def vectors(family):
        return tuple(_hsq_of_series(a, t.n) for a in family)

    return HomologicalData(B=betti(t, alpha), H=vectors(fam.chi_series), C=vectors(fam.psi_series))
