"""Independent reference implementations that tests compare the library
against.  They are slow on purpose: plain RatPoly arithmetic, no shortcuts.
"""

from triplets import DegreeSet, RatPoly, basis_poly, dual_alpha, hsq_series, strands


def balanced_by_strand_starts(X, Y):
    """Balance of DegreeSets X, Y over [lo, hi] by the strand-start criterion:
    degrees lo = d_0 < d_1 < ... of X against the strand starts
    lo = y_0 < y_1 < ... < y_s of Y, balanced iff y_i > d_i for i = 1..s."""
    if X.members[0] != X.lo or Y.members[0] != Y.lo:
        return False
    y = strands(Y).starts
    d = X.members
    s = len(y) - 2
    if len(d) < s + 1:
        return False
    return all(y[i] > d[i] for i in range(1, s + 1))


def betti_kpolynomial(diagram):
    """sum_i (-1)^i beta_i t^(d_i)."""
    out = RatPoly()
    for i, d, r in diagram.entries:
        out = out + RatPoly([0] * d + [(-1) ** i * r])
    return out


def hsq_kpolynomial(hvectors, n):
    """sum_q (-1)^q sum_s h_q(s) t^s (1-t)^(n-s)."""
    out = RatPoly()
    for q, h in enumerate(hvectors):
        out = out + hsq_series(h) * ((-1) ** q)
    return out


def interpolated_family(t, alpha):
    """chi_{p-1} = (-1)^(p-1) (RHS_p - RHS_{p-1}) where RHS_p interpolates
    the Hilbert polynomial through the points 0..-(h_p - 2), as RatPolys.

    Returns (chis, flags) with flags the q whose chi_q drops degree on a
    nonempty strand.
    """
    starts = strands(DegreeSet(t.h, t.n - t.b, t.H)).starts
    chis = []
    flags = []
    rhs_prev = RatPoly()
    for p in range(1, len(starts)):
        m = starts[p] - 2
        rhs = sum((basis_poly(m, i) * alpha.values[i] for i in t.B if i <= m), RatPoly())
        chi = rhs - rhs_prev if p % 2 else rhs_prev - rhs
        q = p - 1
        if starts[p] == starts[q] + 1:
            assert not chi, "chi_%d nonzero on an empty strand of %r" % (q, t)
        else:
            assert chi.degree <= m, "deg chi_%d > %d for %r" % (q, m, t)
            if chi.degree < m:
                flags.append(q)
        chis.append(chi)
        rhs_prev = rhs
    return tuple(chis), flags


def interpolated_chi_family(t, alpha):
    """(chis, psis, flags) as ChiFamily reports them, by interpolation."""
    chis, chi_flags = interpolated_family(t, alpha)
    psis, psi_flags = interpolated_family(t.dual(), dual_alpha(alpha))
    flags = tuple([("chi", q) for q in chi_flags] + [("psi", q) for q in psi_flags])
    return chis, psis, flags
