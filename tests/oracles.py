"""Independent reference implementations that tests compare the library
against.  They are slow on purpose: plain RatPoly arithmetic, no shortcuts.
"""

from fractions import Fraction
from math import comb, lcm

from triplets import RatPoly, basis_poly, dual_alpha, hsq_series, strand_starts


def balanced_by_strand_starts(lo, hi, X, Y):
    """Balance of subsets X, Y of [lo, hi] by the strand-start criterion:
    degrees lo = d_0 < d_1 < ... of X against the strand starts
    lo = y_0 < y_1 < ... < y_s of Y, balanced iff y_i > d_i for i = 1..s."""
    if X[0] != lo or Y[0] != lo:
        return False
    y = strand_starts(lo, hi, Y)
    d = X
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


def reduction_kpoly(n, i):
    """K-polynomial of the squarefree reduction of O_{P^i} in ambient n:
    K_i(t) = sum_k (-1)^k C(n, i+k) C(i+k, k) t^(i+k)."""
    coeffs = [0] * (n + 1)
    for k in range(n - i + 1):
        coeffs[i + k] = (-1) ** k * comb(n, i + k) * comb(i + k, k)
    return RatPoly(coeffs)


def interpolated_family(t, alpha):
    """chi_{p-1} = (-1)^(p-1) (RHS_p - RHS_{p-1}) where RHS_p interpolates
    the Hilbert polynomial through the points 0..-(h_p - 2), as RatPolys.

    Returns (chis, flags) with flags the q whose chi_q drops degree on a
    nonempty strand.
    """
    starts = strand_starts(t.h, t.n - t.b, t.H)
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


def degree_drop_equations(n, b):
    """Rows whose joint vanishing says from_basis(alpha, n) has degree <= n-b.

    Row j (j = 0..b-1) is sum_i alpha_i C(n-j, i) = 0.
    """
    if not 0 <= b <= n:
        raise ValueError("need 0 <= b <= n")
    return tuple(tuple(comb(n - j, i) for i in range(n + 1)) for j in range(b))


def int_rows(rows):
    """Each row times the lcm of its denominators: int rows, same row space."""
    out = []
    for row in rows:
        row = [Fraction(x) for x in row]
        scale = lcm(*(x.denominator for x in row))
        out.append([int(x * scale) for x in row])
    return out


def _naive_nullspace(rows, ncols):
    """Independent oracle: plain fraction Gauss-Jordan, no pivoting tricks."""
    mat = [[Fraction(x) for x in r] for r in rows]
    piv = []
    r = 0
    for c in range(ncols):
        k = next((i for i in range(r, len(mat)) if mat[i][c]), None)
        if k is None:
            continue
        mat[r], mat[k] = mat[k], mat[r]
        mat[r] = [x / mat[r][c] for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c]:
                f = mat[i][c]
                mat[i] = [x - f * y for x, y in zip(mat[i], mat[r])]
        piv.append(c)
        r += 1
    basis = []
    for f in [c for c in range(ncols) if c not in piv]:
        v = [Fraction(0)] * ncols
        v[f] = Fraction(1)
        for i, c in enumerate(piv):
            v[c] = -mat[i][f]
        basis.append(tuple(v))
    return basis, len(piv)
