"""Solve for the coefficient vector alpha of a homology triplet and derive
everything it determines: the homology polynomial family chi_q (and dual
family psi_q), and the Betti diagram of the reduction.

The unknowns are alpha_i, i in B.  Rows: for each r in [h, n] \\ H,
sum_{i<=r} alpha_i C(r, i) = 0; for each r in [c, n-b] \\ C,
sum_{i<=r} alpha_{n-i} C(r, i) = 0.  (The C-rows with r > n-b span the same
space as the H-rows there and are dropped.)  After deduplication there are
exactly s_H + s_C + b = |B| - 1 rows.

Downstream, the Hilbert polynomial is its integer Newton series A (see
linalg), A_r = sum_i alpha_i C(r, i): the H-rows say A_r = 0 off H, chi_q
is (-1)^q times the slice of A on the q-th strand of H, and psi_q is the
same on the series of the dual alpha*_i = (-1)^(|B|-1) alpha_{n-i}.  The
series is cut into strands at the nondegrees (degsets.nondegrees) of H over
[h, n-b] and of C over [c, n-b], the points the rows sit at.  No polynomial
is built: every value and identity is read off the integer series.
"""

from collections import namedtuple
from itertools import repeat
from math import comb
from operator import mul, neg

from .degsets import nondegrees
from .errors import ConsistencyError, Overdetermined, Underdetermined
from .linalg import newton_series_pair, nullspace

MAX_N = 100  # largest n solved: the slowest shape found takes about 0.8 s at n = 100 and grows about as n^7


class AlphaVector(namedtuple("AlphaVector", "n support values")):
    """alpha as (n, support, values), values of length n + 1, integers, zero
    off the support."""

    __slots__ = ()

    def on_support(self):
        _, support, values = self
        return tuple(values[i] for i in support)

    def to_json(self):
        """The bytes json.dumps gives for {"n", "support", "alpha"}: an int list prints as JSON."""
        n, support, values = self
        return '{"n": %d, "support": %s, "alpha": %s}' % (n, list(support), [values[i] for i in support])


def build_equations(t):
    n, B, H, C = t
    refl = [n - i for i in B]
    rows = [tuple(map(comb, repeat(r), B)) for r in nondegrees(H[0], n, H)]
    rows += (tuple(map(comb, repeat(r), refl)) for r in nondegrees(C[0], H[-1], C))  # n - b = max H
    return tuple(rows)


def solve_alpha(t):
    """Primitive integer alpha with alpha_{d_0} > 0; unique up to scale."""
    n, B, H, _ = t
    if n > MAX_N:
        raise ValueError("need n <= %d to solve, got %s" % (MAX_N, n))
    basis = nullspace(build_equations(t), len(B))
    if not basis:
        raise Overdetermined(t)
    if len(basis) > 1:
        raise Underdetermined(t, len(basis))
    prim = basis[0]  # primitive already; a zero alpha_{d_0} fails the sign check below
    if prim[0] < 0:
        prim = [-x for x in prim]
    values = [0] * (n + 1)
    for q, (d, v) in enumerate(zip(B, prim)):
        if (-v if q % 2 else v) <= 0:
            raise ConsistencyError("sign convention violated at q=%d for %r" % (q, t))
        values[d] = v
    # Degree exactly n - b = max H.  Each r in (max H, n] is off H, so its
    # row A_r = 0 is among the equations alpha solves; A_{max H} is checked.
    top = H[-1]
    if not sum(map(mul, prim, map(comb, repeat(top), B))):
        raise ConsistencyError("Hilbert polynomial degree != n - b for %r" % (t,))
    return AlphaVector(n, B, tuple(values))


class ChiFamily(namedtuple("ChiFamily", "chi_series psi_series flags")):
    """chi_q and psi_q as Newton series with trailing zeros trimmed:
    chi_q(d) = sum_i chi_series[q][i] C(d+i-1, i); len = degree + 1.
    chi_series holds chi_0..chi_{s_H}, psi_series psi_0..psi_{s_C}, and flags
    the strict degree drops, ("chi"|"psi", q)."""

    __slots__ = ()


def _truncated_family(lo, hi, X, series, sign, what, t):
    """chi_q = (-1)^(q + sign) sum_{g_q <= i < g_{q+1}} A_i C(d+i-1, i), where
    g_1 < ... < g_s are the nondegrees of the degree set X in [lo, hi],
    g_0 = 0 and g_{s+1} = hi + 1.

    The partial sum below g_p interpolates the Hilbert polynomial through the
    points 0..-(g_p - 1), so chi_q is the difference of two interpolants, and
    the alternating sum of the family telescopes to the Hilbert polynomial.
    """
    cuts = [0, *nondegrees(lo, hi, X), hi + 1]
    family = []
    flags = []
    for q, (first, stop) in enumerate(zip(cuts, cuts[1:])):
        end = stop
        while end > first and not series[end - 1]:
            end -= 1
        chi = series[first:end]
        if chi:
            chi = (0,) * first + (tuple(map(neg, chi)) if (q + sign) % 2 else chi)
        if q and stop == first + 1:  # strand 0 holds lo, even when lo = 0 and the next cut is 1
            if chi:
                raise ConsistencyError("%s_%d nonzero on an empty strand of %r" % (what, q, t))
        elif end < stop:
            flags.append((what, q))
        family.append(chi)
    return family, flags


def _alpha_values(t, alpha):
    """alpha.values, refused unless there are n + 1 of them; its readers take the support from t.B."""
    values = alpha.values
    if len(values) != t.n + 1:
        raise ValueError("alpha has %d values, need n + 1 = %d" % (len(values), t.n + 1))
    return values


def chi_family(t, alpha):
    _, B, H, C = t
    top = H[-1]  # n - b
    values = _alpha_values(t, alpha)
    series, dual = newton_series_pair(values)
    chis, chi_flags = _truncated_family(H[0], top, H, series, 0, "chi", t)
    # The slices tile [0, n-b], so each family sums to its polynomial iff
    # A vanishes above n-b; P*(d) = +-P(-n-d) has the same degree as P.
    if any(series[top + 1:]):
        raise ConsistencyError("chi family does not sum to its Hilbert polynomial for %r" % (t,))
    # The dual alpha*_i = (-1)^sign alpha_{n-i} is positive at n - max B.
    sign = 1 - len(B) % 2
    if (-1) ** sign * values[B[-1]] <= 0:
        raise ConsistencyError("dual alpha violates the sign convention")
    # The dual triplet has H* = C and the same b; psi_q carries the dual's sign.
    psis, psi_flags = _truncated_family(C[0], top, C, dual, sign, "psi", t)
    return ChiFamily(tuple(chis), tuple(psis), tuple(chi_flags + psi_flags))


class BettiDiagram(namedtuple("BettiDiagram", "entries")):
    """The entries (homological index, twist, rank) of a Betti diagram."""

    __slots__ = ()

    def twists(self):
        return tuple(e[1] for e in self.entries)

    def ranks(self):
        return tuple(e[2] for e in self.entries)

    def to_json(self):
        """The bytes json.dumps gives for {"twists", "ranks"}: an int list prints as JSON."""
        return '{"twists": %s, "ranks": %s}' % (list(self.twists()), list(self.ranks()))

    def render(self):
        """Macaulay2-style grid: columns = homological index, rows = twist - index.
        Two entries at one (index, twist) share a cell, so they are refused."""
        if not self.entries:
            return "(empty diagram)"
        cells = {}
        for i, d, r in self.entries:
            if (d - i, i) in cells:
                raise ValueError("two entries at index %d, twist %d" % (i, d))
            cells[d - i, i] = str(r)
        slopes, cols = (range(min(x), max(x) + 1) for x in zip(*cells))
        # The widest label of an int range is at one of its ends.
        width = max(map(len, (*cells.values(), *map(str, (slopes[0], slopes[-1], cols[0], cols[-1])))))
        lines = [" " * (width + 2) + " ".join(str(c).rjust(width) for c in cols)]
        lines += (str(s).rjust(width) + ": " + " ".join(cells.get((s, c), ".").rjust(width) for c in cols) for s in slopes)
        return "\n".join(lines)


def betti(t, alpha=None):
    """Betti diagram of the pure squarefree reduction: beta_q = C(n, d_q) (-1)^q alpha_{d_q}."""
    if alpha is None:
        alpha = solve_alpha(t)
    n, B, _, _ = t
    values = _alpha_values(t, alpha)
    entries = []
    for q, d in enumerate(B):
        rank = comb(n, d) * (-values[d] if q % 2 else values[d])
        if rank <= 0:
            raise ConsistencyError("nonpositive Betti number at q=%d for %r" % (q, t))
        entries.append((q, d, rank))
    return BettiDiagram(tuple(entries))
