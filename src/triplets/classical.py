"""Supernatural cohomology tables from root sequences and the numeric data
of classical pure complexes (Eagon-Northcott, Buchsbaum-Rim/Eisenbud, Schur,
tensor) realized as pure zip complexes.

A root sequence r_1 > ... > r_delta with positive scale c defines the
polynomial P(t) = (c / delta!) prod (t - r_k).  The sheaf it governs has at
most one nonzero cohomology row per twist: row i on the open interval
between r_{i+1} and r_i, with dimension |P(t)|.  A table's values are
computed over one run of twists, and a report's over its degrees: each
call reads the scale once and computes c.numerator * |prod (t - r_k)| //
(c.denominator * delta!) in int over the whole list.  The first value that
is not an integer raises ConsistencyError naming the fraction.
The family constructors choose the least scale that makes P integer-valued.
"""

import warnings
from collections import namedtuple
from fractions import Fraction
from math import comb, factorial, gcd, prod

from .errors import ConsistencyError
from .tables import HyperTable, _checked_window

MAX_SIZE = 1000  # largest n and root count built; the work grows about as size^3


def _bounded(what, size):
    if type(size) is not int:  # a bool is refused too
        raise ValueError("need an integer %s, got %r" % (what, size))
    if not 0 <= size <= MAX_SIZE:
        raise ValueError("need %s %s, got %s" % (what, ">= 0" if size < 0 else "<= %d" % MAX_SIZE, size))


class RootSequence(namedtuple("RootSequence", "roots scale")):
    """Strictly decreasing integer roots and a positive scale, an int or a
    Fraction held as a Fraction, checked when the sequence is made, by _replace too."""

    __slots__ = ()

    def __new__(cls, roots, scale=Fraction(1)):
        if type(scale) not in (int, Fraction):  # a bool or a float is refused
            raise ValueError("scale must be an int or a Fraction: %r" % (scale,))
        roots, scale = tuple(roots), Fraction(scale)
        if any(type(r) is not int for r in roots):  # a bool is refused too
            raise ValueError("roots must be integers: %r" % (roots,))
        if any(a <= b for a, b in zip(roots, roots[1:])):
            raise ValueError("roots must be strictly decreasing: %r" % (roots,))
        _bounded("root count", len(roots))
        if scale.numerator <= 0:
            raise ValueError("scale must be positive")
        return tuple.__new__(cls, (roots, scale))

    # namedtuple's _make, which _replace calls, skips __new__: route it through.
    _make = classmethod(lambda cls, fields: cls(*fields))

    @property
    def delta(self):
        return len(self.roots)


def _scaled(rs, products, what):
    """The ints c * |x| / delta! over the list of products x = m * prod (t - r);
    ConsistencyError names the first value in list order that is not one."""
    den = rs.scale.denominator * factorial(rs.delta)
    nums = list(map(rs.scale.numerator.__mul__, map(abs, products)))
    values = list(map(den.__rfloordiv__, nums))
    if sum(nums) != den * sum(values):  # the remainders are >= 0, so all are 0 exactly when they sum to 0
        num = next(x for x in nums if x % den)
        raise ConsistencyError("%s is not an integer: %s" % (what, Fraction(num, den)))
    return values


def supernatural_table(rs, window=None):
    """HyperTable of the supernatural sheaf: entry(i, i + t) = |P(t)|.

    The row of twist t is i = #{r > t} in [0, delta], so the twists that
    reach a column of the window are lo - delta..hi.  As t grows, i falls by
    one at each root and the column i + t never decreases, so the twists
    whose column is in the window form one run; its values are scaled in
    one call, in ascending twist order, and the entries sorted once.  The
    window is bounded as full_table's is, with delta in the role of n, and
    a reversed one is refused.
    """
    window = lo, hi = _checked_window(window, rs.delta)
    roots = rs.roots
    i = rs.delta  # roots[i - 1] is the least root above t
    rows, twists = [], []
    for t in range(lo - i, hi + 1):
        while i and roots[i - 1] <= t:
            i -= 1
        if i + t > hi:
            break
        if i + t >= lo:
            rows.append(i)
            twists.append(t)
    values = _scaled(rs, [prod(map(t.__sub__, roots)) for t in twists], "supernatural")
    entries = [(i, i + t, v) for i, t, v in zip(rows, twists, values) if v]
    entries.sort()
    return HyperTable(window, tuple(entries))


def _integral(roots):
    """RootSequence with the least scale making P integer-valued: delta! / g,
    g = gcd of prod (t - r) over the delta + 1 consecutive twists 0..delta."""
    _bounded("root count", len(roots))
    g = gcd(*(prod(t - r for r in roots) for t in range(len(roots) + 1)))
    return RootSequence(roots, Fraction(factorial(len(roots)), g))


class PureComplexReport(namedtuple("PureComplexReport", "n degrees ranks is_resolution is_cm")):
    __slots__ = ()


def pure_zip(rs, n):
    """Degree sequence and ranks of the pure zip complex on [0, n].

    Degrees are [0, n] minus the negated roots; the rank in degree d is
    C(n, d) * |P(-d)|.  Flags: resolution iff r_1 <= 0; Cohen-Macaulay iff
    additionally -n <= r_delta.
    """
    _bounded("n", n)
    if n < rs.delta:
        warnings.warn("n = %d is smaller than the root count %d" % (n, rs.delta))
    negated = {-r for r in rs.roots}
    degrees = tuple(d for d in range(n + 1) if d not in negated)
    ranks = tuple(_scaled(rs, [comb(n, d) * prod(map((-d).__sub__, rs.roots)) for d in degrees], "rank"))
    is_resolution = rs.delta == 0 or rs.roots[0] <= 0
    is_cm = is_resolution and (rs.delta == 0 or -n <= rs.roots[-1])
    return PureComplexReport(n, degrees, ranks, is_resolution, is_cm)


def eagon_northcott(w):
    """Roots (-1, ..., -(w-1)) of the Eagon-Northcott complex, w >= 2."""
    if w < 2:
        raise ValueError("need w >= 2")
    return _integral(range(-1, -w, -1))


def buchsbaum_rim(r, m):
    """Roots (-r-1, ..., -r-m) of the Buchsbaum-Rim/Eisenbud complex, r >= 1."""
    if r < 1 or m < 1:
        raise ValueError("need r >= 1 and m >= 1")
    return _integral(range(-r - 1, -r - m - 1, -1))


def schur_roots(lam):
    """Roots of the Schur bundle for a weakly decreasing lambda with
    lambda_m >= -1: the values -lambda_i - m + i - 1, sorted decreasing."""
    lam = tuple(lam)
    m = len(lam)
    if m == 0:
        raise ValueError("lambda must be nonempty")
    if any(a < b for a, b in zip(lam, lam[1:])):
        raise ValueError("lambda must be weakly decreasing: %r" % (lam,))
    if lam[-1] < -1:
        raise ValueError("need lambda_m >= -1")
    vals = [-lam[i] - m + i for i in range(m)]  # i is 0-based
    return _integral(tuple(sorted(vals, reverse=True)))


def tensor_roots(dims, weights):
    """Union of the intervals [-u_i - w_i + 1, -u_i - 1] as a root sequence.

    Requires the pinching condition u_i + w_i - 1 <= u_{i+1}; the dimension
    is sum (w_i - 1).
    """
    dims = tuple(dims)
    weights = tuple(weights)
    if len(dims) != len(weights):
        raise ValueError("dims and weights must have equal length")
    if any(w < 1 for w in dims):
        raise ValueError("dims must be >= 1")
    for (u, w), u_next in zip(zip(weights, dims), weights[1:]):
        if u + w - 1 > u_next:
            raise ValueError("pinching condition violated: %d + %d - 1 > %d" % (u, w, u_next))
    _bounded("root count", sum(dims) - len(dims))
    roots = []
    for u, w in zip(weights, dims):
        roots.extend(range(-u - w + 1, -u))  # w - 1 consecutive roots
    return _integral(tuple(sorted(roots, reverse=True)))
