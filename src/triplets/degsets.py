"""Subsets of integer intervals: strands, reflection, balanced pairs.

A degree set is a sorted tuple X of integers inside an interval [lo, hi],
which is passed alongside it.  Its nondegrees are the elements of [lo, hi]
not in X.  The strand starts are
lo = x_0 < x_1 < ... < x_s < x_{s+1} = hi + 2 where x_1, ..., x_s are the
successors of the nondegrees; the i'th strand is the interval
[x_i, x_{i+1} - 2] (empty exactly when x_i is not in X), and the span is
s = number of nondegrees.
"""

from functools import lru_cache


def strand_starts(lo, hi, X):
    """(lo, successor of each nondegree of X in [lo, hi], hi + 2)."""
    members = set(X)
    return (lo,) + tuple(u + 1 for u in range(lo, hi + 1) if u not in members) + (hi + 2,)


def reflect(members, n):
    """Elementwise x -> n - x, returned sorted."""
    ms = tuple(sorted(n - x for x in members))
    if ms and (ms[0] < 0 or ms[-1] > n):
        raise ValueError("members %r not within [0, %d]" % (tuple(members), n))
    return ms


@lru_cache(maxsize=65536)
def balanced(lo, hi, X, Y):
    """Whether subsets X, Y of [lo, hi] (plain tuples) form a balanced pair:
    for every u in [lo, hi], #(X cap [lo,u]) > #([lo,u] minus Y)."""
    xs = set(X)
    ys = set(Y)
    in_x = 0
    out_y = 0
    for u in range(lo, hi + 1):
        in_x += u in xs
        out_y += u not in ys
        if in_x <= out_y:
            return False
    return True
