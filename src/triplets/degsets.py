"""Subsets of integer intervals: strands, reflection, balanced pairs.

A degree set is a sorted tuple X of integers inside an interval [lo, hi],
which is passed alongside it.  Its nondegrees are the elements of [lo, hi]
not in X.  The strand starts are
lo = x_0 < x_1 < ... < x_s < x_{s+1} = hi + 2 where x_1, ..., x_s are the
successors of the nondegrees; the i'th strand is the interval
[x_i, x_{i+1} - 2] (empty exactly when x_i is not in X), and the span is
s = number of nondegrees.
"""

from operator import le


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


def balanced(lo, hi, X, Y):
    """Whether X, Y, subsets of [lo, hi] given as sequences of one type, form
    a balanced pair: for every u in [lo, hi], #(X cap [lo,u]) > #([lo,u] minus Y).
    That is, at least u - lo + 2 elements of the multiset X + Y are <= u, so
    its i'th smallest is at most lo + i - 2 for i = 2..hi - lo + 2.  An
    element outside [lo, hi] breaks this count; the caller keeps them out."""
    m = sorted(X + Y)
    return len(m) >= hi - lo + 2 and all(map(le, m[1:hi - lo + 2], range(lo, hi + 1)))
