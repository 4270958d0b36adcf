"""Subsets of integer intervals: nondegrees, reflection, balanced pairs.

A degree set is a sorted tuple X of integers inside an interval [lo, hi],
which is passed alongside it.  Its nondegrees are the elements of [lo, hi]
not in X; the span s is their number, and they cut X into s + 1 strands,
the runs between them (empty where two nondegrees are adjacent).  The
paper's strand starts (lo and the successor of each nondegree) are defined
in tests/oracles.py, against which the library's cuts are checked.
"""

from operator import le


def nondegrees(lo, hi, X):
    """The elements of [lo, hi] not in X, ascending."""
    members = set(X)
    return [u for u in range(lo, hi + 1) if u not in members]


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
