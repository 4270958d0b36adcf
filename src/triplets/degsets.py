"""Subsets of integer intervals: strands, reflection, balanced pairs.

A degree set is a subset X of an interval [lo, hi].  Its nondegrees are the
elements of [lo, hi] not in X.  The strand starts are
lo = x_0 < x_1 < ... < x_s < x_{s+1} = hi + 2 where x_1, ..., x_s are the
successors of the nondegrees; the i'th strand is the interval
[x_i, x_{i+1} - 2] (empty exactly when x_i is not in X), and the span is
s = number of nondegrees.
"""

from dataclasses import dataclass
from functools import lru_cache


@dataclass(frozen=True)
class DegreeSet:
    lo: int
    hi: int
    members: tuple

    def __post_init__(self):
        ms = tuple(self.members)
        object.__setattr__(self, "members", ms)
        if not ms:
            raise ValueError("degree set must be nonempty")
        if any(b <= a for a, b in zip(ms, ms[1:])):
            raise ValueError("members must be strictly increasing: %r" % (ms,))
        if ms[0] < self.lo or ms[-1] > self.hi:
            raise ValueError("members %r outside interval [%d, %d]" % (ms, self.lo, self.hi))

    def __contains__(self, x):
        return x in self.members

    def __len__(self):
        return len(self.members)

    def nondegrees(self):
        mem = set(self.members)
        return tuple(u for u in range(self.lo, self.hi + 1) if u not in mem)


@dataclass(frozen=True)
class StrandDecomposition:
    starts: tuple
    strands: tuple  # (start, end) pairs; start > end marks an empty strand
    span: int


@lru_cache(maxsize=65536)
def strands(X):
    """Strand decomposition of a DegreeSet."""
    gaps = X.nondegrees()
    starts = (X.lo,) + tuple(g + 1 for g in gaps) + (X.hi + 2,)
    pieces = tuple((starts[i], starts[i + 1] - 2) for i in range(len(starts) - 1))
    return StrandDecomposition(starts=starts, strands=pieces, span=len(gaps))


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


def is_balanced(X, Y):
    """Whether (X, Y) is a balanced pair of DegreeSets over their common interval."""
    if (X.lo, X.hi) != (Y.lo, Y.hi):
        raise ValueError("mismatched intervals: [%d,%d] vs [%d,%d]" % (X.lo, X.hi, Y.lo, Y.hi))
    return balanced(X.lo, X.hi, X.members, Y.members)
