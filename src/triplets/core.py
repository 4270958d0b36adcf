"""Homology triplets (B, H, C) over [0, n]: validation, rotation, duality,
and exhaustive enumeration.

A homology triplet of type n consists of subsets B, H, C of [0, n] such
that, with h = min H, c = min C, b = n - max H:
  * B = [h, n-c] minus i_B interior elements, with both endpoints present;
    H and C sit in [h, n-b] and [c, n-b] likewise with endpoints present;
  * n = b + h + c + i_B + s_H + s_C  (spans taken inside those intervals);
  * (B, H) is balanced over [h, n], (refl B, C) over [c, n], and
    (refl H, refl C) over [b, n].
"""

import itertools
import json
import os
from dataclasses import dataclass

from .degsets import DegreeSet, is_balanced, reflect, strands
from .errors import ConsistencyError, TripletError

MAX_N_ENV = "TRIPLETS_MAX_N"
DEFAULT_MAX_N = 12


@dataclass(frozen=True)
class HomologyTriplet:
    n: int
    B: tuple
    H: tuple
    C: tuple

    def __post_init__(self):
        object.__setattr__(self, "B", tuple(self.B))
        object.__setattr__(self, "H", tuple(self.H))
        object.__setattr__(self, "C", tuple(self.C))
        _check(self)

    # -- derived invariants ------------------------------------------------
    @property
    def h(self):
        return self.H[0]

    @property
    def c(self):
        return self.C[0]

    @property
    def b(self):
        return self.n - self.H[-1]

    @property
    def i_B(self):
        return (self.n - self.c - self.h + 1) - len(self.B)

    @property
    def s_H(self):
        return strands(DegreeSet(self.h, self.n - self.b, self.H)).span

    @property
    def s_C(self):
        return strands(DegreeSet(self.c, self.n - self.b, self.C)).span

    def rotate(self):
        return HomologyTriplet(self.n, reflect(self.H, self.n), reflect(self.C, self.n), self.B)

    def dual(self):
        return HomologyTriplet(self.n, reflect(self.B, self.n), self.C, self.H)

    def to_degree_triplet(self):
        """Degree sequences of the three rotations, in cyclic order."""
        return (self.B, reflect(self.H, self.n), self.C)

    def to_json(self):
        return json.dumps({"n": self.n, "B": list(self.B), "H": list(self.H), "C": list(self.C)})

    @classmethod
    def from_json(cls, line):
        d = json.loads(line)
        return cls(d["n"], tuple(d["B"]), tuple(d["H"]), tuple(d["C"]))


def _check(t):
    n = t.n
    for name, ms in (("B", t.B), ("H", t.H), ("C", t.C)):
        if not ms:
            raise TripletError("interval", "%s is empty" % name)
        if any(y <= x for x, y in zip(ms, ms[1:])):
            raise TripletError("interval", "%s not strictly increasing: %r" % (name, ms))
        if ms[0] < 0 or ms[-1] > n:
            raise TripletError("interval", "%s = %r not within [0, %d]" % (name, ms, n))

    h, c, b = t.h, t.c, t.b
    if b < 0:
        raise TripletError("interval", "b = n - max H is negative")
    if t.B[0] != h:
        raise TripletError("endpoints", "min B = %d but min H = %d" % (t.B[0], h))
    if t.B[-1] != n - c:
        raise TripletError("endpoints", "max B = %d but n - min C = %d" % (t.B[-1], n - c))
    if t.C[-1] != n - b:
        raise TripletError("endpoints", "max C = %d but max H = %d" % (t.C[-1], t.H[-1]))
    # With the endpoints fixed, containment of H and C in their intervals
    # reduces to c <= n - b which max C already guarantees.

    i_b, s_h, s_c = t.i_B, t.s_H, t.s_C
    if n != b + h + c + i_b + s_h + s_c:
        raise TripletError(
            "count",
            "n = %d but b+h+c+i_B+s_H+s_C = %d+%d+%d+%d+%d+%d" % (n, b, h, c, i_b, s_h, s_c),
        )

    refl_b = reflect(t.B, n)
    refl_h = reflect(t.H, n)
    refl_c = reflect(t.C, n)
    if not is_balanced(DegreeSet(h, n, t.B), DegreeSet(h, n, t.H)):
        raise TripletError("balanced_BH", "(B, H) not balanced over [%d, %d]" % (h, n))
    if not is_balanced(DegreeSet(c, n, refl_b), DegreeSet(c, n, t.C)):
        raise TripletError("balanced_BC", "(refl B, C) not balanced over [%d, %d]" % (c, n))
    if not is_balanced(DegreeSet(b, n, refl_h), DegreeSet(b, n, refl_c)):
        raise TripletError("balanced_HC", "(refl H, refl C) not balanced over [%d, %d]" % (b, n))

    if s_h + s_c + b != len(t.B) - 1:
        raise ConsistencyError("s_H + s_C + b != |B| - 1 for %r" % (t,))


def validate_triplet(n, B, H, C):
    """Validate (n, B, H, C); returns the triplet or raises TripletError."""
    return HomologyTriplet(n, tuple(sorted(B)), tuple(sorted(H)), tuple(sorted(C)))


def _subsets_with_endpoints(lo, hi):
    """Subsets of [lo, hi] containing both endpoints, grouped by span."""
    by_span = {}
    if lo > hi:
        return by_span
    if lo == hi:
        return {0: [(lo,)]}
    interior = range(lo + 1, hi)
    for r in range(len(interior) + 1):
        for mid in itertools.combinations(interior, r):
            ms = (lo,) + mid + (hi,)
            span = (hi - lo + 1) - len(ms)
            by_span.setdefault(span, []).append(ms)
    return by_span


def enumerate_triplets(n, max_n=None):
    """All homology triplets of type n, in lexicographic (B, H, C) order."""
    if max_n is None:
        max_n = int(os.environ.get(MAX_N_ENV, DEFAULT_MAX_N))
    if n < 1:
        raise ValueError("n must be >= 1")
    if n > max_n:
        raise ValueError("enumeration refused: n = %d exceeds bound %d (set %s to raise it)" % (n, max_n, MAX_N_ENV))

    found = []
    for h in range(n + 1):
        for c in range(n + 1 - h):
            for b in range(n + 1 - h - c):
                e = n - h - c - b
                if h > n - c or h > n - b or c > n - b:
                    continue
                bs = _subsets_with_endpoints(h, n - c)
                hs = _subsets_with_endpoints(h, n - b)
                cs = _subsets_with_endpoints(c, n - b)
                for i_b, b_sets in bs.items():
                    rem = e - i_b
                    if rem < 0:
                        continue
                    for B in b_sets:
                        set_b = DegreeSet(h, n, B)
                        refl_b = DegreeSet(c, n, reflect(B, n))
                        for s_h in range(rem + 1):
                            s_c = rem - s_h
                            if s_h not in hs or s_c not in cs:
                                continue
                            for H in hs[s_h]:
                                if not is_balanced(set_b, DegreeSet(h, n, H)):
                                    continue
                                refl_h = DegreeSet(b, n, reflect(H, n))
                                for C in cs[s_c]:
                                    if not is_balanced(refl_b, DegreeSet(c, n, C)):
                                        continue
                                    if not is_balanced(refl_h, DegreeSet(b, n, reflect(C, n))):
                                        continue
                                    found.append(HomologyTriplet(n, B, H, C))
    found.sort(key=lambda t: (t.B, t.H, t.C))
    return found
