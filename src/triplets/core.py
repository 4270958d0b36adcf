"""Homology triplets (B, H, C) over [0, n]: validation, rotation, duality,
and exhaustive enumeration.

A homology triplet of type n consists of subsets B, H, C of [0, n] such
that, with h = min H, c = min C, b = n - max H:
  * B = [h, n-c] minus i_B interior elements, with both endpoints present;
    H and C sit in [h, n-b] and [c, n-b] likewise with endpoints present;
  * n = b + h + c + i_B + s_H + s_C  (spans taken inside those intervals);
  * (B, H) is balanced over [h, n], (refl B, C) over [c, n], and
    (refl H, refl C) over [b, n].

A triplet is checked once, where it enters: by `validate_triplet`, where
`HomologyTriplet.from_json` ends too.  The constructor checks nothing.
`enumerate_triplets`, `rotate()` and `dual()` build triplets valid by
construction or by theorem; the tests check them against `validate_triplet`.

`enumerate_triplets` is a lazy iterator in lexicographic (B, H, C) order.
It walks the candidate subsets in that order, each packed with its
reflection as prefix counts in one int, so a balance test is one guarded
subtraction and never calls `balanced`.  For each B, and for each H of an
h group, it keeps a byte mask of the C of each shape that balance with it,
and yields the C their meet selects.  It holds the candidates and those
per-shape masks, and nothing after it ends.
"""

import json
from collections import namedtuple
from itertools import compress
from operator import and_

from .degsets import balanced, reflect
from .errors import TripletError

ENUMERATE_MAX_N = 9  # largest n enumerated: 1115953 triplets at n = 9, about 6x more per step of n


class HomologyTriplet(namedtuple("HomologyTriplet", "n B H C")):
    """A triplet as the tuple (n, B, H, C) of an int and three sorted int tuples."""

    __slots__ = ()

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
        return (self.n - self.b - self.h + 1) - len(self.H)

    @property
    def s_C(self):
        return (self.n - self.b - self.c + 1) - len(self.C)

    def rotate(self):
        n, B, H, C = self
        return HomologyTriplet(n, reflect(H, n), reflect(C, n), B)

    def dual(self):
        n, B, H, C = self
        return HomologyTriplet(n, reflect(B, n), C, H)

    def to_json(self):
        """The bytes json.dumps gives for {"n", "B", "H", "C"}: an int list prints as JSON."""
        n, B, H, C = self
        return '{"n": %d, "B": %s, "H": %s, "C": %s}' % (n, list(B), list(H), list(C))

    @classmethod
    def from_json(cls, line):
        try:
            d = json.loads(line)
        except (ValueError, RecursionError) as exc:  # the one other ValueError: an int past the digit limit
            cause = ("not JSON" if isinstance(exc, json.JSONDecodeError)
                     else "nested too deeply" if isinstance(exc, RecursionError) else "integer too long")
            raise TripletError("record", "%s: %s" % (cause, line.strip())) from None
        if not isinstance(d, dict) or not {"n", "B", "H", "C"} <= d.keys():
            raise TripletError("record", "expected an object with keys n, B, H, C: %s" % line.strip())
        if type(d["n"]) is not int:
            raise TripletError("record", "n must be an integer, got %r" % (d["n"],))
        for name in "BHC":
            if type(d[name]) is not list or any(type(x) is not int for x in d[name]):
                raise TripletError("record", "%s must be a list of integers, got %r" % (name, d[name]))
        return validate_triplet(d["n"], d["B"], d["H"], d["C"])


def validate_triplet(n, B, H, C):
    """Validate (n, B, H, C), each set in any order; returns the triplet or
    raises TripletError.  `HomologyTriplet.from_json` ends here too.  A bool
    is not an integer here, although Python makes it one."""
    sets = tuple(B), tuple(H), tuple(C)
    if type(n) is not int or any(type(x) is not int for ms in sets for x in ms):
        raise TripletError("interval", "n, B, H, C must be integers: %r" % ((n, *sets),))
    t = HomologyTriplet(n, *(tuple(sorted(ms)) for ms in sets))
    _, B, H, C = t
    for name, ms in zip("BHC", (B, H, C)):
        if not ms:
            raise TripletError("interval", "%s is empty" % name)
        if len(set(ms)) != len(ms):  # ms is sorted, so only a repeat can break it
            raise TripletError("interval", "%s not strictly increasing: %r" % (name, ms))
        if ms[0] < 0 or ms[-1] > n:
            raise TripletError("interval", "%s = %r not within [0, %s]" % (name, ms, n))

    h, c, b = t.h, t.c, t.b
    if B[0] != h:
        raise TripletError("endpoints", "min B = %s but min H = %s" % (B[0], h))
    if B[-1] != n - c:
        raise TripletError("endpoints", "max B = %s but n - min C = %s" % (B[-1], n - c))
    if C[-1] != n - b:
        raise TripletError("endpoints", "max C = %s but max H = %s" % (C[-1], H[-1]))
    # With the endpoints fixed, containment of H and C in their intervals
    # reduces to c <= n - b which max C already guarantees.

    i_b, s_h, s_c = t.i_B, t.s_H, t.s_C
    if n != b + h + c + i_b + s_h + s_c:
        terms = "+".join(map(str, (b, h, c, i_b, s_h, s_c)))
        raise TripletError("count", "n = %s but b+h+c+i_B+s_H+s_C = %s" % (n, terms))

    # The endpoints put each pair inside [lo, n], as `balanced` requires.
    for clause, pair, lo, X, Y in (("balanced_BH", "(B, H)", h, B, H),
                                   ("balanced_BC", "(refl B, C)", c, reflect(B, n), C),
                                   ("balanced_HC", "(refl H, refl C)", b, reflect(H, n), reflect(C, n))):
        if not balanced(lo, n, X, Y):
            raise TripletError(clause, "%s not balanced over [%s, %s]" % (pair, lo, n))
    return t


def _packing(n):
    """(k, G, T) for packed prefix counts over [0, n].

    A subset X of [0, n] packs into one int whose field u, k bits wide,
    holds #(X cap [0, u]).  G has the top bit of every field set; field u of
    T[lo] is u - lo + 2 for u >= lo, else 0.  For X, Y inside [lo, n] the
    pair is balanced over [lo, n] exactly when every field of X + Y reaches
    that of T[lo]: a field sum is at most 2n + 2 < 2^(k-1), so the guarded
    subtraction in `_balanced_mask` lets no carry or borrow cross a field.
    """
    k = (2 * n + 3).bit_length() + 1
    G = sum(1 << (k * u + k - 1) for u in range(n + 1))
    T = tuple(sum((u - lo + 2) << (k * u) for u in range(lo, n + 1)) for lo in range(n + 1))
    return k, G, T


def _balanced_mask(px, pys, G, T_lo):
    """Byte i is 1 where (X, Y_i) is balanced over [lo, n], else 0; packed X and Y_i lie inside [lo, n]."""
    return bytes([(((px + py) | G) - T_lo) & G == G for py in pys])


def _candidates(n, k):
    """(X, span, packed X, packed refl X) for every nonempty subset X of [0, n], grouped
    by min X, each group in lexicographic order (preorder of the increasing sequences):
    adding x to X adds ones[x], a 1 in each field u >= x, to packed X, ones[n - x] to refl X."""
    ones = [sum(1 << (k * u) for u in range(x, n + 1)) for x in range(n + 1)]
    out = [[] for _ in range(n + 1)]

    def extend(ms, packed, packed_refl):
        out[ms[0]].append((ms, (ms[-1] - ms[0] + 1) - len(ms), packed, packed_refl))
        for x in range(ms[-1] + 1, n + 1):
            extend(ms + (x,), packed + ones[x], packed_refl + ones[n - x])

    for lo in range(n + 1):
        extend((lo,), ones[lo], ones[n - lo])
    return out


def enumerate_triplets(n):
    """Lazy iterator over all homology triplets of type n, in lexicographic
    (B, H, C) order; memory is bounded by the 2^(n+1) - 1 candidate subsets
    plus per-shape masks.  Each triplet is built valid by construction, not
    re-validated."""
    if type(n) is not int:  # a bool is refused too, as in validate_triplet
        raise ValueError("n must be an integer, got %r" % (n,))
    if n < 1:
        raise ValueError("n must be >= 1")
    if n > ENUMERATE_MAX_N:
        raise ValueError("enumeration refused: n = %s exceeds bound %d" % (n, ENUMERATE_MAX_N))
    return _enumerate(n)


def _enumerate(n):
    k, G, T = _packing(n)
    cands = _candidates(n, k)
    # C candidates by shape (min, max, span): min C = c, max C = n - b, span s_C.
    grouped = {}
    for group in cands:
        for C, s_c, pc, prc in group:
            grouped.setdefault((C[0], C[-1], s_c), []).append((C, pc, prc))
    shapes = {key: tuple(zip(*Cs)) for key, Cs in grouped.items()}
    # Valid by construction: B, H share min h; the C shape key fixes min C = c,
    # max C = max H and the count; all three balances are tested, each pair
    # over [min, n], where counting from 0 equals counting from the min.
    for h, group in enumerate(cands):
        packed = [ph for _, _, ph, _ in group]
        hc_masks = {}  # (H index, shape) -> C with (refl H, refl C) balanced
        for B, i_b, pb, prb in group:
            c = n - B[-1]
            rem = n - h - c - i_b  # = b + s_H + s_C
            bc_masks = {}  # shape -> C with (refl B, C) balanced
            # compress keeps index order, so the order stays lexicographic
            for j in compress(range(len(group)), _balanced_mask(pb, packed, G, T[h])):
                H, s_h, _, prh = group[j]
                b = n - H[-1]
                key = (c, H[-1], rem - b - s_h)
                shape = shapes.get(key)
                if shape is None:
                    continue
                Cs, pcs, prcs = shape
                m1 = bc_masks.get(key)
                if m1 is None:
                    m1 = bc_masks[key] = _balanced_mask(prb, pcs, G, T[c])
                if not any(m1):
                    continue
                m2 = hc_masks.get((j, key))
                if m2 is None:
                    m2 = hc_masks[j, key] = _balanced_mask(prh, prcs, G, T[b])
                for C in compress(Cs, map(and_, m1, m2)):
                    yield HomologyTriplet(n, B, H, C)
