import itertools
import json
import time

import pytest

from oracles import balanced_enumeration, pack
from triplets import (
    HomologyTriplet,
    TripletError,
    balanced,
    core,
    enumerate_triplets,
    reflect,
    validate_triplet,
)

# Counts frozen from the first complete enumeration run; the n <= 3 values
# are re-derived below by brute force over all subset triples.
GOLDEN_COUNTS = {1: 3, 2: 9, 3: 33, 4: 150, 5: 795}


def clause_of(n, B, H, C):
    with pytest.raises(TripletError) as exc:
        validate_triplet(n, B, H, C)
    return exc.value.clause


def test_validation_clauses():
    assert clause_of(3, [], [0], [0]) == "interval"
    assert clause_of(3, [0, 4], [0], [0]) == "interval"
    # bool is a subclass of int; an accepted True would print as `true`.
    assert clause_of(4, [0, True, 2], [0, 2, 4], [2, 3, 4]) == "interval"
    assert clause_of(True, [0, 1], [0, 1], [0, 1]) == "interval"
    assert clause_of(4, [0, 1, 2], [0, 2, 4.0], [2, 3, 4]) == "interval"
    assert clause_of(4, [0, "1", 2], [0, 2, 4], [2, 3, 4]) == "interval"
    assert clause_of(3, [1, 3], [0, 3], [0, 2]) == "endpoints"  # min B != min H
    assert clause_of(3, [0, 2], [0, 3], [0, 2]) == "endpoints"  # max B != n - min C
    assert clause_of(3, [0, 2], [0, 1], [0, 2]) == "endpoints"  # max C != max H
    assert clause_of(3, [0, 3], [0, 2], [0, 2]) == "count"
    assert clause_of(3, [0, 2], [0, 2, 3], [1, 2, 3]) == "balanced_BH"
    assert clause_of(3, [0, 2], [0, 1, 2, 3], [1, 3]) == "balanced_BC"
    assert clause_of(3, [0, 1, 2], [0, 1, 3], [1, 3]) == "balanced_HC"


def test_validation_message_holds_the_whole_input():
    # The library's message is whole; only what the CLI prints is cut.
    B = [0] * 50000
    with pytest.raises(TripletError) as exc:
        validate_triplet(4, B, [0], [0])
    assert str(exc.value) == "interval: B not strictly increasing: %r" % (tuple(B),)


@pytest.mark.parametrize("B", [range(10**5 + 1), range(10**5, -1, -1)], ids=["sorted", "reversed"])
def test_validation_at_large_n_is_fast(B):
    # validate_triplet takes any n.  Each balance test sorts one pair, a
    # linear merge of two sorted runs: 1 s is about 20 times what this takes
    # on a 2-CPU Xeon, and a packed test quadratic in n took about 10 s.
    start = time.process_time()
    t = validate_triplet(10**5, B, [0], [0])
    assert time.process_time() - start < 1.0
    assert t == (10**5, tuple(range(10**5 + 1)), (0,), (0,))


def test_paper_examples_valid(t64, t42, t44):
    assert (t64.h, t64.c, t64.b) == (0, 2, 0)
    assert (t64.i_B, t64.s_H, t64.s_C) == (0, 2, 0)
    assert (t42.h, t42.c, t42.b) == (0, 0, 1)
    assert t44.B == (1, 2, 3)


def test_rotate_dual_goldens(t42, t44, t64):
    assert t42.rotate() == t44
    assert t44.rotate() == validate_triplet(3, [0, 2], [0, 1, 3], [1, 2, 3])
    assert t42.rotate().rotate().rotate() == t42
    assert t64.dual() == validate_triplet(4, [2, 3, 4], [2, 3, 4], [0, 2, 4])
    assert t64.dual().dual() == t64


def test_json_roundtrip(t64):
    line = t64.to_json()
    assert json.loads(line) == {"n": 4, "B": [0, 1, 2], "H": [0, 2, 4], "C": [2, 3, 4]}
    assert HomologyTriplet.from_json(line) == t64


def test_enumerate_counts():
    for n, count in GOLDEN_COUNTS.items():
        assert len(list(enumerate_triplets(n))) == count


def test_enumerate_n7_count_and_strict_order():
    prev = None
    count = 0
    for t in enumerate_triplets(7):
        key = (t.B, t.H, t.C)
        assert prev is None or prev < key
        prev = key
        count += 1
    assert count == 28062


def test_enumerate_is_lazy(monkeypatch):
    built = []

    class Counted(HomologyTriplet):
        def __new__(cls, *fields):
            self = super().__new__(cls, *fields)
            built.append(self)
            return self

    monkeypatch.setattr(core, "HomologyTriplet", Counted)
    t = next(iter(enumerate_triplets(8)))
    assert built == [t]  # one triplet built, not the 175560 of the census
    assert (t.B, t.H, t.C) == ((0,), tuple(range(9)), (8,))
    with pytest.raises(ValueError):
        enumerate_triplets(core.ENUMERATE_MAX_N + 1)  # raised by the call, before any next()


def brute_force_triplets(n):
    """Oracle: test every triple of nonempty subsets with `validate_triplet`."""
    subsets = [tuple(sorted(s)) for r in range(1, n + 2) for s in itertools.combinations(range(n + 1), r)]
    found = []
    for B in subsets:
        for H in subsets:
            for C in subsets:
                try:
                    found.append(validate_triplet(n, B, H, C))
                except TripletError:
                    pass
    return sorted(found, key=lambda t: (t.B, t.H, t.C))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_enumerate_matches_brute_force(n):
    assert list(enumerate_triplets(n)) == brute_force_triplets(n)


def test_built_triplets_pass_validation():
    # Enumeration, rotate() and dual() build triplets without validating
    # them; each must be exactly what validate_triplet returns for it.
    count = 0
    for n in range(1, 7):
        for t in enumerate_triplets(n):
            for u in (t, t.rotate(), t.dual()):
                assert u == validate_triplet(u.n, u.B, u.H, u.C)
            count += 1
    assert count == 5599


def test_enumerate_sorted_and_closed_under_symmetries():
    for n in range(1, 6):
        ts = list(enumerate_triplets(n))
        assert ts == sorted(ts, key=lambda t: (t.B, t.H, t.C))
        as_set = set(ts)
        for t in ts:
            assert t.rotate() in as_set
            assert t.dual() in as_set


def test_symmetry_group_relations():
    for n in range(1, 6):
        for t in enumerate_triplets(n):
            assert t.rotate().rotate().rotate() == t
            assert t.dual().dual() == t
            assert t.rotate().dual() == t.dual().rotate().rotate()


def test_enumerate_guard(monkeypatch):
    with pytest.raises(ValueError):
        enumerate_triplets(0)
    with pytest.raises(ValueError):
        enumerate_triplets(13)
    monkeypatch.setattr(core, "ENUMERATE_MAX_N", 2)
    with pytest.raises(ValueError):
        enumerate_triplets(3)
    monkeypatch.setattr(core, "ENUMERATE_MAX_N", 3)
    assert len(list(enumerate_triplets(3))) == GOLDEN_COUNTS[3]


def test_enumerate_refuses_a_bool_n():
    with pytest.raises(ValueError, match="n must be an integer, got True"):
        enumerate_triplets(True)


def test_enumerate_refuses_a_float_n_when_called():
    with pytest.raises(ValueError, match=r"n must be an integer, got 3\.0"):
        enumerate_triplets(3.0)


def test_enumerate_default_bound():
    # The bound is 9: n = 9 finishes (about 10^6 triplets) and n = 10 is
    # refused when called.
    assert core.ENUMERATE_MAX_N == 9
    next(iter(enumerate_triplets(9)))
    with pytest.raises(ValueError, match="exceeds bound 9"):
        enumerate_triplets(10)


def test_count_equation_lemma():
    # s_H + s_C + b = |B| - 1 follows from the count clause and the
    # definition of i_B; validate_triplet checks only the clause.
    for n in range(1, 7):
        for t in enumerate_triplets(n):
            assert t.b >= 0
            assert t.s_H + t.s_C + t.b == len(t.B) - 1
            assert t.n == t.b + t.h + t.c + t.i_B + t.s_H + t.s_C


def test_balance_holds_on_all_three_pairs():
    for t in enumerate_triplets(3):
        n = t.n
        assert balanced(t.h, n, t.B, t.H)
        assert balanced(t.c, n, reflect(t.B, n), t.C)
        assert balanced(t.b, n, reflect(t.H, n), reflect(t.C, n))


@pytest.mark.parametrize("n", range(1, 8))
def test_enumerate_matches_balanced_oracle(n):
    # The packed enumeration against the per-C `balanced` calls it replaced,
    # triplet for triplet and in order.
    assert list(enumerate_triplets(n)) == list(balanced_enumeration(n))


@pytest.mark.parametrize("n", range(1, 9))
def test_candidates_are_packed_as_defined(n):
    # Each candidate's packing, built one element at a time, against the
    # prefix counts of X and of refl X counted point by point; the
    # candidates are every nonempty subset of [0, n], grouped by min in
    # lexicographic order, each with its span.
    k, _, _ = core._packing(n)
    cands = [c for group in core._candidates(n, k) for c in group]
    subsets = [ms for r in range(1, n + 2) for ms in itertools.combinations(range(n + 1), r)]
    assert [X for X, _, _, _ in cands] == sorted(subsets)
    for X, span, packed, packed_refl in cands:
        assert span == X[-1] - X[0] + 1 - len(X)
        assert (packed, packed_refl) == (pack(X, n, k), pack(reflect(X, n), n, k)), X


def _packed_agrees(lo, n, Xs, Ys):
    """Whether the packed check of every (X, Y) over [lo, n] equals `balanced`."""
    k, G, T = core._packing(n)
    pys = [pack(Y, n, k) for Y in Ys]
    for X in Xs:
        mask = core._balanced_mask(pack(X, n, k), pys, G, T[lo])
        if list(map(bool, mask)) != [balanced(lo, n, X, Y) for Y in Ys]:
            return False
    return True


def test_packed_balance_agrees_bulk():
    # Every pair of nonempty subsets of [lo, 7], lo = 0..7: the pairs
    # test_balanced_criteria_agree_bulk walks.
    for lo in range(8):
        sets = [ms for r in range(1, 9 - lo) for ms in itertools.combinations(range(lo, 8), r)]
        assert _packed_agrees(lo, 7, sets, sets), lo


def test_packed_balance_at_extreme_field_sums():
    # X = Y = [0, n] puts 2u + 2 in field u, 2n + 2 at the top, the largest
    # sum a field holds.  X = {0} + [u0 + 1, n] and Y = [0, n] minus u0 tie
    # at u0 alone (1 + u0 = u0 + 1) and pass every other u, sums up to 2n + 1 - u0.
    for n in range(1, 41):
        full = tuple(range(n + 1))
        assert balanced(0, n, full, full)
        assert _packed_agrees(0, n, [full], [full])
        for u0 in range(1, n + 1):
            X = (0,) + tuple(range(u0 + 1, n + 1))
            Y = tuple(u for u in full if u != u0)
            assert not balanced(0, n, X, Y)
            assert _packed_agrees(0, n, [X, Y, full], [X, Y, full]), (n, u0)
