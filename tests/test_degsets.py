import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import balanced_by_strand_starts
from triplets import DegreeSet, is_balanced, reflect, strands


def test_strands_golden():
    X = DegreeSet(2, 11, (2, 3, 5, 9, 10, 11))
    dec = strands(X)
    assert X.nondegrees() == (4, 6, 7, 8)
    assert dec.starts == (2, 5, 7, 8, 9, 13)
    assert dec.strands == ((2, 3), (5, 5), (7, 6), (8, 7), (9, 11))
    assert dec.span == 4


def test_strands_full_interval():
    dec = strands(DegreeSet(0, 4, (0, 1, 2, 3, 4)))
    assert dec.span == 0
    assert dec.strands == ((0, 4),)


def test_strands_singleton():
    dec = strands(DegreeSet(3, 3, (3,)))
    assert dec.starts == (3, 5)
    assert dec.strands == ((3, 3),)


def test_degree_set_validation():
    with pytest.raises(ValueError):
        DegreeSet(0, 4, ())
    with pytest.raises(ValueError):
        DegreeSet(0, 4, (2, 2))
    with pytest.raises(ValueError):
        DegreeSet(0, 4, (0, 5))
    with pytest.raises(ValueError):
        DegreeSet(1, 4, (0, 2))


def test_reflect():
    assert reflect((0, 2, 4), 4) == (0, 2, 4)
    assert reflect((0, 1, 2), 4) == (2, 3, 4)
    assert reflect(reflect((1, 3), 5), 5) == (1, 3)
    with pytest.raises(ValueError):
        reflect((0, 5), 4)


def test_balanced_examples():
    # Strand starts of Y are 2 and 4, strictly above the degrees 1 and 2 of X.
    assert is_balanced(DegreeSet(0, 4, (0, 1, 2)), DegreeSet(0, 4, (0, 2, 4)))
    # Full intervals are always balanced.
    assert is_balanced(DegreeSet(0, 3, (0, 1, 2, 3)), DegreeSet(0, 3, (0, 1, 2, 3)))
    # At u = 1 the prefix counts tie, so the pair is not balanced.
    assert not is_balanced(DegreeSet(0, 1, (0,)), DegreeSet(0, 1, (0,)))


def test_balanced_requires_matching_intervals():
    with pytest.raises(ValueError):
        is_balanced(DegreeSet(0, 3, (0, 1)), DegreeSet(0, 4, (0, 1)))


def _nonempty_subsets(lo, hi):
    pts = range(lo, hi + 1)
    return [DegreeSet(lo, hi, ms) for r in range(1, len(pts) + 1) for ms in itertools.combinations(pts, r)]


def test_balanced_criteria_agree_bulk():
    # The prefix criterion of the library against the strand-start oracle on
    # every pair of nonempty subsets of [lo, 7], lo = 0..7: every interval of
    # length <= 8, and every balance query the n <= 7 enumeration makes.
    checked = 0
    for lo in range(8):
        sets = _nonempty_subsets(lo, 7)
        for X in sets:
            for Y in sets:
                assert is_balanced(X, Y) == balanced_by_strand_starts(X, Y), (X, Y)
                checked += 1
    assert checked == sum((2**k - 1) ** 2 for k in range(1, 9))


@st.composite
def _degree_set(draw):
    lo = draw(st.integers(min_value=-3, max_value=3))
    hi = lo + draw(st.integers(min_value=0, max_value=9))
    members = draw(st.sets(st.integers(min_value=lo, max_value=hi), min_size=1))
    return DegreeSet(lo, hi, tuple(sorted(members)))


@given(_degree_set())
@settings(max_examples=200)
def test_strands_partition_interval(X):
    dec = strands(X)
    assert dec.span == len(X.nondegrees())
    assert len(dec.strands) == dec.span + 1
    covered = []
    for start, end in dec.strands:
        covered.extend(range(start, end + 1))
    assert sorted(covered) == sorted(X.members)
    assert sorted(covered + list(X.nondegrees())) == list(range(X.lo, X.hi + 1))
