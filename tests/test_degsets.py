import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import balanced_by_prefix_counts, balanced_by_strand_starts, strand_starts
from triplets import balanced, reflect
from triplets.degsets import nondegrees


def _strands(starts):
    """(start, end) of each strand; start > end marks an empty strand."""
    return tuple((x, y - 2) for x, y in zip(starts, starts[1:]))


def test_strands_golden():
    starts = strand_starts(2, 11, (2, 3, 5, 9, 10, 11))  # nondegrees 4, 6, 7, 8
    assert starts == (2, 5, 7, 8, 9, 13)
    assert _strands(starts) == ((2, 3), (5, 5), (7, 6), (8, 7), (9, 11))
    assert len(starts) - 2 == 4


def test_strands_full_interval():
    starts = strand_starts(0, 4, (0, 1, 2, 3, 4))
    assert len(starts) - 2 == 0
    assert _strands(starts) == ((0, 4),)


def test_strands_singleton():
    starts = strand_starts(3, 3, (3,))
    assert starts == (3, 5)
    assert _strands(starts) == ((3, 3),)


def test_nondegrees_golden():
    assert nondegrees(2, 11, (2, 3, 5, 9, 10, 11)) == [4, 6, 7, 8]
    assert nondegrees(0, 4, (0, 1, 2, 3, 4)) == []
    assert nondegrees(3, 3, (3,)) == []


def test_reflect():
    assert reflect((0, 2, 4), 4) == (0, 2, 4)
    assert reflect((0, 1, 2), 4) == (2, 3, 4)
    assert reflect(reflect((1, 3), 5), 5) == (1, 3)
    with pytest.raises(ValueError):
        reflect((0, 5), 4)


def test_balanced_examples():
    # Strand starts of Y are 2 and 4, strictly above the degrees 1 and 2 of X.
    assert balanced(0, 4, (0, 1, 2), (0, 2, 4))
    # Full intervals are always balanced.
    assert balanced(0, 3, (0, 1, 2, 3), (0, 1, 2, 3))
    # At u = 1 the prefix counts tie, so the pair is not balanced.
    assert not balanced(0, 1, (0,), (0,))


def _nonempty_subsets(lo, hi):
    pts = range(lo, hi + 1)
    return [ms for r in range(1, len(pts) + 1) for ms in itertools.combinations(pts, r)]


def test_balanced_criteria_agree_bulk():
    # The sorted-prefix criterion of the library against the definition and
    # the strand-start oracle on every pair of nonempty subsets of [lo, 7],
    # lo = 0..7: every interval of length <= 8, and every balance query the
    # n <= 7 enumeration makes.
    checked = 0
    for lo in range(8):
        sets = _nonempty_subsets(lo, 7)
        for X in sets:
            for Y in sets:
                expected = balanced_by_prefix_counts(lo, 7, X, Y)
                assert balanced(lo, 7, X, Y) == expected == balanced_by_strand_starts(lo, 7, X, Y), (lo, X, Y)
                checked += 1
    assert checked == sum((2**k - 1) ** 2 for k in range(1, 9))


@st.composite
def _degree_set(draw):
    lo = draw(st.integers(min_value=-3, max_value=3))
    hi = lo + draw(st.integers(min_value=0, max_value=9))
    members = draw(st.sets(st.integers(min_value=lo, max_value=hi), min_size=1))
    return lo, hi, tuple(sorted(members))


@given(_degree_set())
@settings(max_examples=200)
def test_strands_partition_interval(arg):
    lo, hi, X = arg
    starts = strand_starts(lo, hi, X)
    gaps = nondegrees(lo, hi, X)
    assert starts == (lo, *(g + 1 for g in gaps), hi + 2)
    covered = []
    for start, end in _strands(starts):
        covered.extend(range(start, end + 1))
    assert sorted(covered) == list(X)
    assert sorted(covered + gaps) == list(range(lo, hi + 1))
