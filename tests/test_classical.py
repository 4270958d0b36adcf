import warnings
from fractions import Fraction
from math import comb

import pytest

from triplets import (
    RootSequence,
    buchsbaum_rim,
    eagon_northcott,
    pure_zip,
    schur_roots,
    supernatural_table,
    tensor_roots,
)
from triplets.classical import cohomology_row

from oracles import supernatural_poly


def test_root_sequence_validation():
    RootSequence((3, 1, -2))
    with pytest.raises(ValueError):
        RootSequence((1, 1))
    with pytest.raises(ValueError):
        RootSequence((1, 2))
    with pytest.raises(ValueError):
        RootSequence((0,), scale=0)
    assert RootSequence(()).delta == 0


def test_supernatural_poly():
    rs = RootSequence((-1, -2), scale=Fraction(2))
    p = supernatural_poly(rs)
    # (2/2!) (t+1)(t+2)
    assert [p(t) for t in (0, 1, -1, -3)] == [2, 6, 0, 2]
    # The library's int-product values agree with the polynomial.
    tab = supernatural_table(rs, window=(-8, 4))
    for t in range(-6, 3):
        assert tab.dim(cohomology_row(rs, t), t) == abs(p(t))
    report = pure_zip(rs, 5)
    assert report.ranks == tuple(comb(5, d) * abs(p(-d)) for d in report.degrees)


def test_cohomology_row():
    rs = RootSequence((2, -1))
    assert cohomology_row(rs, 3) == 0
    assert cohomology_row(rs, 0) == 1
    assert cohomology_row(rs, -2) == 2


def test_supernatural_table_structure():
    # scale 3 makes P(t) = t(t+2)(t+3)/2 integer-valued on the integers
    rs = RootSequence((0, -2, -3), scale=3)
    tab = supernatural_table(rs, window=(-8, 4))
    p = supernatural_poly(rs)
    seen = {}
    for i, col, v in tab.entries:
        t = col - i
        assert v == abs(p(t)) > 0
        assert i == cohomology_row(rs, t)
        assert t not in seen  # one nonzero row per twist
        seen[t] = i
    # Row index weakly increases as the twist decreases.
    twists = sorted(seen, reverse=True)
    rows = [seen[t] for t in twists]
    assert rows == sorted(rows)
    # Zeros exactly at the roots.
    for r in rs.roots:
        assert r not in seen


def test_eagon_northcott_golden():
    rs = eagon_northcott(3)
    assert rs.roots == (-1, -2)
    report = pure_zip(rs, 4)
    assert report.degrees == (0, 3, 4)
    assert report.ranks == (1, 4, 3)
    assert report.is_resolution and report.is_cm
    with pytest.raises(ValueError):
        eagon_northcott(1)


def test_eagon_northcott_closed_form():
    # rank 1 in degree 0 and C(n,d)*C(d-1, w-1) in each degree d in [w, n].
    for n in range(2, 9):
        for w in range(2, n + 1):
            report = pure_zip(eagon_northcott(w), n)
            assert report.degrees == (0,) + tuple(range(w, n + 1))
            assert report.ranks[0] == 1
            for d, rank in zip(report.degrees[1:], report.ranks[1:]):
                assert rank == comb(n, d) * comb(d - 1, w - 1)
                # equivalent indexed form with m = w - 1, j = d - w
                m, j = w - 1, d - w
                assert rank == comb(n, m + 1 + j) * comb(m + j, j)
            assert report.is_resolution and report.is_cm


def test_buchsbaum_rim_flags():
    assert buchsbaum_rim(1, 2).roots == (-2, -3)
    for r in range(1, 5):
        for m in range(1, 5):
            rs = buchsbaum_rim(r, m)
            assert rs.roots == tuple(range(-r - 1, -r - m - 1, -1))
            for n in range(m, 9):
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")
                    report = pure_zip(rs, n)
                assert report.is_resolution
                assert report.is_cm == (n >= r + m)
    with pytest.raises(ValueError):
        buchsbaum_rim(0, 1)


def test_positive_root_is_not_resolution():
    assert not pure_zip(RootSequence((1,)), 3).is_resolution


def test_schur_roots():
    assert schur_roots((1, 0)).roots == (-1, -3)
    assert schur_roots((0, 0, 0)).roots == (-1, -2, -3)
    assert schur_roots((-1,)).roots == (0,)
    with pytest.raises(ValueError):
        schur_roots((0, 1))
    with pytest.raises(ValueError):
        schur_roots((0, -2))
    with pytest.raises(ValueError):
        schur_roots(())


def test_tensor_roots():
    # Two blocks of consecutive roots below each -u_i.
    assert tensor_roots((2, 2), (0, 2)).roots == (-1, -3)
    assert tensor_roots((3,), (0,)).roots == (-1, -2)
    with pytest.raises(ValueError):
        tensor_roots((3, 2), (0, 1))  # pinching: 0 + 3 - 1 > 1
    with pytest.raises(ValueError):
        tensor_roots((2,), (0, 1))
    with pytest.raises(ValueError):
        tensor_roots((0,), (0,))


def test_pure_zip_partition_and_warning():
    rs = RootSequence((-1, -3), scale=2)
    report = pure_zip(rs, 4)
    assert sorted(report.degrees + (1, 3)) == list(range(5))
    with pytest.warns(UserWarning):
        pure_zip(rs, 1)
    with pytest.raises(ValueError):
        pure_zip(rs, -1)
    assert pure_zip(RootSequence(()), 0).degrees == (0,)
