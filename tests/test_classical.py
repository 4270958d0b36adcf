import random
import warnings
from fractions import Fraction
from math import comb, factorial, gcd, prod

import pytest

from triplets import (
    ConsistencyError,
    RootSequence,
    betti,
    buchsbaum_rim,
    eagon_northcott,
    enumerate_triplets,
    full_table,
    pure_zip,
    schur_roots,
    supernatural_table,
    tensor_roots,
)
from triplets import classical
from triplets.classical import MAX_SIZE
from triplets.cli import main
from triplets.tables import MAX_WINDOW_WIDTHS, default_window

from oracles import (
    cells,
    cohomology_row,
    interval_triplet,
    pure_zip_ranks,
    supernatural_cells,
    supernatural_poly,
    zip_terms,
)


def _seeded_sequences(seed, count=150):
    """(RootSequence, n), n in [max(1, delta), 10], from the four families
    and from arbitrary roots in [-8, 5], which may be positive.

    The scale is delta! * k / g, with g the gcd of prod (t - r) over the
    twists -30..20.  These are more than delta + 1 consecutive twists, so g
    divides the product at every integer t and every value is an integer.
    """
    rng = random.Random(seed)
    out = []
    for k in range(count):
        family = k % 5
        if family == 0:
            roots = eagon_northcott(rng.randint(2, 8)).roots
        elif family == 1:
            roots = buchsbaum_rim(rng.randint(1, 5), rng.randint(1, 5)).roots
        elif family == 2:
            roots = schur_roots(sorted((rng.randint(-1, 4) for _ in range(rng.randint(1, 4))), reverse=True)).roots
        elif family == 3:
            dims, weights, u = [], [], rng.randint(0, 2)
            for _ in range(rng.randint(1, 3)):
                dims.append(rng.randint(1, 4))
                weights.append(u)
                u += dims[-1] - 1 + rng.randint(0, 2)
            roots = tensor_roots(dims, weights).roots
        else:
            roots = tuple(sorted(rng.sample(range(-8, 6), rng.randint(0, 5)), reverse=True))
        g = gcd(*(prod(t - r for r in roots) for t in range(-30, 21)))
        rs = RootSequence(roots, Fraction(factorial(len(roots)) * rng.randint(1, 3), g))
        out.append((rs, rng.randint(max(1, rs.delta), 10)))
    return out


def test_root_sequence_validation():
    RootSequence((3, 1, -2))
    with pytest.raises(ValueError):
        RootSequence((1, 1))
    with pytest.raises(ValueError):
        RootSequence((1, 2))
    with pytest.raises(ValueError):
        RootSequence((0,), scale=0)
    # Values are int products, so a float or Fraction root is refused up front,
    # before the order is checked: (1, 2, 0.5) is out of order too.
    for roots in [(-0.5,), (-1.5,), (Fraction(-3, 2),), (True, -1), (1, 2, 0.5)]:
        with pytest.raises(ValueError, match="roots must be integers"):
            RootSequence(roots, scale=2)
    assert RootSequence(()).delta == 0


def test_root_sequence_scale_is_an_int_or_a_fraction():
    # A float would be taken at its binary value (0.1 is not 1/10), so it is
    # refused, by _replace too; so are a bool, a string and None.
    rs = RootSequence((-1,), 2)
    assert type(rs.scale) is Fraction and rs.scale == 2
    assert RootSequence((-1,), Fraction(1, 10)).scale == Fraction(1, 10)
    assert rs._replace(scale=Fraction(1, 2)).scale == Fraction(1, 2)
    for scale in [0.1, 0.5, 2.0, True, "1", None]:
        with pytest.raises(ValueError, match="scale must be an int or a Fraction"):
            RootSequence((-1,), scale)
        with pytest.raises(ValueError, match="scale must be an int or a Fraction"):
            rs._replace(scale=scale)


def test_supernatural_poly():
    rs = RootSequence((-1, -2), scale=Fraction(2))
    p = supernatural_poly(rs)
    # (2/2!) (t+1)(t+2)
    assert [p(t) for t in (0, 1, -1, -3)] == [2, 6, 0, 2]
    # The library's int-product values agree with the polynomial.
    tab = supernatural_table(rs, window=(-8, 4))
    dims = cells(tab)
    for t in range(-6, 3):
        i = cohomology_row(rs, t)
        assert dims.get((i, i + t), 0) == abs(p(t))
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


def test_family_scale_is_least_integral():
    # The constructors pick scale delta! / g, g = gcd of prod (t - r) over
    # t = 0..delta: P is then integer-valued and its values there have gcd 1.
    assert schur_roots((1, 0)).scale == tensor_roots((2, 2), (0, 2)).scale == 2
    rng = random.Random(907)
    for k in range(400):
        if k % 4 == 0:
            rs = eagon_northcott(rng.randint(2, 10))
        elif k % 4 == 1:
            rs = buchsbaum_rim(rng.randint(1, 5), rng.randint(1, 5))
        elif k % 4 == 2:
            rs = schur_roots(sorted((rng.randint(-1, 4) for _ in range(rng.randint(1, 4))), reverse=True))
        else:
            dims, weights, u = [], [], rng.randint(0, 2)
            for _ in range(rng.randint(1, 3)):
                dims.append(rng.randint(1, 4))
                weights.append(u)
                u += dims[-1] - 1 + rng.randint(0, 2)
            rs = tensor_roots(dims, weights)
        if k % 4 < 2:
            assert rs.scale == 1
        values = [rs.scale * prod(t - r for r in rs.roots) / factorial(rs.delta) for t in range(rs.delta + 1)]
        assert all(v.denominator == 1 for v in values)
        assert gcd(*(v.numerator for v in values)) == 1
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            pure_zip(rs, rng.randint(max(1, rs.delta), 12))
        supernatural_table(rs)


def test_pure_zip_partition_and_warning():
    rs = RootSequence((-1, -3), scale=2)
    report = pure_zip(rs, 4)
    assert sorted(report.degrees + (1, 3)) == list(range(5))
    with pytest.warns(UserWarning):
        pure_zip(rs, 1)
    with pytest.raises(ValueError):
        pure_zip(rs, -1)
    assert pure_zip(RootSequence(()), 0).degrees == (0,)


_DOWN = ",".join(str(-k) for k in range(1, MAX_SIZE + 2))  # MAX_SIZE + 1 decreasing roots


@pytest.mark.parametrize("argv", [
    ["zip", "--roots=-1", "--n", str(MAX_SIZE + 1)],
    ["zip", "--roots=-1", "--n", "14400"],
    ["zip", "--roots=" + _DOWN, "--n", "2"],
    ["classical", "en", "--w", str(MAX_SIZE + 2)],
    ["classical", "en", "--w", str(10 ** 9)],
    ["classical", "en", "--w", "3", "--n", str(MAX_SIZE + 1)],
    ["classical", "br", "--r", "1", "--m", str(MAX_SIZE + 1)],
    ["classical", "schur", "--lambda", ",".join(["0"] * (MAX_SIZE + 1))],
    ["classical", "tensor", "--dims", str(10 ** 9), "--weights", "0"],
], ids=["zip_n", "zip_n_14400", "zip_roots", "en_w", "en_w_1e9", "en_n", "br_m", "schur", "tensor"])
def test_classical_size_bound(capsys, argv):
    # Refused before anything is built: exit 64 with one line naming the bound.
    assert main(argv) == 64
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: need ") and captured.err.count("\n") == 1
    assert "<= %d, got " % MAX_SIZE in captured.err


def test_classical_size_bound_is_inclusive(monkeypatch):
    assert RootSequence(tuple(range(-1, -MAX_SIZE - 1, -1))).delta == MAX_SIZE
    assert len(pure_zip(RootSequence(()), MAX_SIZE).degrees) == MAX_SIZE + 1
    with pytest.raises(ValueError, match="need n <= %d, got %d" % (MAX_SIZE, MAX_SIZE + 1)):
        pure_zip(RootSequence(()), MAX_SIZE + 1)
    # tensor_roots bounds its root count sum (w_i - 1), not sum w_i.
    monkeypatch.setattr(classical, "MAX_SIZE", 2)
    assert tensor_roots((3,), (0,)).roots == (-1, -2)
    with pytest.raises(ValueError, match=r"^need root count <= 2, got 3$"):
        tensor_roots((4,), (0,))


def test_pure_zip_refuses_a_bool_n():
    with pytest.raises(ValueError, match="need an integer n, got True"):
        pure_zip(RootSequence((-1, -2)), True)


def _wide_sequence(delta, seed):
    """Seeded RootSequence of delta roots in [-delta - 10, 10] with an
    integral scale (see _seeded_sequences)."""
    rng = random.Random(seed)
    roots = sorted(rng.sample(range(-delta - 10, 11), delta), reverse=True)
    g = gcd(*(prod(t - r for r in roots) for t in range(delta + 1)))
    return RootSequence(roots, Fraction(factorial(delta) * rng.randint(1, 3), g))


def test_supernatural_table_matches_fraction_oracle():
    rng = random.Random(8)
    cases = _seeded_sequences(81) + [(RootSequence(()), 1), (RootSequence((), 5), 3), (_wide_sequence(40, 40), 40)]
    for rs, n in cases:
        top, bottom = (rs.roots[0], rs.roots[-1]) if rs.delta else (0, 0)
        lo = rng.randint(bottom - 5, top + 5)
        windows = [
            (-rs.delta - 6, 5),  # the default window
            (lo, lo + rng.randint(0, max(rs.delta - 2, 0))),  # narrower than delta
            (bottom - 2 * rs.delta - 8, bottom - rs.delta - 1),  # every twist below the roots
            (top + rs.delta + 1, top + rs.delta + 8),  # every twist above the roots
        ]
        windows += [(r, r) for r in rs.roots]  # one column on each root
        for window in windows:
            assert cells(supernatural_table(rs, window)) == supernatural_cells(rs, window)
        assert supernatural_table(rs) == supernatural_table(rs, windows[0])
        for window in [(lo, lo - 1), (5, -rs.delta - 6)]:  # reversed: no column, refused
            assert supernatural_cells(rs, window) == {}
            with pytest.raises(ValueError, match=r"^need a window with lo <= hi, got \(%d, %d\)$" % window):
                supernatural_table(rs, window)
        report = pure_zip(rs, n)
        assert tuple(zip(report.degrees, report.ranks)) == pure_zip_ranks(rs, n)


def test_supernatural_window_bound(monkeypatch):
    # The widest window is MAX_WINDOW_WIDTHS default widths delta + 12, as full_table's is
    # with delta for n; a wider one is refused before its run of twists is started.
    rs = eagon_northcott(4)  # delta = 3
    runs = []
    monkeypatch.setattr(classical, "range", lambda *args: runs.append(args) or range(*args), raising=False)
    width = MAX_WINDOW_WIDTHS * (rs.delta + 12)
    for window in ((1 - width, 0), (-2, width - 3)):
        assert supernatural_table(rs, window).window == window
    assert runs == [(1 - width - 3, 1), (-5, width - 2)]
    for window in ((-width, 0), (-2, width - 2), (0, 10 ** 6 - 1), (-10 ** 6, -1)):
        with pytest.raises(ValueError) as exc:
            supernatural_table(rs, window)
        assert str(exc.value) == "need a window of at most %d * (n + 12) = %d columns, got %d" % (
            MAX_WINDOW_WIDTHS, width, window[1] - window[0] + 1)
    # A reversed window has no column, and render would print a malformed grid
    # for it: it is refused before any twist is evaluated too.
    for window in ((5, -5), (0, -1)):
        with pytest.raises(ValueError, match=r"^need a window with lo <= hi, got \(%d, %d\)$" % window):
            supernatural_table(rs, window)
    assert len(runs) == 2


def test_supernatural_table_refuses_a_window_of_non_ints(monkeypatch):
    # range() raised TypeError on a float end; the check is made before any twist is evaluated.
    runs = []
    monkeypatch.setattr(classical, "range", lambda *args: runs.append(args) or range(*args), raising=False)
    for window in [(-2.5, 0), (-2, 0.0), (-2, True), (False, 3)]:
        with pytest.raises(ValueError, match=r"^need a window of integers, got \(%r, %r\)$" % window):
            supernatural_table(RootSequence((-1,)), window)
    assert runs == []


def test_non_integral_values_raise():
    rs = RootSequence((-1, -2), scale=Fraction(1, 3))  # P(t) = (t + 1)(t + 2) / 6
    window = (-8, 5)
    # The first value that is not an integer, in ascending twist order t = col - i.
    first = min((col - i, v) for (i, col), v in supernatural_cells(rs, window).items() if v.denominator != 1)[1]
    with pytest.raises(ConsistencyError, match="^supernatural is not an integer: %s$" % first):
        supernatural_table(rs, window)
    first = next(v for _, v in pure_zip_ranks(rs, 4) if v.denominator != 1)
    with pytest.raises(ConsistencyError, match="^rank is not an integer: %s$" % first):
        pure_zip(rs, 4)


def test_pure_zip_matches_zip_construction():
    # The zip complex of the supernatural table on the window (-n, delta):
    # its ranks, summed over every homological position, are pure_zip's.
    for rs, n in _seeded_sequences(82):
        table = supernatural_table(rs, window=(-n, rs.delta))
        ranks = {}
        for p in range(-rs.delta - 1, n + 2):
            for twist, rank in zip_terms(table, n, p).ranks(n):
                ranks[-twist] = ranks.get(-twist, 0) + rank
        report = pure_zip(rs, n)
        assert sorted(ranks.items()) == list(zip(report.degrees, report.ranks))


def test_triplet_tables_are_supernatural_iff_no_spans():
    """A triplet's default-window table is the supernatural table of the
    negated nondegrees of B, up to one positive factor, exactly when
    s_H = s_C = 0; checked both ways over every triplet with n <= 6.  Its
    table on (-n - 10, 8) is natural, at most one nonzero row per twist,
    exactly then too."""
    matched = unmatched = 0
    for n in range(1, 7):
        for t in enumerate_triplets(n):
            rows = {}
            for j, p, _ in full_table(t, window=(-n - 10, 8)).entries:
                rows.setdefault(p - j, set()).add(j)
            assert all(len(js) == 1 for js in rows.values()) == (t.s_H == t.s_C == 0), t
            table = full_table(t)
            roots = sorted((-d for d in range(n + 1) if d not in t.B), reverse=True)
            sup = supernatural_table(RootSequence(roots, factorial(len(roots))), window=table.window)
            sup_dims = cells(sup)
            same = cells(table).keys() == sup_dims.keys()
            if same:
                ratios = {Fraction(v, sup_dims[j, p]) for j, p, v in table.entries}
                same = len(ratios) == 1 and min(ratios) > 0
            assert same == (t.s_H == t.s_C == 0), t
            matched += same
            unmatched += not same
    assert (matched, unmatched) == (246, 5353)


def test_interval_triplets_are_cm_root_sequences():
    """The interval triplet T_B of each nonempty B in [0, n], n <= 7, built
    from B with no enumeration, has s_H = s_C = 0 and is one supernatural
    sheaf (Eisenbud-Schreyer) and one pure resolution (Herzog-Kuhl): with
    roots -([0, n] minus B) at their least integral scale, its table is the
    supernatural table on two windows, and the pure zip complex has degrees
    B and the ranks of Betti(T_B)."""
    count = 0
    for n in range(1, 8):
        for mask in range(1, 2 ** (n + 1)):
            B = tuple(e for e in range(n + 1) if mask >> e & 1)
            t = interval_triplet(n, B)
            assert t.s_H == t.s_C == 0
            rs = classical._integral(tuple(-d for d in range(n + 1) if d not in B))
            for window in (default_window(n), (-n - 10, 8)):
                assert full_table(t, window=window) == supernatural_table(rs, window=window), (t, window)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                report = pure_zip(rs, n)
            assert (report.degrees, report.ranks, report.is_cm) == (B, betti(t).ranks(), True), t
            count += 1
    assert count == 501
