import json

import pytest

from triplets import (
    AlphaVector,
    ChiFamily,
    ConsistencyError,
    HyperTable,
    RootSequence,
    chi_family,
    enumerate_triplets,
    full_table,
    eagon_northcott,
    render,
    schur_roots,
    solve_alpha,
    supernatural_table,
    validate_triplet,
)
from triplets.tables import MAX_WINDOW_WIDTHS, default_window

from oracles import (
    cell_dict_full_table,
    cells,
    corner_table,
    euler_failures,
    hyper_table,
    newton_poly,
    newton_series,
    table_euler,
    tate_terms,
    zip_terms,
)

T64_RENDER = (
    "87 33  8  .  .  .  .   .   .  | 2\n"
    " .  .  .  .  .  .  .   .   .  | 1\n"
    " .  .  .  2  3  3  3   3   3  | 0\n"
    " .  .  .  .  .  1  3   6  10  | -1\n"
    " .  .  .  .  3 15 45 105 210  | -2\n"
    "------------------------------\n"
    "-5 -4 -3 -2 -1  0  1   2   3  | d\\i"
)

T42_RENDER = (
    "10  6  3  1  . . . .  .  | 2\n"
    " 1  1  1  1  1 . . .  .  | 1\n"
    " .  .  .  .  . 2 5 9 14  | 0\n"
    "-------------------------\n"
    "-5 -4 -3 -2 -1 0 1 2  3  | d\\i"
)


def test_full_table_matches_transcription_t64(t64, t64_table):
    tab = full_table(t64, window=(-5, 3))
    assert tab == t64_table
    assert render(tab) == T64_RENDER


def test_full_table_matches_transcription_t42(t42, ip1_table):
    # The n=3 example's complex has the same hypercohomology table as its
    # source complex on P^2; the transcription doubles as the golden data.
    tab = full_table(t42, window=(-5, 3))
    assert tab == ip1_table
    assert render(tab) == T42_RENDER


def test_hypertable_accessors(t64_table):
    dims = cells(t64_table)
    assert dims[2, -4] == 33
    assert (1, 0) not in dims
    assert dims[0, -1] == 3  # row 0, twist -1 -> column -1
    assert dims[2, -5] == 87  # row 2, twist -7 -> column -5
    assert t64_table.rows() == [2, 0, -1, -2]


def test_table_json_roundtrip(t64_table):
    d = json.loads(t64_table.to_json())
    again = hyper_table(d["window"], {(e["row"], e["col"]): e["dim"] for e in d["entries"]})
    assert again == t64_table


def _old_to_json(table):
    return json.dumps(
        {"window": list(table.window), "entries": [{"row": j, "col": p, "dim": v} for j, p, v in table.entries]}
    )


def test_table_json_matches_json_dumps(t64, t42, t64_table, ip1_table):
    tables = [t64_table, ip1_table, full_table(t64, window=(-5, 3)), full_table(t42, window=(-5, 3))]
    tables += [full_table(t) for n in range(1, 6) for t in enumerate_triplets(n)]
    roots = [RootSequence(()), RootSequence((3, 1, -2), scale=6), RootSequence((0, -2, -3), scale=3)]
    roots += [eagon_northcott(w) for w in range(2, 6)] + [RootSequence(schur_roots((1, 0)).roots, scale=2)]
    tables += [supernatural_table(rs) for rs in roots] + [supernatural_table(roots[1], window=(-2, 2))]
    tables.append(hyper_table((0, 2), {}))
    for tab in tables:
        assert tab.to_json() == _old_to_json(tab)


def test_render_empty():
    assert render(hyper_table((0, 2), {})) == "-------\n0 1 2  | d\\i"


def test_render_refuses_a_reversed_window():
    # A hand-built table with no column would print a malformed "-\n  | d\i".
    for window in [(5, -5), (0, -1)]:
        with pytest.raises(ValueError, match=r"need a window with lo <= hi, got \(%d, %d\)" % window):
            render(hyper_table(window, {}))
    assert render(hyper_table((0, 0), {})) == "---\n0  | d\\i"


def test_to_json_refuses_a_reversed_window():
    # Only render checked the window: to_json printed (5, -5) with an entry outside it.
    for window in [(5, -5), (0, -1)]:
        with pytest.raises(ValueError, match=r"^need a window with lo <= hi, got \(%d, %d\)$" % window):
            HyperTable(window, ((0, 0, 1),)).to_json()
    assert HyperTable((0, 0), ((0, 0, 1),)).to_json() == '{"window": [0, 0], "entries": [{"row": 0, "col": 0, "dim": 1}]}'


NON_INT_WINDOWS = [(0.5, 1), (0, 1.0), (0, True), (False, 1)]


def test_render_refuses_a_window_of_non_ints():
    # range() raised TypeError on a float end.
    for window in NON_INT_WINDOWS:
        with pytest.raises(ValueError, match=r"^need a window of integers, got \(%r, %r\)$" % window):
            render(HyperTable(window, ()))


def test_to_json_refuses_a_window_of_non_ints():
    # %d printed (0.5, 1) as [0, 1].
    for window in NON_INT_WINDOWS:
        with pytest.raises(ValueError, match=r"^need a window of integers, got \(%r, %r\)$" % window):
            HyperTable(window, ((0, 0, 1),)).to_json()


def test_render_refuses_an_entry_outside_the_window():
    # render dropped such an entry and printed an all-dot row, while to_json prints it.
    with pytest.raises(ValueError, match=r"^entry in column 5, outside the window \(0, 1\)$"):
        render(HyperTable((0, 1), ((0, 5, 1),)))
    with pytest.raises(ValueError, match=r"^entry in column -1, outside the window \(0, 1\)$"):
        render(HyperTable((0, 1), ((0, -1, 1), (0, 5, 1))))
    assert HyperTable((0, 1), ((0, 5, 1),)).to_json() == '{"window": [0, 1], "entries": [{"row": 0, "col": 5, "dim": 1}]}'


def test_window_validation(t64):
    with pytest.raises(ValueError):
        full_table(t64, window=(-1, 3))  # must contain [-|B|+1, 0]
    with pytest.raises(ValueError):
        full_table(t64, window=(-5, -1))
    assert default_window(4) == (-10, 5)


def test_euler_method(t64, t64_table):
    p = newton_poly(newton_series(solve_alpha(t64).values))
    for twist in range(-7, 2):
        assert table_euler(t64_table, twist) == p(twist)


def _bump(table, j, p):
    dims = cells(table)
    dims[j, p] = dims.get((j, p), 0) + 1
    return hyper_table(table.window, dims)


def test_euler_check_names_the_tampered_twist():
    # +1 on any cell fails the Euler oracle iff its diagonal is checked: the
    # twists whose diagonal over rows -s_H..n+1-|B|+s_C lies inside the window.
    for n in range(1, 4):
        for t in enumerate_triplets(n):
            a = solve_alpha(t)
            tab = full_table(t, a)
            assert euler_failures(tab, t, a) == []
            (lo, hi), row_lo, row_hi = tab.window, -t.s_H, n + 1 - len(t.B) + t.s_C
            for j, p, _ in tab.entries:
                twist = p - j
                checked = lo - row_lo <= twist <= hi - row_hi
                assert euler_failures(_bump(tab, j, p), t, a) == ([twist] if checked else [])


def test_euler_check_reaches_twist_n_in_sweep_window(t64, t42):
    # The criterion-6 window puts every diagonal over twists [-2n, n] inside
    # it; the top twist n is checked, n + 1 is not.
    triplets = [t64, t42] + list(enumerate_triplets(5))[::199]
    triplets += list(enumerate_triplets(6))[::997]
    for t in triplets:
        a = solve_alpha(t)
        row_lo = -t.s_H
        row_hi = max([t.n + 1 - len(t.B) + t.s_C] + [d - q for q, d in enumerate(t.B)])
        tab = full_table(t, a, window=(-2 * t.n + row_lo, t.n + row_hi))
        assert euler_failures(_bump(tab, 0, t.n), t, a) == [t.n]
        assert euler_failures(_bump(tab, row_lo, row_lo - 2 * t.n), t, a) == [-2 * t.n]
        assert euler_failures(_bump(tab, row_lo, row_lo + t.n + 1), t, a) == []


def test_corner_goldens(t64, t42):
    assert corner_table(t64).entries == ((0, -2, 2), (0, -1, 3), (0, 0, 3))
    assert corner_table(t42).entries == ((0, 0, 2), (1, -2, 1), (1, -1, 1))


def test_corner_single_degree():
    t = validate_triplet(3, [0], [0, 1, 2, 3], [3])
    assert corner_table(t).entries == ((0, 0, 1),)


def test_corner_purity():
    # One entry per column for every solvable triplet.
    for n in range(1, 5):
        for t in enumerate_triplets(n):
            tab = corner_table(t)
            cols = [p for _, p, _ in tab.entries]
            assert sorted(cols) == list(range(-len(t.B) + 1, 1))


def test_zip_terms_t42(ip1_table):
    assert zip_terms(ip1_table, 3, 0).terms == ((0, 0, 2),)
    assert zip_terms(ip1_table, 3, 1).terms == ((2, -2, 1),)
    assert zip_terms(ip1_table, 3, 2).terms == ((3, -3, 1),)
    # Rank expansion: S(-3) -> S(-2)^3 -> S^2.
    assert zip_terms(ip1_table, 3, 0).ranks(3) == ((0, 2),)
    assert zip_terms(ip1_table, 3, 1).ranks(3) == ((-2, 3),)
    assert zip_terms(ip1_table, 3, 2).ranks(3) == ((-3, 1),)


def test_zip_terms_dual_t42(ip1_dual_table):
    # S(-3)^2 -> S(-1)^3 -> S.
    assert zip_terms(ip1_dual_table, 3, 0).ranks(3) == ((0, 1),)
    assert zip_terms(ip1_dual_table, 3, 1).ranks(3) == ((-1, 3),)
    assert zip_terms(ip1_dual_table, 3, 2).ranks(3) == ((-3, 2),)


def test_zip_terms_single_cell():
    h = hyper_table((-3, 3), {(0, 0): 1})
    assert zip_terms(h, 3, 0).terms == ((0, 0, 1),)
    for p in (-2, -1, 1, 2, 3):
        assert zip_terms(h, 3, p).terms == ()


def test_tate_terms(ip1_table, t64, t64_table):
    assert tate_terms(ip1_table, -2) == ((4, 1), (3, 1))
    assert tate_terms(t64_table, -3) == ((5, 8),)


def test_dual_table_role_exchange(t64):
    # The chi/psi families of the dual triplet are the psi/chi families of
    # the original, so its table is the role-exchanged one.
    a = solve_alpha(t64)
    fam = chi_family(t64, a)
    td = t64.dual()
    fam_d = chi_family(td, solve_alpha(td))
    assert tuple(map(newton_poly, fam_d.chi_series)) == tuple(map(newton_poly, fam.psi_series))
    assert tuple(map(newton_poly, fam_d.psi_series)) == tuple(map(newton_poly, fam.chi_series))


def test_full_table_region_separation():
    # Every entry lands in exactly one region: corner (twists in [-n, 0],
    # exactly the pure corner), homology rows (j <= 0, positive twists), dual
    # rows (twists <= -n-1).
    for n in range(1, 7):
        for t in enumerate_triplets(n):
            a = solve_alpha(t)
            tab = full_table(t, a)
            corner = {}
            for j, p, v in tab.entries:
                twist = p - j
                assert v > 0
                if -n <= twist <= 0:
                    corner[j, p] = v
                else:
                    assert (j <= 0 and twist >= 1) or twist <= -n - 1
            assert corner == cells(corner_table(t, a))


def test_full_table_matches_cell_dict_oracle(t64):
    # Three windows per triplet: the default one, the narrowest legal one, and
    # one whose left edge cuts every dual row (they reach column -n-6 by default).
    for n in range(1, 7):
        for t in enumerate_triplets(n):
            a = solve_alpha(t)
            fam = chi_family(t, a)
            for window in (default_window(n), (-len(t.B) + 1, 0), (-n - 2, 2)):
                assert full_table(t, a, window, fam) == cell_dict_full_table(t, a, window, fam)
    # A hand-built alpha with a zero corner value: the zero is not an entry.
    zero = AlphaVector(4, (0, 1, 2), (3, 0, 2, 0, 0))
    fam = chi_family(t64, solve_alpha(t64))
    assert full_table(t64, zero, fam=fam) == cell_dict_full_table(t64, zero, fam=fam)
    assert (0, -1) not in cells(full_table(t64, zero, fam=fam))


def _negative_entry(t, alpha, fam, message):
    # The first negative cell in assembly order is named, as the oracle names it.
    for build in (full_table, cell_dict_full_table):
        with pytest.raises(ConsistencyError) as exc:
            build(t, alpha, fam=fam)
        assert str(exc.value) == message


def test_negative_corner_entry(t64):
    a = solve_alpha(t64)
    assert a.values == (3, -3, 2, 0, 0)
    _negative_entry(t64, AlphaVector(4, (0, 1, 2), (3, 3, 2, 0, 0)), chi_family(t64, a),
                    "negative corner entry at (0, -1)")


def test_negative_homology_entry(t64):
    # Row -1 holds chi_1(p + 1), and chi_1(d) = d - C(d + 1, 2) is 0 at d = 1, -1 at d = 2.
    fam = ChiFamily(chi_series=((1,), (0, 1, -1)), psi_series=(), flags=())
    _negative_entry(t64, solve_alpha(t64), fam, "negative homology entry at (-1, 1)")


def test_negative_dual_entry(t64):
    # Row 3 holds psi_1(-1 - p) from column -2 down, and psi_1(d) = 2 - d is -1 at d = 3.
    fam = ChiFamily(chi_series=(), psi_series=((1,), (2, -1)), flags=())
    _negative_entry(t64, solve_alpha(t64), fam, "negative dual entry at (3, -4)")


def test_window_containment_is_checked_before_the_solve():
    # n = 101 is past the solve bound, so only a check made before the solve reaches its own message.
    # A reversed window gets the same message.
    t = validate_triplet(101, range(102), [0], [0])
    for window in ((0, 1), (5, -5)):
        with pytest.raises(ValueError, match=r"^window must contain \[-101, 0\]$"):
            full_table(t, window=window)


def test_full_table_refuses_a_window_of_non_ints():
    # (-2, True) came back as the table's window, and (-2.5, 0) raised TypeError in the
    # evaluation; n = 101 is past the solve bound, so the check is made before the solve.
    t = validate_triplet(101, range(102), [0], [0])
    for window in [(-101, True), (-101.0, 0), (-101, 0.5), (True, 0)]:
        with pytest.raises(ValueError, match=r"^need a window of integers, got \(%r, %r\)$" % window):
            full_table(t, window=window)


def test_window_bound(t64):
    # The widest window is MAX_WINDOW_WIDTHS default widths n + 12, on either side of column 0.
    width = MAX_WINDOW_WIDTHS * (t64.n + 12)
    for window in ((-width + 1, 0), (-2, width - 3)):
        assert full_table(t64, window=window).window == window
    for window in ((-width, 0), (-2, width - 2)):
        with pytest.raises(ValueError) as exc:
            full_table(t64, window=window)
        assert str(exc.value) == "need a window of at most %d * (n + 12) = %d columns, got %d" % (
            MAX_WINDOW_WIDTHS, width, width + 1)
