import pytest

from triplets import (
    HyperTable,
    betti,
    chi_family,
    enumerate_triplets,
    full_table,
    render,
    solve_alpha,
    tate_terms,
    validate_triplet,
    zip_terms,
)
from triplets.tables import default_window

from oracles import corner_table, newton_poly

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
    assert tab.render() == T64_RENDER


def test_full_table_matches_transcription_t42(t42, ip1_table):
    # The n=3 example's complex has the same hypercohomology table as its
    # source complex on P^2; the transcription doubles as the golden data.
    tab = full_table(t42, window=(-5, 3))
    assert tab == ip1_table
    assert render(tab) == T42_RENDER


def test_hypertable_accessors(t64_table):
    assert t64_table.cell(2, -4) == 33
    assert t64_table.cell(1, 0) == 0
    assert t64_table.dim(0, -1) == 3  # row 0, twist -1 -> column -1
    assert t64_table.dim(2, -7) == 87  # row 2, twist -7 -> column -5
    assert t64_table.rows() == [2, 0, -1, -2]


def test_table_json_roundtrip(t64_table):
    again = HyperTable.from_json(t64_table.to_json())
    assert again == t64_table


def test_render_empty():
    assert HyperTable.build((0, 2), {}).render() == "-------\n0 1 2  | d\\i"


def test_window_validation(t64):
    with pytest.raises(ValueError):
        full_table(t64, window=(-1, 3))  # must contain [-|B|+1, 0]
    with pytest.raises(ValueError):
        full_table(t64, window=(-5, -1))
    assert default_window(4) == (-10, 5)


def test_euler_method(t64, t64_table):
    p = newton_poly(solve_alpha(t64).series)
    for twist in range(-7, 2):
        assert t64_table.euler(twist) == p(twist)


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
    h = HyperTable.build((-3, 3), {(0, 0): 1})
    assert zip_terms(h, 3, 0).terms == ((0, 0, 1),)
    for p in (-2, -1, 1, 2, 3):
        assert zip_terms(h, 3, p).terms == ()


def test_zip_accepts_plain_function():
    fn = lambda j, t: 1 if (j, t) == (0, 0) else 0
    assert zip_terms(fn, 3, 0).terms == ((0, 0, 1),)


def test_zip_of_corner_reproduces_betti():
    for n in range(1, 5):
        for t in enumerate_triplets(n):
            a = solve_alpha(t)
            diagram = betti(t, a)
            tab = corner_table(t, a)
            for q, d, rank in diagram.entries:
                assert zip_terms(tab, n, q).ranks(n) == ((-d, rank),)


def test_tate_terms(ip1_table, t64, t64_table):
    assert tate_terms(ip1_table, -2) == ((4, 1), (3, 1))
    assert tate_terms(t64_table, -3) == ((5, 8),)
    assert tate_terms(ip1_table, -2, rows=(2, 1, 0)) == ((4, 1), (3, 1))
    with pytest.raises(ValueError):
        tate_terms(lambda j, p: 0, -2)  # rows required for a plain function


def test_dual_table_role_exchange(t64):
    # The chi/psi families of the dual triplet are the psi/chi families of
    # the original, so its table is the role-exchanged one.
    a = solve_alpha(t64)
    fam = chi_family(t64, a)
    td = t64.dual()
    fam_d = chi_family(td, solve_alpha(td))
    assert tuple(map(newton_poly, fam_d.chi_series)) == tuple(map(newton_poly, fam.psi_series))
    assert tuple(map(newton_poly, fam_d.psi_series)) == tuple(map(newton_poly, fam.chi_series))


def test_full_table_region_separation(t64):
    # Every entry lands in exactly one region: corner (twists in [-n, 0]),
    # homology rows (j <= 0, positive twists), dual rows (twists <= -n-1).
    tab = full_table(t64)
    for j, p, v in tab.entries:
        twist = p - j
        assert v > 0
        assert (-t64.n <= twist <= 0) or (j <= 0 and twist >= 1) or (twist <= -t64.n - 1)
