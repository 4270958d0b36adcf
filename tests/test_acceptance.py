"""Acceptance suite: the seven top-level criteria, one test (and one printed
pass/fail line) each.  Result lines are collected in RESULT_LINES and echoed
by the pytest_terminal_summary hook in conftest.py, so they always appear in
the run's final output.
"""

import functools
import hashlib
import random
import time
from fractions import Fraction
from math import comb

from triplets import (
    DegenerateSystem,
    betti,
    buchsbaum_rim,
    chi_family,
    eagon_northcott,
    enumerate_triplets,
    full_table,
    nullspace,
    pure_zip,
    solve_alpha,
    triplet_betti,
    validate_triplet,
)
from triplets.linalg import newton_values, row_echelon
from triplets.squarefree import rotated_betti_via_strands

from oracles import (
    RatPoly,
    _naive_nullspace,
    alternating_sum,
    cells,
    euler_failures,
    from_basis,
    in_basis,
    int_rows,
    newton_poly,
    newton_series,
    zip_terms,
)

RESULT_LINES = []

# Pinned sha256 of the n <= 6 outputs, in enumeration order: one census
# record (triplet, alpha, Betti diagram, default-window table) per line, and
# one strand-assembled rotated Betti diagram per line.  The benchmark checks
# the same digests.
CENSUS_SHA256 = "e92d79c19d9901d5c0e5ccc44d99a8aa6803faa32722bf6740c2542dd09676c8"
STRANDS_SHA256 = "ac1707febc4bd2530b05c5071cafb516bf435c68059b63dd99cf443a365365ce"


def census_record(t, alpha, diagram, table):
    return '{"triplet": %s, "alpha": %s, "betti": %s, "table": %s}\n' % (
        t.to_json(), alpha.to_json(), diagram.to_json(), table.to_json())


def _report(num, desc):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                RESULT_LINES.append("CRITERION %d: FAIL - %s" % (num, desc))
                raise
            RESULT_LINES.append("CRITERION %d: PASS - %s" % (num, desc))
            return out

        return wrapper

    return decorate


@_report(1, "n=4 example end-to-end: alpha and all three Betti diagrams")
def test_criterion_1_end_to_end():
    t = validate_triplet(4, [0, 1, 2], [0, 2, 4], [2, 3, 4])
    assert solve_alpha(t).on_support() == (3, -3, 2)
    d0, d1, d2 = triplet_betti(t)
    assert d0.entries == ((0, 0, 3), (1, 1, 12), (2, 2, 12))
    assert d1.entries == ((0, 0, 3), (1, 2, 6), (2, 4, 3))
    assert d2.entries == ((0, 2, 12), (1, 3, 12), (2, 4, 3))


@_report(2, "n=4 example hypercohomology table cell-for-cell on columns -5..3")
def test_criterion_2_table(t64, t64_table):
    tab = full_table(t64, window=(-5, 3))
    assert tab == t64_table
    assert tab.rows() == [2, 0, -1, -2]
    dims = cells(tab)
    assert [dims.get((2, p), 0) for p in (-5, -4, -3)] == [87, 33, 8]
    assert [dims.get((0, p), 0) for p in range(-2, 4)] == [2, 3, 3, 3, 3, 3]
    assert [dims.get((-1, p), 0) for p in range(0, 4)] == [1, 3, 6, 10]
    assert [dims.get((-2, p), 0) for p in range(-1, 4)] == [3, 15, 45, 105, 210]


@_report(3, "n=3 example: displayed complex triplet and its rotation")
def test_criterion_3_triplet(t42, t44):
    d0, d1, d2 = triplet_betti(t42)
    assert d0.entries == ((0, 0, 2), (1, 2, 3), (2, 3, 1))  # S^2 <- S(-2)^3 <- S(-3)
    assert d1.entries == ((0, 1, 3), (1, 2, 6), (2, 3, 2))  # S(-1)^3 <- S(-2)^6 <- S(-3)^2
    assert d2.entries == ((0, 0, 1), (1, 2, 3))  # S <- S(-2)^3
    assert t42.rotate() == t44


@_report(4, "zip terms of the transcribed n=3 tables reproduce both complexes")
def test_criterion_4_zip(ip1_table, ip1_dual_table):
    # F: S(-3) -> S(-2)^3 -> S^2
    assert [zip_terms(ip1_table, 3, p).ranks(3) for p in (0, 1, 2)] == [
        ((0, 2),),
        ((-2, 3),),
        ((-3, 1),),
    ]
    # dual: S(-3)^2 -> S(-1)^3 -> S
    assert [zip_terms(ip1_dual_table, 3, p).ranks(3) for p in (0, 1, 2)] == [
        ((0, 1),),
        ((-1, 3),),
        ((-3, 2),),
    ]


@_report(5, "classical complexes: closed-form ranks and resolution flags")
def test_criterion_5_classical():
    import warnings

    for n in range(2, 9):
        for w in range(2, n + 1):
            report = pure_zip(eagon_northcott(w), n)
            assert report.degrees == (0,) + tuple(range(w, n + 1))
            m = w - 1
            for d, rank in zip(report.degrees, report.ranks):
                expected = 1 if d == 0 else comb(n, m + 1 + (d - w)) * comb(m + (d - w), d - w)
                assert rank == expected
    for r in range(1, 5):
        for m in range(1, 5):
            rs = buchsbaum_rim(r, m)
            for n in range(m, 9):
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")
                    report = pure_zip(rs, n)
                assert report.is_resolution
                assert report.is_cm == (n >= r + m)


@_report(6, "property sweep over every triplet with n <= 6")
def test_criterion_6_property_sweep():
    started = time.perf_counter()
    triplets = [t for n in range(1, 7) for t in enumerate_triplets(n)]
    assert len(triplets) == 5599  # frozen census: 3+9+33+150+795+4609

    degeneracies = []
    alphas = {}
    for t in triplets:
        try:
            alphas[t] = solve_alpha(t)
        except DegenerateSystem as exc:
            degeneracies.append((t, exc))

    positivity_flags = []
    diagrams = {}
    fams = {}
    records = hashlib.sha256()
    for t, a in alphas.items():
        r1 = t.rotate()
        d = t.dual()
        assert r1.rotate().rotate() == t
        assert d.dual() == t
        assert r1.dual() == d.rotate().rotate()
        p = newton_poly(newton_series(a.values))
        assert p.degree == t.n - t.b

        fam = fams[t] = chi_family(t, a)
        assert alternating_sum(fam.chi_series) == p

        diagram = betti(t, a)
        diagrams[t] = diagram
        assert all(rank > 0 for _, _, rank in diagram.entries)

        # Table window wide enough that every diagonal over twists
        # [-2n, n] lies inside it; the Euler oracle checks each of them.
        min_row = -t.s_H
        max_row = max([t.n + 1 - len(t.B) + t.s_C] + [d - q for q, d in enumerate(t.B)])
        tab = full_table(t, a, window=(-2 * t.n + min_row, t.n + max_row), fam=fam)
        rows = tab.rows() or [0]
        assert tab.window[0] - min(rows) <= -2 * t.n
        assert tab.window[1] - max(rows) >= t.n
        assert euler_failures(tab, t, a) == []
        table = full_table(t, a, fam=fam)
        records.update(census_record(t, a, diagram, table).encode())
        # The zip of the table gives back the pure complex: at position q the
        # one term S(-d_q)^beta_q, and nothing at any other position in the window.
        zipped = {q: ((-d, rank),) for q, d, rank in diagram.entries}
        lo, hi = table.window
        for p in range(-hi, -lo + 1):
            assert zip_terms(table, t.n, p).ranks(t.n) == zipped.get(p, ()), (t, p)

        # Soft positivity check on the homology polynomials.
        for q, chi in enumerate(fam.chi_series):
            if chi and any(v <= 0 for v in newton_values(chi, 1, 21)):
                positivity_flags.append((t, q))

    strand_lines = hashlib.sha256()
    for t, a in alphas.items():
        via_strands = rotated_betti_via_strands(t, a, fam=fams[t])
        strand_lines.update((via_strands.to_json() + "\n").encode())
        rot = t.rotate()
        if rot in diagrams:
            assert via_strands.entries == diagrams[rot].entries
    # Output fingerprint: a refactor may not change any printed number.
    assert records.hexdigest() == CENSUS_SHA256
    assert strand_lines.hexdigest() == STRANDS_SHA256

    elapsed = time.perf_counter() - started
    RESULT_LINES.append(
        "  [sweep report] %d triplets, %d degeneracies, %d chi-positivity flags, %.2f s"
        % (len(triplets), len(degeneracies), len(positivity_flags), elapsed)
    )
    # Degeneracies would be counterexamples to the uniqueness conjecture:
    # report them, never fail on them.
    for t, exc in degeneracies:
        RESULT_LINES.append("  [degenerate] %r: %s" % (t, exc))


@_report(7, "exact arithmetic on 10^3 random instances vs naive oracles")
def test_criterion_7_exact_regression():
    rng = random.Random(20240817)
    for _ in range(1000):
        n = rng.randrange(0, 8)
        p = RatPoly(
            [Fraction(rng.randrange(-40, 41), rng.randrange(1, 12)) for _ in range(rng.randrange(0, n + 2))]
        )
        assert from_basis(in_basis(p, n), n) == p

    for _ in range(1000):
        nrows = rng.randrange(1, 6)
        ncols = rng.randrange(1, 6)
        rows = [[Fraction(rng.randrange(-5, 6), rng.randrange(1, 4)) for _ in range(ncols)] for _ in range(nrows)]
        basis = nullspace(int_rows(rows), ncols)
        oracle_basis, rank = _naive_nullspace(rows, ncols)
        assert len(basis) == len(oracle_basis) == ncols - rank
        for v in basis:
            assert all(sum(a * b for a, b in zip(row, v)) == 0 for row in rows)
        if basis:
            stacked = int_rows(list(basis) + list(oracle_basis))
            assert len(row_echelon(stacked, ncols)[1]) == len(basis)
