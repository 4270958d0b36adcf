import json
import random

import pytest

from triplets import (
    AlphaVector,
    BettiDiagram,
    ConsistencyError,
    HomologyTriplet,
    Overdetermined,
    Underdetermined,
    betti,
    build_equations,
    chi_family,
    enumerate_triplets,
    full_table,
    solve_alpha,
    validate_triplet,
)
from triplets.linalg import newton_series_pair

from oracles import (
    RatPoly,
    alternating_sum,
    binom_poly,
    dual_alpha,
    dual_identity_holds,
    interval_alpha,
    interval_triplet,
    newton_poly,
    newton_series,
    nullity_certificate,
    rank_mod_p,
)


def test_build_equations_goldens(t64, t42):
    # Nondegrees of H in [0,4] are {1,3}; C = [2,4] contributes nothing.
    assert build_equations(t64) == ((1, 1, 0), (1, 3, 3))
    # Shared row r=3 (kept in H-form on columns B=(0,2,3)) plus the C-row r=1.
    assert build_equations(t42) == ((1, 3, 1), (0, 1, 1))


def test_build_equations_interval_case():
    # H and C both full intervals: only the b shared degree-drop rows remain.
    t = validate_triplet(3, [0, 1], [0, 1, 2], [2])
    assert t.s_H == t.s_C == 0 and t.b == 1
    rows = build_equations(t)
    assert len(rows) == len(t.B) - 1 == 1
    assert rows == ((1, 3),)


def test_build_equations_row_count():
    for n in range(1, 7):
        for t in enumerate_triplets(n):
            assert len(build_equations(t)) == len(t.B) - 1


def test_every_solve_is_certified_up_to_n_6():
    # Uniqueness (nullity 1) checked without trusting the Bareiss solve: alpha
    # is an exact kernel vector and the rank mod a prime is |B| - 1, for all
    # 5599 triplets with n <= 6.  A failure is a counterexample, reported here.
    certified, failures = 0, []
    for n in range(1, 7):
        for t in enumerate_triplets(n):
            try:
                nullity_certificate(build_equations(t), solve_alpha(t).on_support())
                certified += 1
            except ConsistencyError as exc:
                failures.append((t, str(exc)))
    assert failures == []
    assert certified == 5599


def test_nullity_certificate_controls(t64):
    rows, v = build_equations(t64), solve_alpha(t64).on_support()
    assert nullity_certificate(rows, v) == 2**61 - 1
    # One entry off by one is no kernel vector; a dropped row leaves nullity 2.
    with pytest.raises(ConsistencyError, match="kernel vector"):
        nullity_certificate(rows, (v[0] + 1, *v[1:]))
    assert rank_mod_p(rows[1:], len(v)) == len(v) - 2
    with pytest.raises(ConsistencyError, match="dimension 2"):
        nullity_certificate(rows[1:], v)
    # A rank lost mod 2^61 - 1 is found mod 2^31 - 1; one lost mod both, over Q.
    assert nullity_certificate([[2**61 - 1, 0]], (0, 1)) == 2**31 - 1
    assert nullity_certificate([[(2**61 - 1) * (2**31 - 1), 0]], (0, 1)) == "Q"


def test_solve_alpha_goldens(t64, t42, t44):
    assert solve_alpha(t64).on_support() == (3, -3, 2)
    assert solve_alpha(t42).on_support() == (2, -1, 1)
    assert solve_alpha(t44).on_support() == (1, -2, 2)


def test_zero_leading_alpha_is_a_consistency_error(t64, monkeypatch):
    # A nullspace vector with alpha_{d_0} = 0 has no sign to normalise by.
    monkeypatch.setattr("triplets.solver.nullspace", lambda rows, ncols: [(0, -1, 1)])
    with pytest.raises(ConsistencyError, match="sign convention violated at q=0"):
        solve_alpha(t64)


def test_counterexamples_are_reported(t64, monkeypatch):
    # A nullity other than 1, or an alpha whose Hilbert polynomial drops below
    # degree n - b, raises a typed error that names the triplet.
    monkeypatch.setattr("triplets.solver.build_equations", lambda t: build_equations(t)[:-1])
    with pytest.raises(Underdetermined) as err:
        solve_alpha(t64)
    assert err.value.dim == 2 and err.value.triplet == t64
    assert str(err.value) == "solution space has dimension 2: %r" % (t64,)
    monkeypatch.setattr("triplets.solver.build_equations", lambda t: (*build_equations(t), (1, 0, 0)))
    with pytest.raises(Overdetermined) as err:
        solve_alpha(t64)
    assert err.value.triplet == t64 and not hasattr(err.value, "dim")
    assert str(err.value) == "equation system has no nonzero solution: %r" % (t64,)
    monkeypatch.undo()
    # (2, -2, 1) has the right signs, but A_4 = 2 - 2 * 4 + 6 = 0.
    monkeypatch.setattr("triplets.solver.nullspace", lambda rows, ncols: [(2, -2, 1)])
    with pytest.raises(ConsistencyError) as err:
        solve_alpha(t64)
    assert str(err.value) == "Hilbert polynomial degree != n - b for %r" % (t64,)


def test_alpha_vector_shape(t64):
    a = solve_alpha(t64)
    assert a.n == 4 and a.support == (0, 1, 2)
    assert a.values == (3, -3, 2, 0, 0)
    assert a.values[1] == -3
    assert newton_poly(newton_series(a.values)).degree == t64.n - t64.b
    assert json.loads(a.to_json()) == {"n": 4, "support": [0, 1, 2], "alpha": [3, -3, 2]}


def test_sign_and_degree_convention():
    for n in range(1, 5):
        for t in enumerate_triplets(n):
            a = solve_alpha(t)
            assert a.values[t.B[0]] > 0
            for q, d in enumerate(t.B):
                assert (-1) ** q * a.values[d] > 0
            assert newton_poly(newton_series(a.values)).degree == t.n - t.b


def test_dual_alpha_golden(t64):
    a = solve_alpha(t64)
    ad = dual_alpha(a)
    assert ad.support == (2, 3, 4)
    assert ad.on_support() == (2, -3, 3)
    # Involution, and agreement with solving the dual triplet directly.
    assert dual_alpha(ad).values == a.values
    assert solve_alpha(t64.dual()).values == ad.values


def test_dual_alpha_matches_dual_solve():
    for n in range(1, 5):
        for t in enumerate_triplets(n):
            assert solve_alpha(t.dual()).values == dual_alpha(solve_alpha(t)).values


def test_chi_family_goldens(t64):
    a = solve_alpha(t64)
    fam = chi_family(t64, a)
    chis = tuple(map(newton_poly, fam.chi_series))
    psis = tuple(map(newton_poly, fam.psi_series))
    assert chis == (RatPoly([3]), binom_poly(1, 2), binom_poly(3, 4) * 3)
    assert len(psis) == 1
    assert [psis[0](k) for k in (1, 2, 3)] == [8, 33, 87]
    assert fam.flags == ()


def test_chi_family_takes_only_values_from_alpha(t64):
    # A support that disagrees with B changes nothing: B is read from t.
    a = solve_alpha(t64)
    assert chi_family(t64, a._replace(support=(0, 1))) == chi_family(t64, a)


def test_chi_family_refuses_values_of_the_wrong_length(t64):
    a = solve_alpha(t64)
    for values in (a.values[:-1], a.values + (0,)):  # n and n + 2 values
        with pytest.raises(ValueError, match=r"alpha has \d values, need n \+ 1 = 5"):
            chi_family(t64, a._replace(values=values))


def test_betti_and_full_table_refuse_values_of_the_wrong_length(t64):
    # Both took n or n + 2 values, and raised IndexError on values that stop before max B.
    a = solve_alpha(t64)
    fam = chi_family(t64, a)
    for values in (a.values[:-1], a.values + (0,), a.values[:2]):
        for build in (betti, lambda t, alpha: full_table(t, alpha, fam=fam)):
            with pytest.raises(ValueError, match=r"^alpha has \d values, need n \+ 1 = 5$"):
                build(t64, a._replace(values=values))


def test_chi_single_strand():
    # H = [h, n-b] in one strand: chi_0 is the Hilbert polynomial itself.
    t = validate_triplet(3, [0], [0, 1, 2, 3], [3])
    a = solve_alpha(t)
    assert a.on_support() == (1,)
    fam = chi_family(t, a)
    assert len(fam.chi_series) == 1
    assert newton_poly(fam.chi_series[0]) == newton_poly(newton_series(a.values))


def test_chi_euler_sums():
    # The family and dual identities, which chi_family does not check at run
    # time: each family sums to its Hilbert polynomial, and P*(d) = +-P(-n-d).
    for n in range(1, 7):
        for t in enumerate_triplets(n):
            a = solve_alpha(t)
            ad = dual_alpha(a)
            fam = chi_family(t, a)
            assert alternating_sum(fam.chi_series) == newton_poly(newton_series(a.values))
            assert alternating_sum(fam.psi_series) == newton_poly(newton_series(ad.values))
            assert dual_identity_holds(t, a, ad)
            assert len(fam.chi_series) == t.s_H + 1
            assert len(fam.psi_series) == t.s_C + 1


def test_betti_goldens(t64):
    a = solve_alpha(t64)
    assert betti(t64, a).entries == ((0, 0, 3), (1, 1, 12), (2, 2, 12))
    r = t64.rotate()
    assert betti(r, solve_alpha(r)).entries == ((0, 0, 3), (1, 2, 6), (2, 4, 3))
    rr = r.rotate()
    assert betti(rr, solve_alpha(rr)).entries == ((0, 2, 12), (1, 3, 12), (2, 4, 3))


def test_betti_diagram_accessors(t64):
    d = betti(t64)
    assert d.twists() == (0, 1, 2)
    assert d.ranks() == (3, 12, 12)
    assert d.entries == ((0, 0, 3), (1, 1, 12), (2, 2, 12))
    assert json.loads(d.to_json()) == {"twists": [0, 1, 2], "ranks": [3, 12, 12]}
    assert d.render() == "     0  1  2\n 0:  3 12 12"


def test_betti_render_hand_built():
    # Hand-built diagrams, pinned at their bytes: slope and column labels
    # wider than every rank, a rank wider than every label, and no entry.
    assert BettiDiagram(()).render() == "(empty diagram)"
    assert BettiDiagram(((0, -3, 12345), (2, 5, 1))).render() == (
        "           0     1     2\n"
        "   -3: 12345     .     .\n"
        "   -2:     .     .     .\n"
        "   -1:     .     .     .\n"
        "    0:     .     .     .\n"
        "    1:     .     .     .\n"
        "    2:     .     .     .\n"
        "    3:     .     .     1"
    )
    assert BettiDiagram(((3, 1, 7), (5, 9, 100000))).render() == (
        "             3      4      5\n"
        "    -2:      7      .      .\n"
        "    -1:      .      .      .\n"
        "     0:      .      .      .\n"
        "     1:      .      .      .\n"
        "     2:      .      .      .\n"
        "     3:      .      .      .\n"
        "     4:      .      . 100000"
    )


def test_betti_render_refuses_two_entries_in_one_cell():
    # Two ranks at one (index, twist) share a cell: the render printed only the last.
    with pytest.raises(ValueError, match=r"^two entries at index 1, twist 1$"):
        BettiDiagram(((1, 1, 10), (1, 1, 3))).render()
    with pytest.raises(ValueError, match=r"^two entries at index 0, twist 2$"):
        BettiDiagram(((0, 2, 1), (1, 3, 1), (0, 2, 1))).render()
    assert BettiDiagram(((1, 1, 10), (1, 2, 3))).render() == "     1\n 0: 10\n 1:  3"


def test_bad_alpha_rejected(t64):
    from triplets.solver import AlphaVector

    # Wrong sign in the last slot violates the dual sign convention and
    # makes the corresponding Betti number nonpositive.
    bad = AlphaVector(4, (0, 1, 2), (3, -3, -1, 0, 0))
    with pytest.raises(ConsistencyError, match="^dual alpha violates the sign convention$"):
        dual_alpha(bad)
    # chi_family makes the same check on the dual series it reads.
    with pytest.raises(ConsistencyError, match="^dual alpha violates the sign convention$"):
        chi_family(t64, bad)
    with pytest.raises(ConsistencyError):
        betti(t64, bad)
    # A zero on the support gives beta_1 = 0, which is not a Betti number.
    with pytest.raises(ConsistencyError, match=r"^nonpositive Betti number at q=1 for "):
        betti(t64, AlphaVector(4, (0, 1, 2), (3, 0, 2, 0, 0)))


def test_dual_series_is_the_reversed_half_of_the_pair(t64):
    # chi_family reads the Newton series of alpha and of its dual off one
    # Pascal table: the dual's is the reversed half, negated when |support| is even.
    a = solve_alpha(t64)
    series, reversed_series = newton_series_pair(a.values)
    assert series == newton_series(a.values) == (3, 0, -1, 0, 3)
    assert reversed_series == newton_series(dual_alpha(a).values) == (0, 0, 2, 3, 3)
    # Against the whole dual vector, for every alpha with n <= 6.
    for n in range(1, 7):
        for t in enumerate_triplets(n):
            alpha = solve_alpha(t)
            dual = newton_series_pair(alpha.values)[1]
            if not len(alpha.support) % 2:
                dual = tuple(-x for x in dual)
            assert dual == newton_series(dual_alpha(alpha).values)
    again = AlphaVector(a.n, a.support, a.values)
    assert again == a and hash(again) == hash((a.n, a.support, a.values))
    assert repr(again) == "AlphaVector(n=4, support=(0, 1, 2), values=%r)" % (a.values,)
    with pytest.raises(TypeError):
        AlphaVector(a.n, a.support, a.values, series)


def test_dual_identity_catches_a_perturbed_dual(t64):
    a = solve_alpha(t64)
    ad = dual_alpha(a)
    assert dual_identity_holds(t64, a, ad)
    for k in ad.support[1:]:  # leave the leading value and its sign check alone
        values = list(ad.values)
        values[k] += 1
        assert not dual_identity_holds(t64, a, AlphaVector(ad.n, ad.support, tuple(values)))
    shifted = AlphaVector(ad.n, tuple(i - 1 for i in ad.support), ad.values[1:] + (0,))
    assert not dual_identity_holds(t64, a, shifted)


def test_family_tail_is_checked():
    # A hand-built alpha whose series does not vanish above n - b (here
    # A_3 = -5 with b = 1): its family cannot sum to its Hilbert polynomial.
    t = validate_triplet(3, [0, 1], [0, 1, 2], [2])
    assert solve_alpha(t).values == (3, -1, 0, 0)
    with pytest.raises(ConsistencyError, match="chi family does not sum to its Hilbert polynomial"):
        chi_family(t, AlphaVector(3, (0, 1), (1, -2, 0, 0)))


def _json_pairs(t, alpha, diagram):
    """(to_json(), json.dumps of the same dict) for a triplet, its alpha and a Betti diagram."""
    dicts = (
        {"n": t.n, "B": list(t.B), "H": list(t.H), "C": list(t.C)},
        {"n": alpha.n, "support": list(alpha.support), "alpha": list(alpha.on_support())},
        {"twists": list(diagram.twists()), "ranks": list(diagram.ranks())},
    )
    return [(value.to_json(), json.dumps(d)) for value, d in zip((t, alpha, diagram), dicts)]


def test_to_json_matches_json_dumps():
    for n in range(1, 7):
        for t in enumerate_triplets(n):
            a = solve_alpha(t)
            for mine, dumped in _json_pairs(t, a, betti(t, a)):
                assert mine == dumped
    # Hand-built values, which nothing validates: negative entries and a 4000-digit int.
    big = 10 ** 3999 + 7
    t = HomologyTriplet(-big, (-1, 0), (big,), (-3,))
    alpha = AlphaVector(3, (0, 2), (-big, 0, -5, 0))
    diagram = BettiDiagram(((0, -2, big), (1, 3, -4)))
    for mine, dumped in _json_pairs(t, alpha, diagram):
        assert mine == dumped
    assert len(alpha.to_json()) > 4000


def test_interval_alpha_closed_form_small_n():
    # Every nonempty B in [0, n], n <= 6: 247 interval triplets.
    for n in range(7):
        for mask in range(1, 2 ** (n + 1)):
            B = [e for e in range(n + 1) if mask >> e & 1]
            assert solve_alpha(interval_triplet(n, B)) == interval_alpha(n, B), (n, B)


def test_interval_alpha_closed_form_up_to_max_n():
    # An oracle for the Bareiss solve up to MAX_N = 100, where the Fraction
    # oracles do not reach: 20 seeded B at each n in {20, 40, 60, 80, 100}.
    rng = random.Random(3)
    for n in (20, 40, 60, 80, 100):
        for _ in range(20):
            B = sorted(rng.sample(range(n + 1), rng.randint(1, n + 1)))
            assert solve_alpha(interval_triplet(n, B)) == interval_alpha(n, B), (n, B)
