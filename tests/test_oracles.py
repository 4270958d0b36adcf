import random

from oracles import interpolated_chi_family, newton_poly, newton_series, newton_value, sheaf_class_decompose, strand_starts

from triplets import (
    AlphaVector,
    ConsistencyError,
    chi_family,
    enumerate_triplets,
    solve_alpha,
    validate_triplet,
)


def test_interpolation_oracle_golden():
    t = validate_triplet(4, [0, 1, 2], [0, 2, 4], [2, 3, 4])
    chis, psis, flags = interpolated_chi_family(t, solve_alpha(t))
    assert [c(2) for c in chis] == [3, 3, 15]
    assert [psis[0](k) for k in (1, 2, 3)] == [8, 33, 87]
    assert flags == ()


def test_chi_family_matches_interpolation_oracle():
    # Every triplet with n <= 6: the Newton-series family equals the RatPoly
    # interpolation, and each strand's series is the class decomposition of
    # the interpolated polynomial.
    for n in range(1, 7):
        for t in enumerate_triplets(n):
            a = solve_alpha(t)
            fam = chi_family(t, a)
            chis, psis, flags = interpolated_chi_family(t, a)
            assert tuple(map(newton_poly, fam.chi_series)) == chis
            assert tuple(map(newton_poly, fam.psi_series)) == psis
            assert fam.flags == flags
            for series, poly in zip(fam.chi_series + fam.psi_series, chis + psis):
                assert series == sheaf_class_decompose(poly, poly.degree)


def test_chi_family_of_hand_built_alphas_matches_interpolation_oracle():
    # chi_family takes any AlphaVector, and its slices are the interpolation
    # for every alpha.  Each support value +-1 over n <= 4: a solved alpha
    # has A_u = 0 at every strand boundary u, many of these do not.
    accepted = at_boundary = 0
    for n in range(1, 5):
        for t in enumerate_triplets(n):
            a = solve_alpha(t)
            for i in t.B:
                for step in (1, -1):
                    values = list(a.values)
                    values[i] += step
                    alpha = AlphaVector(n, t.B, tuple(values))
                    try:
                        fam = chi_family(t, alpha)
                    except ConsistencyError:
                        continue
                    chis, psis, flags = interpolated_chi_family(t, alpha)
                    assert tuple(map(newton_poly, fam.chi_series)) == chis
                    assert tuple(map(newton_poly, fam.psi_series)) == psis
                    assert fam.flags == flags
                    accepted += 1
                    at_boundary += any(newton_series(alpha.values)[x - 1] for x in strand_starts(t.h, n - t.b, t.H)[1:-1])
    assert (accepted, at_boundary) == (421, 269)


def test_newton_value_matches_ratpoly():
    # The int evaluation the Euler and dual-identity oracles use, against
    # the RatPoly layer, at negative and positive points.
    rng = random.Random(3)
    for _ in range(300):
        a = [rng.randrange(-9, 10) for _ in range(rng.randrange(0, 8))]
        p = newton_poly(a)
        assert [newton_value(a, d) for d in range(-15, 15)] == [p(d) for d in range(-15, 15)]
