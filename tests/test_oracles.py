from oracles import interpolated_chi_family, newton_poly, sheaf_class_decompose

from triplets import chi_family, enumerate_triplets, solve_alpha, validate_triplet


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
