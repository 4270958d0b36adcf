import random
from fractions import Fraction
from math import comb

import pytest

from triplets import (
    ConsistencyError,
    betti,
    chi_family,
    enumerate_triplets,
    full_table,
    reflect,
    rotated_betti_via_strands,
    solve_alpha,
    triplet_betti,
    validate_triplet,
)
from triplets.linalg import row_echelon
from triplets.squarefree import _strand_sum

from oracles import (
    RatPoly,
    betti_kpolynomial,
    binom_poly,
    homological_data,
    hsq_from_series,
    hsq_kpolynomial,
    hsq_of_reduction,
    hsq_series,
    interval_alpha,
    interval_triplet,
    psi_strand_betti,
    reduction_kpoly,
    rotation_solved_betti,
    sheaf_class_decompose,
)


def test_hsq_series_goldens():
    assert hsq_series((1, 0, 0, 0)) == RatPoly([1, -3, 3, -1])  # (1-t)^3
    # Field in degree 0 at n=0: series 1.
    assert hsq_series((1,)) == RatPoly([1])
    # Free module: sum C(n,k) t^k (1-t)^(n-k) = 1.
    for n in range(6):
        assert hsq_series(tuple(comb(n, k) for k in range(n + 1))) == RatPoly([1])


def test_hsq_roundtrip_random():
    rng = random.Random(11)
    for _ in range(200):
        n = rng.randrange(0, 7)
        h = tuple(rng.randrange(0, 9) for _ in range(n + 1))
        assert hsq_from_series(hsq_series(h), n) == h


def test_hsq_from_series_degree_check():
    with pytest.raises(ValueError):
        hsq_from_series(RatPoly([0, 0, 0, 1]), 2)


def test_sheaf_class_decompose_goldens():
    assert sheaf_class_decompose(RatPoly([3]), 0) == (3,)
    assert sheaf_class_decompose(binom_poly(1, 2), 2) == (0, 0, 1)
    assert sheaf_class_decompose(binom_poly(3, 4) * 3, 4) == (0, 0, 0, 0, 3)
    # Negative coefficients are returned, not raised.
    assert sheaf_class_decompose(RatPoly([-1]), 0) == (-1,)
    with pytest.raises(ValueError):
        sheaf_class_decompose(binom_poly(3, 4), 3)


def test_sheaf_class_decompose_is_inverse():
    rng = random.Random(5)
    for _ in range(100):
        delta = rng.randrange(0, 6)
        a = [rng.randrange(0, 7) for _ in range(delta + 1)]
        chi = sum((binom_poly(i - 1, i) * v for i, v in enumerate(a)), RatPoly())
        assert sheaf_class_decompose(chi, delta) == tuple(a)


def test_reduction_kpoly():
    # K_2(t) at n=4: 6t^2 - 12t^3 + 6t^4 = 6t^2(1-t)^2.
    assert reduction_kpoly(4, 2) == RatPoly([0, 0, 6, -12, 6])
    assert reduction_kpoly(4, 0) == RatPoly([1, -4, 6, -4, 1])  # (1-t)^4
    # K_i(t) = C(n, i) t^i (1-t)^(n-i), so the h^sq vector is C(n, i) e_i.
    for n in range(13):
        for i in range(n + 1):
            assert hsq_from_series(reduction_kpoly(n, i), n) == tuple(comb(n, i) * (s == i) for s in range(n + 1))


def test_hsq_of_reduction_goldens():
    assert hsq_of_reduction(RatPoly([3]), 0, 4) == (3, 0, 0, 0, 0)
    assert hsq_of_reduction(binom_poly(1, 2), 2, 4) == (0, 0, 6, 0, 0)
    assert hsq_of_reduction(binom_poly(3, 4) * 3, 4, 4) == (0, 0, 0, 0, 3)
    with pytest.raises(ConsistencyError):
        hsq_of_reduction(RatPoly([-1]), 0, 4)


def _strand_betti(t):
    alpha = solve_alpha(t)
    return rotated_betti_via_strands(t, alpha, chi_family(t, alpha))


def test_rotated_betti_goldens(t64, t42):
    assert _strand_betti(t64).entries == ((0, 0, 3), (1, 2, 6), (2, 4, 3))
    assert _strand_betti(t42).entries == ((0, 1, 3), (1, 2, 6), (2, 3, 2))


def test_rotated_betti_single_homology():
    # One homology module, here the free module: h^sq = (1,3,3,1)
    # contributes rank h(k) at twist n - k, giving the Koszul-type strand.
    t = validate_triplet(3, [0], [0, 1, 2, 3], [3])
    assert _strand_betti(t).entries == ((0, 0, 1), (1, 1, 3), (2, 2, 3), (3, 3, 1))


def test_strands_cross_check_sweep():
    # The strongest internal oracle, over every triplet with n <= 6: the
    # one-solve triplet_betti (chi and psi strands of T) against three
    # independent rotation solves, entry for entry; the chi strands through
    # rotated_betti_via_strands, and the RatPoly-built psi strands (twists
    # reflected d -> n - d, order reversed) against Betti(rotate^2 T).
    count = 0
    for n in range(1, 7):
        for t in enumerate_triplets(n):
            reference = rotation_solved_betti(t)
            diagrams = triplet_betti(t)
            assert tuple(d.entries for d in diagrams) == tuple(d.entries for d in reference)
            assert tuple(d.twists() for d in diagrams) == (t.B, reflect(t.H, t.n), t.C)
            alpha = solve_alpha(t)
            fam = chi_family(t, alpha)
            assert rotated_betti_via_strands(t, alpha, fam).entries == reference[1].entries
            assert psi_strand_betti(t, fam) == reference[2].entries
            count += 1
    assert count == 5599


def test_strand_cuts_against_the_closed_form_up_to_max_n():
    # rotate(T_B) and rotate^2(T_B) are general-shape triplets whose Betti
    # diagrams must equal the chi and psi strand sums of the closed-form alpha
    # of T_B; their own strands, cut at the nondegrees of B and of reflect(B),
    # must give the closed form back.  6 seeded B at each n in {20, ..., 100}.
    rng = random.Random(5)
    for n in (20, 40, 60, 80, 100):
        for _ in range(6):
            B = sorted(rng.sample(range(n + 1), rng.randint(1, n + 1)))
            T, a = interval_triplet(n, B), interval_alpha(n, B)
            fam = chi_family(T, a)
            once, twice = triplet_betti(T.rotate()), triplet_betti(T.rotate().rotate())
            assert once[0] == rotated_betti_via_strands(T, a, fam), (n, B)
            assert twice[0] == _strand_sum(fam.psi_series, n, lambda k: k), (n, B)
            assert once[2] == betti(T, a) == twice[1], (n, B)


def test_negative_strand_coefficient_is_reported():
    with pytest.raises(ConsistencyError, match=r"^negative class coefficients \(0, -1\)$"):
        _strand_sum(((0, -1),), 2, lambda k: k)


def test_psi_strands_give_rotate2_betti(t64):
    # The psi strands of T, twists reflected d -> n - d and order reversed,
    # are the Betti diagram of rotate^2(T); the sweep above checks every n <= 6.
    assert psi_strand_betti(t64, chi_family(t64, solve_alpha(t64))) == ((0, 2, 12), (1, 3, 12), (2, 4, 3))


def test_triplet_betti_goldens(t64, t42):
    d = triplet_betti(t64)
    assert [x.ranks() for x in d] == [(3, 12, 12), (3, 6, 3), (12, 12, 3)]
    assert [x.twists() for x in d] == [(0, 1, 2), (0, 2, 4), (2, 3, 4)]
    d = triplet_betti(t42)
    assert [x.ranks() for x in d] == [(2, 3, 1), (3, 6, 2), (1, 3)]
    assert [x.twists() for x in d] == [(0, 2, 3), (1, 2, 3), (0, 2)]


def test_triplet_betti_degree_sequences():
    for n in range(1, 6):
        for t in enumerate_triplets(n):
            diagrams = triplet_betti(t)
            assert tuple(d.twists() for d in diagrams) == (t.B, reflect(t.H, t.n), t.C)


def test_homological_data_goldens(t64, t42):
    hd = homological_data(t64)
    assert hd.B.ranks() == (3, 12, 12)
    assert hd.H == ((3, 0, 0, 0, 0), (0, 0, 6, 0, 0), (0, 0, 0, 0, 3))
    assert hd.C == ((0, 0, 12, 12, 3),)
    hd = homological_data(t42)
    assert hd.H == ((2, 6, 3, 0),)
    assert hd.C == ((1, 0, 0, 0), (0, 0, 3, 0))


def test_homological_data_single_strands():
    t = validate_triplet(3, [0, 1], [0, 1, 2], [2])
    hd = homological_data(t)
    assert len(hd.H) == len(hd.C) == 1


def test_dual_swaps_homology_lists():
    for t in enumerate_triplets(3):
        hd = homological_data(t)
        hdd = homological_data(t.dual())
        assert hdd.H == hd.C
        assert hdd.C == hd.H


def test_kpolynomial_identity():
    # sum (-1)^i beta_i t^(d_i) = sum_q (-1)^q hsq_series(h_q).
    for n in range(1, 5):
        for t in enumerate_triplets(n):
            hd = homological_data(t)
            assert betti_kpolynomial(hd.B) == hsq_kpolynomial(hd.H, n)


def test_hsq_nonnegative_sweep():
    for n in range(1, 5):
        for t in enumerate_triplets(n):
            hd = homological_data(t)
            for vec in hd.H + hd.C:
                assert all(v >= 0 for v in vec)


def test_reversal_duality():
    # The diagram of rotate^2(T) is the twist-reversed diagram of
    # rotate(dual(T)) under d -> n - d.
    for n in range(1, 5):
        for t in enumerate_triplets(n):
            d2 = betti(t.rotate().rotate())
            dr = betti(t.dual().rotate())
            reversed_multiset = tuple(sorted((n - d, r) for _, d, r in dr.entries))
            assert tuple((d, r) for _, d, r in d2.entries) == reversed_multiset


def _span_rank(vectors):
    """The rank of the int vectors, each a {key: value} dict, over the union of their keys,
    and the number of those keys."""
    keys = sorted({k for v in vectors for k in v})
    return len(row_echelon([[v.get(k, 0) for k in keys] for v in vectors], len(keys))[1]), len(keys)


def test_linear_shadow_ranks():
    # The linear span of the type-n triplets' data, n = 1..5: a cone spanned
    # by 3, 9, 33, 150, 795 rays lies in this many dimensions.  Betti triples
    # keyed (diagram, q, twist); default-window tables keyed (row, col).
    betti_ranks, table_ranks = [], []
    for n in range(1, 6):
        ts = list(enumerate_triplets(n))
        betti_ranks.append(_span_rank([{(k, q, d): r for k, diagram in enumerate(triplet_betti(t))
                                        for q, d, r in diagram.entries} for t in ts]))
        table_ranks.append(_span_rank([{(j, p): v for j, p, v in full_table(t).entries} for t in ts])[0])
    assert betti_ranks == [(3, 9), (9, 18), (21, 30), (36, 45), (54, 63)]
    assert table_ranks == [3, 8, 17, 30, 47]
