import random
from fractions import Fraction
from math import comb, gcd

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
    rotation_digests,
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


def _rotations_agree(records):
    """Criterion 6's dict-based check, for the chi strands and the psi strands."""
    diagrams = {t: d[0].entries for t, d in records}
    return all(d[1].entries == diagrams[t.rotate()] and d[2].entries == diagrams[t.rotate().rotate()]
               for t, d in records)


def test_rotation_digests_agree_with_the_dict_check():
    # Over each census n <= 6 the three digests are equal, as the dict check holds.  Control:
    # one rank raised by one in one diagram of one triplet changes that diagram's sum, and
    # the dict check fails with it.
    for n in range(1, 7):
        records = [(t, triplet_betti(t)) for t in enumerate_triplets(n)]
        sums = rotation_digests(records)
        assert _rotations_agree(records)
        assert sums[0] == sums[1] == sums[2], n
    for i, k in ((0, 0), (1000, 1), (4608, 2)):
        t, diagrams = records[i]
        d = list(diagrams)
        (q, twist, rank), *rest = d[k].entries
        d[k] = d[k]._replace(entries=((q, twist, rank + 1), *rest))
        faulty = records[:i] + [(t, tuple(d))] + records[i + 1:]
        assert [b != s for b, s in zip(rotation_digests(faulty), sums)] == [j == k for j in range(3)]
        assert not _rotations_agree(faulty)


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


def _span_basis(vectors):
    """A basis of the span of the int vectors, each a {key: value} dict, seen from the other
    side: the exact row echelon of the matrix with one row per key of their union and one
    column per vector, each row divided by its gcd.  Its length is the vectors' rank."""
    keys = sorted({k for v in vectors for k in v})
    ech, _ = row_echelon([[v.get(k, 0) for v in vectors] for k in keys], len(vectors))
    return [[x // g for x in row] for row in ech for g in [gcd(*row)]]


def _keyings(t):
    """The default-window table of t and its three data keyings, each a {tagged key: value} dict:
    A, beta(T) keyed (q, d) and the twists of rotate(T) and rotate^2(T) alone; B, all three
    diagrams keyed (diagram, q, d); C, beta(T) and the chi and psi strands keyed (q, k),
    valued a_k C(n, k).  Each key leads with a tag, so no two keyings share a key."""
    diagrams = triplet_betti(t)
    beta = {("beta", q, d): r for q, d, r in diagrams[0].entries}
    alpha = solve_alpha(t)
    fam = chi_family(t, alpha)
    return (
        {("table", j, p): v for j, p, v in full_table(t, alpha, fam=fam).entries},
        {**beta, **{("twist", k, d): r for k in (1, 2) for _, d, r in diagrams[k].entries}},
        {("betti", k, q, d): r for k, diagram in enumerate(diagrams) for q, d, r in diagram.entries},
        {**beta, **{(name, q, k): a * comb(t.n, k) for name, strands in (("chi", fam[0]), ("psi", fam[1]))
                    for q, series in enumerate(strands) for k, a in enumerate(series) if a}},
    )


def test_linear_shadow_ranks():
    # The linear span of the type-n triplets' data, n = 1..5: a cone spanned
    # by 3, 9, 33, 150, 795 rays lies in this many dimensions.  The table-to-A map
    # is linear ([table, A] has the table's rank) but not injective from n = 3 on;
    # neither B nor C is a function of the table, nor the table of either.
    ranks = {key: [] for key in ("table", "A", "B", "C", "table+A", "table+B", "table+C")}
    betti_keys = []
    for n in range(1, 6):
        data = [_keyings(t) for t in enumerate_triplets(n)]
        table, *bases = (_span_basis([d[i] for d in data]) for i in range(4))
        ranks["table"].append(len(table))
        for name, basis in zip("ABC", bases):
            ranks[name].append(len(basis))
            # The keyings share no key, so [table, X] has the key rows of both: its rank is
            # that of the two bases together.
            ranks["table+" + name].append(len(row_echelon(table + basis, len(data))[1]))
        betti_keys.append(len({k for d in data for k in d[2]}))
    assert ranks == {
        "table": [3, 8, 17, 30, 47],
        "A": [3, 8, 14, 21, 29], "table+A": [3, 8, 17, 30, 47],
        "B": [3, 9, 21, 36, 54], "table+B": [3, 9, 24, 45, 72],
        "C": [3, 9, 18, 30, 45], "table+C": [3, 9, 20, 36, 57],
    }
    assert betti_keys == [9, 18, 30, 45, 63]


# Seven n = 3 triplets (B, H, C) and coefficients whose A data sum to zero while
# their default-window tables do not: the table-to-A map has a kernel on the span.
A_KERNEL_WITNESS = [
    (-1, ((0,), (0, 1, 2, 3), (3,))),
    (1, ((0, 1), (0, 1, 2), (2,))),
    (-2, ((0, 1), (0, 1, 3), (2, 3))),
    (1, ((0, 1), (0, 2, 3), (2, 3))),
    (1, ((0, 1, 2), (0, 1), (1,))),
    (-1, ((0, 1, 2), (0, 2), (1, 2))),
    (1, ((0, 1, 2), (0, 3), (1, 2, 3))),
]
# Their tables' sum, (row, col): dim, row by row over ascending columns.
A_KERNEL_TABLE_SUM = {
    **{(-2, p): v for p, v in zip(range(-1, 6), [1, 4, 10, 20, 35, 56, 84])},
    **{(0, p): v for p, v in zip(range(1, 6), [-1, -4, -10, -20, -35])},
    **{(1, p): v for p, v in zip(range(-9, -2), [84, 56, 35, 20, 10, 4, 1])},
    **{(3, p): v for p, v in zip(range(-9, 0), [-165, -120, -84, -56, -35, -20, -10, -4, -1])},
}


def test_table_to_a_kernel_witness():
    sums = [{}, {}, {}, {}]
    for coefficient, sets in A_KERNEL_WITNESS:
        for total, keyed in zip(sums, _keyings(validate_triplet(3, *sets))):
            for key, v in keyed.items():
                total[key] = total.get(key, 0) + coefficient * v
    table, a, b, c = ({key: v for key, v in total.items() if v} for total in sums)
    assert a == {}
    assert {(j, p): v for (_, j, p), v in table.items()} == A_KERNEL_TABLE_SUM
    assert len(A_KERNEL_TABLE_SUM) == 28
    # B and C, which are not functions of the table, do not vanish on the witness.
    assert b == {("betti", 1, 0, 2): 3, ("betti", 1, 1, 3): 1, ("betti", 1, 2, 2): -3, ("betti", 1, 3, 3): -1,
                 ("betti", 2, 0, 3): -1, ("betti", 2, 2, 3): 1}
    assert c == {("chi", 0, 3): -1, ("chi", 2, 3): 1}
