import random
from fractions import Fraction
from math import comb, gcd, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from triplets import nullspace
from triplets.linalg import newton_series_pair, newton_values, row_echelon

from oracles import (
    RatPoly,
    _naive_nullspace,
    basis_poly,
    binom_poly,
    degree_drop_equations,
    from_basis,
    in_basis,
    int_rows,
    newton_poly,
    newton_series,
)


def test_ratpoly_arithmetic():
    p = RatPoly([1, 2])  # 1 + 2d
    q = RatPoly([0, 0, 1])  # d^2
    assert (p + q).coeffs == (1, 2, 1)
    assert (p * q).coeffs == (0, 0, 1, 2)
    assert (p - p).coeffs == ()
    assert p(3) == 7
    assert (2 * p).coeffs == (2, 4)
    assert p(RatPoly([1, 1])) == RatPoly([3, 2])  # composition with d+1
    assert RatPoly([0, 0, 0]).degree == -1
    assert str(RatPoly([1, 0, Fraction(1, 2)])) == "1 + 1/2*d^2"


def test_binom_poly():
    # C(d+2, 2) = (d+2)(d+1)/2
    p = binom_poly(2, 2)
    assert [p(d) for d in range(5)] == [1, 3, 6, 10, 15]
    assert binom_poly(0, 0) == RatPoly([1])


def test_basis_poly_goldens():
    assert basis_poly(2, 1) == RatPoly([0, 2, 1])  # d(d+2)
    assert [basis_poly(2, 1)(d) for d in (0, -1, -2)] == [0, -1, 0]
    assert basis_poly(5, 0)(0) == 1  # C(d+n, n) at d=0
    assert basis_poly(4, 2)(1) == 10  # C(2,2)*C(5,2)
    with pytest.raises(ValueError):
        basis_poly(3, 4)
    with pytest.raises(ValueError):
        basis_poly(3, -1)


def test_basis_poly_interpolation_property():
    # P_{n,i}(-k) = (-1)^i [k == i] for k in [0, n].
    for n in range(7):
        for i in range(n + 1):
            p = basis_poly(n, i)
            assert p.degree == n
            for k in range(n + 1):
                assert p(-k) == ((-1) ** i if k == i else 0)


def test_in_basis_golden():
    p = binom_poly(2, 2)  # C(d+2, 2)
    assert in_basis(p, 4) == (1, 0, 0, -1, 3)
    assert in_basis(RatPoly(), 3) == (0, 0, 0, 0)
    with pytest.raises(ValueError):
        in_basis(basis_poly(4, 0), 3)


@st.composite
def _poly_and_n(draw):
    n = draw(st.integers(min_value=0, max_value=7))
    nums = draw(st.lists(st.integers(-30, 30), min_size=0, max_size=n + 1))
    dens = draw(st.lists(st.integers(1, 9), min_size=len(nums), max_size=len(nums)))
    return RatPoly([Fraction(a, b) for a, b in zip(nums, dens)]), n


@given(_poly_and_n())
@settings(max_examples=150)
def test_basis_roundtrip(arg):
    p, n = arg
    assert from_basis(in_basis(p, n), n) == p


def test_degree_drop_equations_goldens():
    assert degree_drop_equations(3, 0) == ()
    m = degree_drop_equations(2, 1)
    assert m == ((1, 2, 1),)
    # alpha = (1,-1,1) satisfies the row and from_basis gives the constant 1
    assert sum(a * c for a, c in zip((1, -1, 1), m[0])) == 0
    assert from_basis((1, -1, 1), 2) == RatPoly([1])


def test_degree_drop_two_forms_same_rowspace():
    for n in range(9):
        for b in range(n + 1):
            a = degree_drop_equations(n, b)
            # The alternative form: sum_{i>=j} alpha_i C(n-j, i-j) = 0.
            alt = [[comb(n - j, i - j) if i >= j else 0 for i in range(n + 1)] for j in range(b)]
            # Same row space iff stacking does not raise the rank.
            assert len(row_echelon(list(a) + alt, n + 1)[1]) == len(row_echelon(a, n + 1)[1]) == b


def test_degree_drop_characterizes_degree():
    rng = random.Random(7)
    for _ in range(50):
        n = rng.randrange(1, 8)
        b = rng.randrange(1, n + 1)
        m = degree_drop_equations(n, b)
        vecs = nullspace(m, n + 1)
        assert len(vecs) == n + 1 - b
        weights = [rng.randrange(-3, 4) for _ in vecs]
        alpha = [sum(w * v[i] for w, v in zip(weights, vecs)) for i in range(n + 1)]
        assert from_basis(alpha, n).degree <= n - b
        # Violating one row pushes the degree above n - b.
        alpha2 = list(alpha)
        alpha2[n] += 1  # changes the last row's value since C(n-j, n) = [j=0]
        if sum(a * c for a, c in zip(alpha2, m[0])) != 0:
            assert from_basis(alpha2, n).degree > n - b


def test_nullspace_goldens():
    eye = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    assert nullspace(eye, 3) == []
    (v,) = nullspace([[1, 1, 0], [0, 1, 1]], 3)
    assert v == (1, -1, 1)
    # the n=4 example's system on (alpha_0, alpha_1, alpha_2)
    (v,) = nullspace([[1, 1, 0], [1, 3, 3]], 3)
    assert v == (3, -3, 2)
    # Basis vectors are primitive integer vectors, positive in the free column.
    (v,) = nullspace(int_rows([[2, 4, 0], [0, Fraction(1, 3), Fraction(2, 3)]]), 3)
    assert v == (4, -2, 1) and all(type(x) is int for x in v)
    assert nullspace([[0, 0]], 2) == [(1, 0), (0, 1)]


def test_row_echelon_rejects_ragged_and_non_int_rows():
    with pytest.raises(ValueError, match="ragged"):
        row_echelon([[1, 2], [3]], 2)
    with pytest.raises(TypeError):
        row_echelon([[1, Fraction(1, 2)]], 2)
    with pytest.raises(TypeError):
        nullspace([[Fraction(2), 1]], 2)


def _primitive(v):
    """The oracle vector v (1 in its free column) scaled by the lcm of its
    denominators and divided by its gcd: primitive, positive in its free column."""
    scale = lcm(*(x.denominator for x in v))
    w = [int(x * scale) for x in v]
    g = gcd(*w)
    return tuple(x // g for x in w)


def test_nullspace_random_against_oracle():
    rng = random.Random(20240817)
    cases = []
    for _ in range(300):
        nrows = rng.randrange(1, 6)
        ncols = rng.randrange(1, 6)
        cases.append(([[Fraction(rng.randrange(-4, 5), rng.randrange(1, 4)) for _ in range(ncols)] for _ in range(nrows)], ncols))
    # Entries up to 10^6, some with a forced dependent row, so that nullity >= 2
    # is common and the exact divisions of the back-substitution meet big pivots.
    rng = random.Random(30)
    for _ in range(1000):
        nrows = rng.randrange(1, 6)
        ncols = rng.randrange(1, 8)
        rows = [[rng.randrange(-10**6, 10**6 + 1) for _ in range(ncols)] for _ in range(nrows)]
        if rng.random() < 0.5:
            a, b = rng.randrange(-9, 10), rng.randrange(-9, 10)
            rows.append([a * x + b * y for x, y in zip(rng.choice(rows), rng.choice(rows))])
        cases.append((rows, ncols))
    for rows, ncols in cases:
        basis = nullspace(int_rows(rows), ncols)
        oracle_basis, rank = _naive_nullspace(rows, ncols)
        assert len(basis) == len(oracle_basis) == ncols - rank
        for v in basis:
            for row in rows:
                assert sum(a * b for a, b in zip(row, v)) == 0
        # Each oracle vector lies in the span of the computed basis: the
        # stacked matrix of both bases has the same rank as the first.
        if basis:
            stacked = int_rows(list(basis) + list(oracle_basis))
            assert len(row_echelon(stacked, ncols)[1]) == len(row_echelon(basis, ncols)[1])
        # The basis is the oracle's canonical one, vector for vector, made primitive.
        assert basis == [_primitive(v) for v in oracle_basis]


def test_newton_values():
    # The values run forward from p(0) = a_0: a start below 0 is refused.
    p = binom_poly(3, 4) * 3  # 3*C(d+3, 4), integer-valued
    assert newton_poly((0, 0, 0, 0, 3)) == p
    assert newton_values((0, 0, 0, 0, 3), 0, 7) == [p(d) for d in range(7)]
    assert newton_values((), 2, 6) == [0, 0, 0, 0]
    assert newton_values((5,), 3, 1) == [] and newton_values((5,), 0, 0) == []
    for a, start, stop in (((0, 0, 0, 0, 3), -6, 7), ((), -1, 2), ((5,), -3, -5)):
        with pytest.raises(ValueError, match=r"^need start >= 0, got -\d+$"):
            newton_values(a, start, stop)
    rng = random.Random(3)
    for _ in range(200):
        a = [rng.randrange(-9, 10) for _ in range(rng.randrange(0, 8))]
        start = rng.randrange(0, 8)
        stop = start + rng.randrange(0, 15)
        q = newton_poly(a)
        assert newton_values(a, start, stop) == [q(d) for d in range(start, stop)]


def test_newton_series_is_degree_drop_rows():
    # a_{n-j} is row j of the degree-drop system applied to alpha, a_0 is
    # alpha_0, and the series sums back to from_basis(alpha, n).  The pair's
    # second series, read off the same Pascal table, is that of alpha reversed.
    rng = random.Random(9)
    for _ in range(100):
        n = rng.randrange(1, 8)
        alpha = [rng.randrange(-9, 10) for _ in range(n + 1)]
        a, rev = newton_series_pair(alpha)
        assert a == newton_series(alpha)
        assert rev == newton_series(alpha[::-1])
        rows = degree_drop_equations(n, n)
        assert [sum(x * c for x, c in zip(alpha, row)) for row in rows] == list(a[:0:-1])
        assert a[0] == alpha[0]
        assert newton_poly(a) == from_basis(alpha, n)
