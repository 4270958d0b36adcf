"""Integer Newton series and the fraction-free Bareiss nullspace of int rows.

A polynomial p of degree <= n is sum_i alpha_i P_{n,i} in the basis
P_{n,i}(d) = C(d+i-1, i) * C(d+n, n-i), with alpha_i = (-1)^i p(-i), since
P_{n,i}(-k) = (-1)^i [k == i] for k in [0, n].

The library holds an integer-valued polynomial as its Newton series a:
p(d) = sum_i a_i C(d+i-1, i), with integer a_i (Polya) equal to the i-th
backward difference of p at 0, and never builds the polynomial itself.
Systems are solved by Bareiss elimination on integer rows.
"""

from itertools import accumulate
from math import gcd
from operator import add, mul


def newton_series_pair(alpha):
    """The Newton series a and a* of sum_i alpha_i P_{n,i} and of alpha
    reversed, from one Pascal table u_0 = alpha, u_{m+1}(i) = u_m(i) +
    u_m(i+1): row m is u_m(i) = sum_j C(m, j) alpha_{i+j}, so its first entry
    is a_m = sum_i alpha_i C(m, i) and its last a*_m = sum_i alpha_{n-i} C(m, i).
    (With g(e) = (-1)^e alpha_e = p(-e), a_m = (-1)^m (Delta^m g)(0).)
    The polynomial has degree <= n - b iff a_{n-j} = 0 for j = 0..b-1.
    """
    u = alpha
    out = [u[0]]
    rev = [u[-1]]
    for _ in range(len(u) - 1):
        u = [*map(add, u, u[1:])]
        out.append(u[0])
        rev.append(u[-1])
    return tuple(out), tuple(rev)


def newton_values(a, start, stop):
    """[p(d) for d in range(start, stop)] for the Newton series a of p, 0 <= start.

    From p(0) = a_0 on, each difference is the running sum of the one above it.
    """
    if start < 0:
        raise ValueError("need start >= 0, got %d" % start)
    a = a or (0,)
    vals = [a[-1]] * max(stop, 1)
    for c in a[-2::-1]:
        vals[0] = c
        vals = list(accumulate(vals))
    return vals[start:stop]


def row_echelon(rows, ncols):
    """Fraction-free (Bareiss) row echelon of the int rows, each of length ncols.

    Returns (echelon rows, pivot column indices).  Pivot choice is
    deterministic: leftmost column, first nonzero row.  Bareiss's exact
    divisions hold only for integers, so any other entry type is refused.
    """
    rows = [list(r) for r in rows]
    for row in rows:
        if len(row) != ncols:
            raise ValueError("ragged matrix: row of length %d, expected %d" % (len(row), ncols))
        if {*map(type, row)} - {int}:
            raise TypeError("matrix entries must be int: %r" % (row,))
    piv_cols = []
    r = 0
    prev = 1
    for c in range(ncols):
        for k in range(r, len(rows)):
            if rows[k][c]:
                break
        else:
            continue
        rows[r], rows[k] = rows[k], rows[r]
        top = rows[r]
        p = top[c]
        for i in range(r + 1, len(rows)):
            row = rows[i]
            f = row[c]
            rows[i] = [(p * x - f * y) // prev for x, y in zip(row, top)]
        prev = p
        piv_cols.append(c)
        r += 1
    return rows[:r], piv_cols


def nullspace(rows, ncols):
    """Basis of the right nullspace of the int rows: primitive integer
    vectors, each positive in its free column; exact, deterministic order."""
    ech, piv_cols = row_echelon(rows, ncols)
    # The last pivot d is the determinant of the pivot rows and columns, so by Cramer's
    # rule d in a free column makes every back-substitution division below exact.
    d = ech[-1][piv_cols[-1]] if ech else 1
    basis = []
    for f in range(ncols):
        if f in piv_cols:
            continue
        v = [0] * ncols
        v[f] = d
        for row, c in zip(ech[::-1], piv_cols[::-1]):
            v[c] = -sum(map(mul, row[c + 1:], v[c + 1:])) // row[c]
        g = gcd(*v) if d > 0 else -gcd(*v)
        basis.append(tuple(x // g for x in v))
    return basis
