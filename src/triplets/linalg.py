"""Exact rational polynomials, the basis P_{n,i}, integer Newton series,
and the fraction-free Bareiss nullspace of int rows.

P_{n,i}(d) = C(d+i-1, i) * C(d+n, n-i) has degree n and satisfies
P_{n,i}(-k) = (-1)^i [k == i] for k in [0, n], so any polynomial p of
degree <= n is sum_i alpha_i P_{n,i} with alpha_i = (-1)^i p(-i).

The hot path holds an integer-valued polynomial as its Newton series a:
p(d) = sum_i a_i C(d+i-1, i), with integer a_i (Polya) equal to the i-th
backward difference of p at 0.  Systems are solved by Bareiss elimination
on integer rows.
"""

from fractions import Fraction
from functools import cache
from itertools import accumulate
from math import factorial, gcd


class RatPoly:
    """Dense univariate polynomial with Fraction coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        # Coefficients are ints or Fractions; they mix exactly, so no
        # conversion is done here (this is a hot path).
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @property
    def degree(self):
        return len(self.coeffs) - 1

    def coeff(self, i):
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else 0

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        if not isinstance(other, RatPoly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __add__(self, other):
        if not isinstance(other, RatPoly):
            other = RatPoly([other])
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, v in enumerate(b):
            out[i] = out[i] + v
        return RatPoly(out)

    __radd__ = __add__

    def __neg__(self):
        return RatPoly([-c for c in self.coeffs])

    def __sub__(self, other):
        return self + (-other if isinstance(other, RatPoly) else RatPoly([-other]))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, RatPoly):
            out = [0] * (len(self.coeffs) + len(other.coeffs) - 1 or 1)
            for i, a in enumerate(self.coeffs):
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
            return RatPoly(out)
        return RatPoly([c * other for c in self.coeffs])

    __rmul__ = __mul__

    def __call__(self, x):
        """Evaluate; x may be a number or a RatPoly (composition)."""
        acc = RatPoly() if isinstance(x, RatPoly) else 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __repr__(self):
        return "RatPoly(%r)" % (self.coeffs,)

    def __str__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            term = "d^%d" % i if i > 1 else ("d" if i == 1 else "")
            parts.append(("%s*%s" % (c, term)).rstrip("*") if term else str(c))
        return " + ".join(parts)


@cache
def binom_poly(shift, k):
    """C(d + shift, k) as a polynomial in d, via the falling factorial."""
    p = RatPoly([1])
    for j in range(k):
        p = p * RatPoly([shift - j, 1])
    return p * Fraction(1, factorial(k))


@cache
def basis_poly(n, i):
    """P_{n,i}(d) = C(d+i-1, i) * C(d+n, n-i)."""
    if not 0 <= i <= n:
        raise ValueError("need 0 <= i <= n, got i=%d, n=%d" % (i, n))
    return binom_poly(i - 1, i) * binom_poly(n, n - i)


def in_basis(p, n):
    """Coefficients alpha_0..alpha_n of p in the P_{n,i} basis."""
    if p.degree > n:
        raise ValueError("degree %d exceeds n = %d" % (p.degree, n))
    return tuple((-1) ** i * p(-i) for i in range(n + 1))


def from_basis(alpha, n):
    p = RatPoly()
    for i, a in enumerate(alpha):
        if a:
            p = p + basis_poly(n, i) * a
    return p


def newton_series(alpha):
    """Newton series a_0..a_n of from_basis(alpha, n): a_m = sum_i alpha_i C(m, i).

    With g(e) = (-1)^e alpha_e = p(-e), a_m = (-1)^m (Delta^m g)(0).  The
    polynomial has degree <= n - b iff a_{n-j} = 0 for j = 0..b-1.
    """
    g = [-x if e % 2 else x for e, x in enumerate(alpha)]
    out = []
    for m in range(len(g)):
        out.append(-g[0] if m % 2 else g[0])
        g = [y - x for x, y in zip(g, g[1:])]
    return tuple(out)


def newton_poly(a):
    """The polynomial sum_i a_i C(d+i-1, i) as a RatPoly."""
    return sum((binom_poly(i - 1, i) * x for i, x in enumerate(a) if x), RatPoly())


def newton_values(a, start, stop):
    """[p(d) for d in range(start, stop)] for the Newton series a of p.

    The differences are stepped down to the first point if it is below 0;
    from there on each difference is the running sum of the one above it.
    """
    diffs = list(a) or [0]
    origin = min(start, 0)
    for _ in range(origin, 0):
        for i in range(len(diffs) - 1):
            diffs[i] -= diffs[i + 1]
    vals = [diffs[-1]] * max(stop - origin, 1)
    for c in reversed(diffs[:-1]):
        vals[0] = c
        vals = list(accumulate(vals))
    return vals[start - origin:stop - origin]


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
        if any(type(x) is not int for x in row):
            raise TypeError("matrix entries must be int: %r" % (row,))
    piv_cols = []
    r = 0
    prev = 1
    for c in range(ncols):
        k = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if k is None:
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
    basis = []
    for f in range(ncols):
        if f in piv_cols:
            continue
        v = [0] * ncols
        v[f] = 1
        for r in range(len(piv_cols) - 1, -1, -1):
            c = piv_cols[r]
            row = ech[r]
            s = sum(row[j] * v[j] for j in range(c + 1, ncols))
            p = row[c]
            k = abs(p) // gcd(s, p)  # scale v so the pivot divides
            if k != 1:
                v = [x * k for x in v]
                s *= k
            v[c] = -s // p
        g = gcd(*v)
        basis.append(tuple(x // g for x in v))
    return basis
