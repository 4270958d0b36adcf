"""Independent reference implementations that tests compare the library
against.  They are slow on purpose: plain RatPoly arithmetic, no shortcuts.

The library holds every polynomial as an integer Newton series; the exact
Fraction polynomials, the basis P_{n,i}, the K-polynomial layer and the
polynomial forms of the supernatural and corner data live here, with a
Fraction (row, column) double loop for supernatural tables and zip ranks,
and the zip and Tate terms read off a table's cells.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from hashlib import blake2b
from math import comb, factorial, gcd, lcm, prod
from operator import mul

from triplets import (
    AlphaVector,
    BettiDiagram,
    ConsistencyError,
    HomologyTriplet,
    HyperTable,
    balanced,
    betti,
    chi_family,
    reflect,
    solve_alpha,
    validate_triplet,
)
from triplets.tables import default_window


def hyper_table(window, cells):
    """The HyperTable of a {(j, p): dim} cell dict: its nonzero cells, sorted."""
    return HyperTable(tuple(window), tuple(sorted((j, p, v) for (j, p), v in cells.items() if v)))


def cells(table):
    """The {(j, p): dim} cell dict of a HyperTable's nonzero cells: the inverse of hyper_table."""
    return {(j, p): v for j, p, v in table.entries}


class RatPoly:
    """Dense univariate polynomial with Fraction coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        # Coefficients are ints or Fractions; they mix exactly.
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
    """Newton series a_0..a_n of sum_i alpha_i P_{n,i}: a_m = sum_i alpha_i C(m, i),
    summed entry by entry (the library reads it off a Pascal table)."""
    return tuple(sum(x * comb(m, i) for i, x in enumerate(alpha)) for m in range(len(alpha)))


def dual_alpha(alpha):
    """alpha*_i = (-1)^(|B|-1) alpha_{n-i}, supported on refl(B), as a whole
    AlphaVector; the library builds only its Newton series, in chi_family,
    as the reversed half of newton_series_pair(alpha.values)."""
    n, support, values = alpha
    values = tuple(values[::-1])
    if not len(support) % 2:
        values = tuple(-x for x in values)
    support = tuple(sorted(n - i for i in support))
    out = AlphaVector(n, support, values)
    if values[support[0]] <= 0:
        raise ConsistencyError("dual alpha violates the sign convention")
    return out


def interval_triplet(n, B):
    """T_B = (B, [h, n - b], [c, n - b]) with b = |B| - 1, h = min B, c = n - max B."""
    top = n - len(B) + 1
    return validate_triplet(n, B, range(B[0], top + 1), range(n - B[-1], top + 1))


def interval_alpha(n, B):
    """Closed-form alpha of the interval triplet T_B = (B, [min B, n - |B| + 1],
    [n - max B, n - |B| + 1]) as an AlphaVector.  Its Hilbert polynomial vanishes
    exactly at -x for x in [0, n] off B, and P(-e) = (-1)^e alpha_e, so alpha_e is
    (-1)^e prod_{x not in B} (x - e) for e in B, made primitive and positive at min B."""
    B = tuple(sorted(B))
    off = [x for x in range(n + 1) if x not in B]
    values = [(-1) ** e * prod(x - e for x in off) if e in B else 0 for e in range(n + 1)]
    g = gcd(*values) * (1 if values[B[0]] > 0 else -1)
    return AlphaVector(n, B, tuple(v // g for v in values))


def newton_poly(a):
    """The polynomial sum_i a_i C(d+i-1, i) as a RatPoly."""
    return sum((binom_poly(i - 1, i) * x for i, x in enumerate(a) if x), RatPoly())


def _one_minus_t_power(k):
    return RatPoly([(-1) ** i * comb(k, i) for i in range(k + 1)])


def hsq_series(h):
    """K-polynomial of the h^sq vector: the series numerator over (1-t)^n."""
    n = len(h) - 1
    out = RatPoly()
    for k, v in enumerate(h):
        if v:
            out = out + RatPoly([0] * k + [v]) * _one_minus_t_power(n - k)
    return out


def hsq_from_series(num, n):
    """Invert hsq_series: solve sum_s h(s) t^s (1-t)^(n-s) = num."""
    if num.degree > n:
        raise ValueError("numerator degree %d exceeds n = %d" % (num.degree, n))
    h = [0] * (n + 1)
    for s in range(n + 1):
        acc = sum(h[k] * ((-1) ** (s - k)) * comb(n - k, s - k) for k in range(s))
        h[s] = num.coeff(s) - acc
    return tuple(h)


def sheaf_class_decompose(chi, delta):
    """Coefficients a_0..a_delta with chi(d) = sum_i a_i C(d+i-1, i).

    This is the Newton series of chi, padded to length delta + 1.  Negative
    a_i are returned as-is, never raised here.
    """
    if chi.degree > delta:
        raise ValueError("degree %d exceeds delta = %d" % (chi.degree, delta))
    return newton_series(in_basis(chi, delta))


def hsq_of_series(a, n):
    """h^sq vector C(n, i) a_i, i = 0..n, of the class with Newton series a >= 0."""
    if any(x < 0 for x in a):
        raise ConsistencyError("negative class coefficients %r" % (a,))
    return tuple(a[i] * comb(n, i) if i < len(a) else 0 for i in range(n + 1))


def hsq_of_reduction(chi, delta, n):
    """h^sq vector of the squarefree reduction of a sheaf with Hilbert
    polynomial chi on P^delta, embedded for ambient n."""
    a = sheaf_class_decompose(chi, delta)
    if any(x.denominator != 1 for x in a):
        raise ConsistencyError("non-integer class coefficients %r for chi = %s" % (a, chi))
    return hsq_of_series(tuple(x.numerator for x in a), n)


@dataclass(frozen=True)
class HomologicalData:
    B: BettiDiagram
    H: tuple  # one h^sq vector per homology index (zero strands included)
    C: tuple


def homological_data(t, alpha=None):
    if alpha is None:
        alpha = solve_alpha(t)
    fam = chi_family(t, alpha)

    def vectors(family):
        return tuple(hsq_of_series(a, t.n) for a in family)

    return HomologicalData(B=betti(t, alpha), H=vectors(fam.chi_series), C=vectors(fam.psi_series))


def corner_table(t, alpha=None):
    """The pure corner: column -q carries (-1)^q alpha_{d_q} at row d_q - q."""
    if alpha is None:
        alpha = solve_alpha(t)
    cells = {}
    for q, d in enumerate(t.B):
        cells[(d - q, -q)] = (-1) ** q * alpha.values[d]
    return hyper_table((-len(t.B) + 1, 0), cells)


@dataclass(frozen=True)
class ZipTerm:
    p: int
    terms: tuple  # (exterior power a, twist -a, multiplicity)

    def ranks(self, n):
        """Total rank contributions C(n, a) * multiplicity per twist."""
        return tuple((twist, comb(n, a) * m) for a, twist, m in self.terms)


def zip_terms(h, n, p):
    """Terms of the zip complex of the HyperTable h in homological position p.

    The term for cohomological row j is wedge^{p+j} V tensor S(-p-j) with
    multiplicity dim H^j(E(-p-j)), the cell (j, -p); only 0 <= p+j <= n contributes.
    """
    dims = cells(h)
    terms = []
    for a in range(n + 1):
        m = dims.get((a - p, -p), 0)
        if m:
            terms.append((a, -a, m))
    return ZipTerm(p, tuple(terms))


def tate_terms(h, p):
    """Multiset of (generator twist j - p, multiplicity of cell (j, p)) at
    column p of the HyperTable h, rows descending."""
    dims = cells(h)
    out = []
    for j in h.rows():
        m = dims.get((j, p), 0)
        if m:
            out.append((j - p, m))
    return tuple(out)


def cell_dict_full_table(t, alpha=None, window=None, fam=None):
    """`full_table` assembled through a cell dict: every cell is checked for
    sign as it is put, then the nonzero cells are sorted into entries."""
    if alpha is None:
        alpha = solve_alpha(t)
    if window is None:
        window = default_window(t.n)
    lo, hi = window
    if lo > -len(t.B) + 1 or hi < 0:
        raise ValueError("window must contain [%d, 0]" % (-len(t.B) + 1))
    if fam is None:
        fam = chi_family(t, alpha)
    cells = {}

    def put(j, p, v, what):
        if v < 0:
            raise ConsistencyError("negative %s entry at (%d, %d)" % (what, j, p))
        cells[j, p] = v

    for q, d in enumerate(t.B):
        if lo <= -q <= hi:
            put(d - q, -q, (-1) ** q * alpha.values[d], "corner")
    # Row -q holds chi_q(p + q) in column p.
    for q, chi in enumerate(fam.chi_series):
        first = max(lo, -q + 1)
        for p in range(first, hi + 1):
            put(-q, p, newton_value(chi, p + q), "homology")
    # Row n+1-|B|+q holds psi_q(row - n - p) in column p, p descending.
    base = t.n + 1 - len(t.B)
    for q, psi in enumerate(fam.psi_series):
        row = base + q
        last = min(hi, row - t.n - 1)
        for p in range(last, lo - 1, -1):
            put(row, p, newton_value(psi, row - t.n - p), "dual")

    return hyper_table(window, cells)


def table_euler(table, t, rows=None):
    """sum_j (-1)^j entry(j, j + t) over the given rows (default: every row of the table)."""
    if rows is None:
        rows = [j for j, _, _ in table.entries]
    dims = cells(table)
    return sum((-1 if j % 2 else 1) * dims.get((j, j + t), 0) for j in set(rows))


def newton_value(a, d):
    """p(d) = sum_i a_i C(d+i-1, i) for the Newton series a of p, in int:
    C(x, i) = x(x-1)...(x-i+1) / i!, which is exact for a negative x too."""
    return sum(x * prod(range(d, d + i)) // factorial(i) for i, x in enumerate(a))


def euler_failures(table, t, alpha):
    """The twists whose diagonal over the rows -s_H..n+1-|B|+s_C (homology,
    corner and dual) lies inside the table's window and whose signed sum
    sum_j (-1)^j entry(j, j + twist) differs from the Hilbert polynomial."""
    lo, hi = table.window
    row_lo, row_hi = -t.s_H, t.n + 1 - len(t.B) + t.s_C
    rows = range(row_lo, row_hi + 1)
    a = newton_series(alpha.values)
    return [twist for twist in range(lo - row_lo, hi - row_hi + 1)
            if table_euler(table, twist, rows) != newton_value(a, twist)]


def dual_identity_holds(t, alpha, dual):
    """P*(d) = (-1)^(|B|-1-n) P(-n-d) for P and P* the Hilbert polynomials
    of alpha and of its dual vector; both have degree <= n, so agreement at
    the n+1 points d = 0..n is agreement as polynomials."""
    sign = -1 if (len(t.B) - 1 - t.n) % 2 else 1
    a, a_dual = newton_series(alpha.values), newton_series(dual.values)
    return all(newton_value(a_dual, d) == sign * newton_value(a, -t.n - d) for d in range(t.n + 1))


def alternating_sum(family):
    """sum_q (-1)^q chi_q as a RatPoly, for a family of Newton series."""
    return sum((newton_poly(c) * (-1) ** q for q, c in enumerate(family)), RatPoly())


def psi_strand_betti(t, fam):
    """Betti entries of rotate^2(t) from the psi strands: the strand diagram
    of the psi family (psi_q contributes C(n, k) a_k at twist n - k), its
    twists reflected d -> n - d and its order reversed."""
    acc = {}
    for psi in fam.psi_series:
        for k, r in enumerate(hsq_of_series(psi, t.n)):
            if r:
                acc[t.n - k] = acc.get(t.n - k, 0) + r
    reflected = [(t.n - d, acc[d]) for d in sorted(acc)][::-1]
    return tuple((q, d, r) for q, (d, r) in enumerate(reflected))


def rotation_solved_betti(t):
    """Betti diagrams of t, rotate(t) and rotate^2(t), each from its own
    solve: three independent nullspace problems, the reference that the
    one-solve `triplet_betti` is compared against."""
    diagrams = []
    cur = t
    for _ in range(3):
        diagrams.append(betti(cur, solve_alpha(cur)))
        cur = cur.rotate()
    return tuple(diagrams)


def rotation_digests(records):
    """Four order-free digests of one census, records (T, (Betti T, chi-strand Betti of T,
    psi-strand Betti of T)) as triplet_betti gives them: the sums mod 2^64 of h(T, Betti T),
    h(rotate T, chi strands of T), h(rotate^2 T, psi strands of T) and h(dual T, Betti T
    reflected), h the 8-byte blake2b of the pair's repr; Betti T reflected reads its entries
    backwards, entry k becoming (k, n - d, r).  rotate and dual are bijections on the type-n
    triplets, so over a whole census the four sums are equal when Betti(rotate T) and
    Betti(rotate^2 T) are the strand sums and Betti(dual T) is Betti T reflected, for every T;
    a fault escapes with chance about 2^-64.  Nothing is held across records."""
    sums = [0, 0, 0, 0]
    for t, diagrams in records:
        reflected = tuple((k, t.n - d, r) for k, (_, d, r) in enumerate(reversed(diagrams[0].entries)))
        keys = (t, t.rotate(), t.rotate().rotate(), t.dual())
        for k, pair in enumerate(zip(keys, (*(d.entries for d in diagrams), reflected))):
            h = blake2b(repr(pair).encode(), digest_size=8).digest()
            sums[k] = (sums[k] + int.from_bytes(h, "big")) % 2**64
    return tuple(sums)


def supernatural_poly(rs):
    """(scale / delta!) * prod_k (t - r_k)."""
    p = RatPoly([Fraction(rs.scale, factorial(rs.delta))])
    for r in rs.roots:
        p = p * RatPoly([-r, 1])
    return p


def cohomology_row(rs, twist):
    """Row index holding the (unique) nonzero cohomology at this twist: the
    number of roots above it, counted one by one."""
    return sum(1 for r in rs.roots if r > twist)


def supernatural_cells(rs, window):
    """{(i, col): |P(col - i)|} over the nonzero cells, as Fractions: every
    (row, column) pair of the window, kept where the row is the twist's
    cohomology row."""
    lo, hi = window
    factor = rs.scale / factorial(rs.delta)
    cells = {}
    for i in range(rs.delta + 1):
        for col in range(lo, hi + 1):
            t = col - i
            if cohomology_row(rs, t) != i:
                continue
            v = abs(factor * prod(t - r for r in rs.roots))
            if v:
                cells[(i, col)] = v
    return cells


def pure_zip_ranks(rs, n):
    """((d, C(n, d) |P(-d)|), ...) over the degrees d in [0, n] that are not
    negated roots, as Fractions."""
    factor = rs.scale / factorial(rs.delta)
    return tuple(
        (d, comb(n, d) * abs(factor * prod(-d - r for r in rs.roots))) for d in range(n + 1) if -d not in rs.roots
    )


def pack(X, n, k):
    """The prefix counts #(X cap [0, u]), u = 0..n, packed k bits a field,
    counted u by u: the definition of the packing `core._candidates` builds
    one element at a time."""
    members = set(X)
    packed = count = 0
    for u in range(n + 1):
        count += u in members
        packed |= count << (k * u)
    return packed


def strand_starts(lo, hi, X):
    """(lo, successor of each nondegree of X in [lo, hi], hi + 2).

    The paper's strand starts lo = x_0 < x_1 < ... < x_s < x_{s+1} = hi + 2:
    the i'th strand is [x_i, x_{i+1} - 2], empty exactly when x_i is not in
    X, and s is the number of nondegrees.  Written by set membership, apart
    from `degsets.nondegrees`, so the two definitions check each other."""
    members = set(X)
    return (lo,) + tuple(u + 1 for u in range(lo, hi + 1) if u not in members) + (hi + 2,)


def balanced_by_prefix_counts(lo, hi, X, Y):
    """Balance of subsets X, Y of [lo, hi] by its definition: for every u in
    [lo, hi], #(X cap [lo,u]) > #([lo,u] minus Y), counted u by u."""
    xs = set(X)
    ys = set(Y)
    in_x = 0
    out_y = 0
    for u in range(lo, hi + 1):
        in_x += u in xs
        out_y += u not in ys
        if in_x <= out_y:
            return False
    return True


def balanced_by_strand_starts(lo, hi, X, Y):
    """Balance of subsets X, Y of [lo, hi] by the strand-start criterion:
    degrees lo = d_0 < d_1 < ... of X against the strand starts
    lo = y_0 < y_1 < ... < y_s of Y, balanced iff y_i > d_i for i = 1..s."""
    if X[0] != lo or Y[0] != lo:
        return False
    y = strand_starts(lo, hi, Y)
    d = X
    s = len(y) - 2
    if len(d) < s + 1:
        return False
    return all(y[i] > d[i] for i in range(1, s + 1))


def balanced_enumeration(n):
    """The type-n triplets in lexicographic (B, H, C) order, by the tuple
    predicate `balanced` on every (B, H) pair and every C of its shape: the
    reference for the library's packed enumeration."""
    cands = [[] for _ in range(n + 1)]

    def extend(ms):
        cands[ms[0]].append((ms, (ms[-1] - ms[0] + 1) - len(ms), reflect(ms, n)))
        for x in range(ms[-1] + 1, n + 1):
            extend(ms + (x,))

    for lo in range(n + 1):
        extend((lo,))
    # C candidates by (min, max, span): min C = c, max C = n - b, span s_C.
    by_shape = {}
    for group in cands:
        for C, s_c, refl_c in group:
            by_shape.setdefault((C[0], C[-1], s_c), []).append((C, refl_c))
    for h, group in enumerate(cands):
        for B, i_b, refl_b in group:
            c = n - B[-1]
            rem = n - h - c - i_b  # = b + s_H + s_C
            for H, s_h, refl_h in group:
                b = n - H[-1]
                Cs = by_shape.get((c, H[-1], rem - b - s_h))
                if not Cs or not balanced(h, n, B, H):
                    continue
                for C, refl_c in Cs:
                    if balanced(c, n, refl_b, C) and balanced(b, n, refl_h, refl_c):
                        yield HomologyTriplet(n, B, H, C)


def betti_kpolynomial(diagram):
    """sum_i (-1)^i beta_i t^(d_i)."""
    out = RatPoly()
    for i, d, r in diagram.entries:
        out = out + RatPoly([0] * d + [(-1) ** i * r])
    return out


def hsq_kpolynomial(hvectors, n):
    """sum_q (-1)^q sum_s h_q(s) t^s (1-t)^(n-s)."""
    out = RatPoly()
    for q, h in enumerate(hvectors):
        out = out + hsq_series(h) * ((-1) ** q)
    return out


def reduction_kpoly(n, i):
    """K-polynomial of the squarefree reduction of O_{P^i} in ambient n:
    K_i(t) = sum_k (-1)^k C(n, i+k) C(i+k, k) t^(i+k)."""
    coeffs = [0] * (n + 1)
    for k in range(n - i + 1):
        coeffs[i + k] = (-1) ** k * comb(n, i + k) * comb(i + k, k)
    return RatPoly(coeffs)


def interpolated_family(t, alpha):
    """chi_{p-1} = (-1)^(p-1) (RHS_p - RHS_{p-1}) where RHS_p interpolates
    the Hilbert polynomial through the points 0..-(h_p - 2), as RatPolys.

    Returns (chis, flags) with flags the q whose chi_q drops degree on a
    nonempty strand.
    """
    starts = strand_starts(t.h, t.n - t.b, t.H)
    chis = []
    flags = []
    rhs_prev = RatPoly()
    for p in range(1, len(starts)):
        m = starts[p] - 2
        rhs = sum((basis_poly(m, i) * alpha.values[i] for i in t.B if i <= m), RatPoly())
        chi = rhs - rhs_prev if p % 2 else rhs_prev - rhs
        q = p - 1
        if starts[p] == starts[q] + 1:
            assert not chi, "chi_%d nonzero on an empty strand of %r" % (q, t)
        else:
            assert chi.degree <= m, "deg chi_%d > %d for %r" % (q, m, t)
            if chi.degree < m:
                flags.append(q)
        chis.append(chi)
        rhs_prev = rhs
    return tuple(chis), flags


def interpolated_chi_family(t, alpha):
    """(chis, psis, flags) as ChiFamily reports them, by interpolation."""
    chis, chi_flags = interpolated_family(t, alpha)
    psis, psi_flags = interpolated_family(t.dual(), dual_alpha(alpha))
    flags = tuple([("chi", q) for q in chi_flags] + [("psi", q) for q in psi_flags])
    return chis, psis, flags


def degree_drop_equations(n, b):
    """Rows whose joint vanishing says from_basis(alpha, n) has degree <= n-b.

    Row j (j = 0..b-1) is sum_i alpha_i C(n-j, i) = 0.
    """
    if not 0 <= b <= n:
        raise ValueError("need 0 <= b <= n")
    return tuple(tuple(comb(n - j, i) for i in range(n + 1)) for j in range(b))


def int_rows(rows):
    """Each row times the lcm of its denominators: int rows, same row space."""
    out = []
    for row in rows:
        row = [Fraction(x) for x in row]
        scale = lcm(*(x.denominator for x in row))
        out.append([int(x * scale) for x in row])
    return out


def _naive_nullspace(rows, ncols):
    """Independent oracle: plain fraction Gauss-Jordan, no pivoting tricks."""
    mat = [[Fraction(x) for x in r] for r in rows]
    piv = []
    r = 0
    for c in range(ncols):
        k = next((i for i in range(r, len(mat)) if mat[i][c]), None)
        if k is None:
            continue
        mat[r], mat[k] = mat[k], mat[r]
        mat[r] = [x / mat[r][c] for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c]:
                f = mat[i][c]
                mat[i] = [x - f * y for x, y in zip(mat[i], mat[r])]
        piv.append(c)
        r += 1
    basis = []
    for f in [c for c in range(ncols) if c not in piv]:
        v = [Fraction(0)] * ncols
        v[f] = Fraction(1)
        for i, c in enumerate(piv):
            v[c] = -mat[i][f]
        basis.append(tuple(v))
    return basis, len(piv)


def rank_mod_p(rows, ncols, p=2**61 - 1):
    """Rank of an int matrix mod the prime p, by plain Gaussian elimination.
    It is at most the rank over Q."""
    mat = [[x % p for x in r] for r in rows]
    rank = 0
    for c in range(ncols):
        k = next((i for i in range(rank, len(mat)) if mat[i][c]), None)
        if k is None:
            continue
        mat[rank], mat[k] = mat[k], mat[rank]
        inv = pow(mat[rank][c], -1, p)
        pivot = mat[rank] = [x * inv % p for x in mat[rank]]
        for i in range(rank + 1, len(mat)):
            if mat[i][c]:
                f = mat[i][c]
                mat[i] = [(x - f * y) % p for x, y in zip(mat[i], pivot)]
        rank += 1
    return rank


def nullity_certificate(rows, v):
    """Proof, without the Bareiss solve, that the nonzero int vector v spans
    the kernel of the int rows: every row times v is 0 exactly over Z, and
    the rank is len(v) - 1.  The rank over Q is at least the rank mod a
    prime, so 2^61 - 1, then 2^31 - 1, then the Fraction oracle's rank over
    Q are tried.  Returns the prime, or "Q", that certified it; a failure
    raises ConsistencyError, a counterexample to uniqueness."""
    if not any(v) or any(sum(map(mul, row, v)) for row in rows):
        raise ConsistencyError("%r is not a nonzero kernel vector" % (v,))
    for p in (2**61 - 1, 2**31 - 1):
        if rank_mod_p(rows, len(v), p) == len(v) - 1:
            return p
    rank = _naive_nullspace(rows, len(v))[1]
    if rank != len(v) - 1:
        raise ConsistencyError("rank %d over Q, so the kernel has dimension %d" % (rank, len(v) - rank))
    return "Q"
