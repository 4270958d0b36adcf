"""Hypercohomology tables of homology triplets.

Convention: entry(j, p) = dim H^j(E(p - j)), so the column index p is the
diagonal label printed under the source tables and the twist is t = p - j.
A full table has three regions, on disjoint twists:
  * corner, twists -n..0:   entry(d_q - q, -q) = (-1)^q alpha_{d_q};
  * positive twists t >= 1: entry(-q, -q + t) = chi_q(t);
  * twists t <= -n-1:       entry(n+1-|B|+q, row + t) = psi_q(-n - t).
The polynomials arrive as integer Newton series (see solver), and each row
of values is one run of consecutive integer points, so cells are filled by
prefix sums of differences without building a polynomial.  The nonzero
entries are emitted region by region, with one sign check per row, and
sorted once.  A window is at most MAX_WINDOW_WIDTHS default widths wide.
"""

from collections import namedtuple
from itertools import chain, count, repeat
from operator import itemgetter

from .errors import ConsistencyError
from .linalg import newton_values
from .solver import chi_family, solve_alpha

DOT = "."
MAX_WINDOW_WIDTHS = 4  # widest full_table window, in default widths n + 12: every column is held and rendered


class HyperTable(namedtuple("HyperTable", "window entries")):
    """A table as its window (p_lo, p_hi), an inclusive column range, and
    its nonzero entries ((row j, col p, dim), ...), sorted."""

    __slots__ = ()

    def rows(self):
        return sorted({j for j, _, _ in self.entries}, reverse=True)

    def to_json(self):
        """The bytes json.dumps gives for {"window": [..], "entries": [{"row", "col", "dim"}, ..]},
        formatted in one step: one field triple per entry."""
        window, entries = _ordered(self.window), self.entries
        fields = ", ".join(['{"row": %d, "col": %d, "dim": %d}'] * len(entries))
        return ('{"window": [%d, %d], "entries": [' + fields + "]}") % (*window, *chain.from_iterable(entries))


def _int_ends(window):
    """The window (lo, hi); ends that are not ints, a bool too, are refused."""
    lo, hi = window
    if type(lo) is not int or type(hi) is not int:
        raise ValueError("need a window of integers, got (%r, %r)" % (lo, hi))
    return lo, hi


def _ordered(window):
    """The window (lo, hi) of ints; a reversed window is refused."""
    lo, hi = _int_ends(window)
    if lo > hi:
        raise ValueError("need a window with lo <= hi, got (%d, %d)" % (lo, hi))
    return lo, hi


def default_window(n):
    return (-n - 6, 5)


def _checked_window(window, n):
    """(lo, hi) of ints, default_window(n) for None; at most MAX_WINDOW_WIDTHS * (n + 12) columns wide."""
    if window is None:
        return default_window(n)
    lo, hi = _int_ends(window)
    widest = MAX_WINDOW_WIDTHS * (n + 12)
    if hi - lo + 1 > widest:
        raise ValueError("need a window of at most %d * (n + 12) = %d columns, got %d"
                         % (MAX_WINDOW_WIDTHS, widest, hi - lo + 1))
    return lo, hi


def full_table(t, alpha=None, window=None, fam=None):
    """Assemble the hypercohomology table of the triplet's complex from
    `alpha = solve_alpha(t)` and `fam = chi_family(t, alpha)`, made when not given."""
    n, B, _, _ = t
    # A window is refused before anything is solved.
    window = lo, hi = _checked_window(window, n)
    if lo > -len(B) + 1 or hi < 0:
        raise ValueError("window must contain [%d, 0]" % (-len(B) + 1))
    if alpha is None:
        alpha = solve_alpha(t)
    if fam is None:
        fam = chi_family(t, alpha)
    chi_series, psi_series, _ = fam
    a = alpha.values
    entries = []
    for q, d in enumerate(B):
        v = -a[d] if q % 2 else a[d]
        if v < 0:
            raise ConsistencyError("negative corner entry at (%d, %d)" % (d - q, -q))
        if v:
            entries.append((d - q, -q, v))
    # Row -q holds chi_q(p + q) in column p; an empty strand's row is all zero.
    for q, chi in enumerate(chi_series):
        if chi:
            first = max(lo, -q + 1)
            _add_row(entries, -q, count(first), chi, first + q, hi + q + 1, "homology")
    # Row n+1-|B|+q holds psi_q(row - n - p) in column p, p descending.
    for row, psi in enumerate(psi_series, n + 1 - len(B)):
        if psi:
            last = min(hi, row - n - 1)
            _add_row(entries, row, count(last, -1), psi, row - n - last, row - n - lo + 1, "dual")
    entries.sort()
    return HyperTable(window, tuple(entries))


def _add_row(entries, j, cols, a, start, stop, what):
    """Add to entries the nonzero cells of row j: p(d) for d in range(start, stop),
    p of Newton series a, in the columns `cols`; refuse the row at its first negative value."""
    values = newton_values(a, start, stop)
    if values and min(values) < 0:
        p = next(p for p, v in zip(cols, values) if v < 0)
        raise ConsistencyError("negative %s entry at (%d, %d)" % (what, j, p))
    entries.extend(filter(itemgetter(2), zip(repeat(j), cols, values)))


def render(table):
    """Plain-text grid in the style of the source tables; '.' marks zero.
    A column is as wide as its widest label or entry, and each line is
    formatted in one step from the column widths.  A reversed window is refused,
    and so is an entry outside the window."""
    lo, hi = _ordered(table.window)
    labels = [str(p) for p in range(lo, hi + 1)]
    widths = [len(s) for s in labels]
    cells = [(j, p - lo, str(v)) for j, p, v in table.entries]
    for _, k, s in cells:
        if not 0 <= k <= hi - lo:
            raise ValueError("entry in column %d, outside the window (%d, %d)" % (k + lo, lo, hi))
        if len(s) > widths[k]:
            widths[k] = len(s)
    fmt = " ".join(["%%%ds" % w for w in widths])
    rows = table.rows()
    grid = {j: [DOT] * len(widths) for j in range(rows[0], rows[-1] - 1, -1)} if rows else {}
    for j, k, s in cells:
        grid[j][k] = s
    line = fmt + "  | %d"
    lines = [line % (*g, j) for j, g in grid.items()]
    lines.append("-" * (sum(widths) + len(widths) + 1))
    lines.append(fmt % tuple(labels) + "  | d\\i")
    return "\n".join(lines)
