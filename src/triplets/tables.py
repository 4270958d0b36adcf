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

from dataclasses import dataclass
from itertools import chain, count, repeat
from operator import itemgetter

from .errors import ConsistencyError
from .linalg import newton_values
from .solver import chi_family, solve_alpha

DOT = "."
MAX_WINDOW_WIDTHS = 4  # widest full_table window, in default widths n + 12: every column is held and rendered


@dataclass(frozen=True)
class HyperTable:
    window: tuple  # (p_lo, p_hi) inclusive column range
    entries: tuple  # ((row j, col p, dim), ...) sorted

    def rows(self):
        return sorted({j for j, _, _ in self.entries}, reverse=True)

    def to_json(self):
        """The bytes json.dumps gives for {"window": [..], "entries": [{"row", "col", "dim"}, ..]},
        formatted in one step: one field triple per entry."""
        fields = ", ".join(['{"row": %d, "col": %d, "dim": %d}'] * len(self.entries))
        return ('{"window": [%d, %d], "entries": [' + fields + "]}") % (*self.window, *chain.from_iterable(self.entries))


def default_window(n):
    return (-n - 6, 5)


def full_table(t, alpha=None, window=None, fam=None):
    """Assemble the hypercohomology table of the triplet's complex from
    `alpha = solve_alpha(t)` and `fam = chi_family(t, alpha)`, made when not given."""
    if window is None:
        window = default_window(t.n)
    lo, hi = window
    widest = MAX_WINDOW_WIDTHS * (t.n + 12)
    # A window is refused before anything is solved.
    if hi - lo + 1 > widest:
        raise ValueError("need a window of at most %d * (n + 12) = %d columns, got %d"
                         % (MAX_WINDOW_WIDTHS, widest, hi - lo + 1))
    if lo > -len(t.B) + 1 or hi < 0:
        raise ValueError("window must contain [%d, 0]" % (-len(t.B) + 1))
    if alpha is None:
        alpha = solve_alpha(t)
    if fam is None:
        fam = chi_family(t, alpha)
    entries = []
    for q, d in enumerate(t.B):
        v = -alpha.values[d] if q % 2 else alpha.values[d]
        if v < 0:
            raise ConsistencyError("negative corner entry at (%d, %d)" % (d - q, -q))
        if v:
            entries.append((d - q, -q, v))
    # Row -q holds chi_q(p + q) in column p.
    for q, chi in enumerate(fam.chi_series):
        first = max(lo, -q + 1)
        _extend_row(entries, -q, count(first), newton_values(chi, first + q, hi + q + 1), "homology")
    # Row n+1-|B|+q holds psi_q(row - n - p) in column p, p descending.
    base = t.n + 1 - len(t.B)
    for q, psi in enumerate(fam.psi_series):
        row = base + q
        last = min(hi, row - t.n - 1)
        values = newton_values(psi, row - t.n - last, row - t.n - lo + 1)
        _extend_row(entries, row, count(last, -1), values, "dual")
    entries.sort()
    return HyperTable(tuple(window), tuple(entries))


def _extend_row(entries, j, cols, values, what):
    """Append the nonzero entries (j, p, v) of row j, whose columns `cols` run
    alongside `values`; a negative value is refused at its first column."""
    if values and min(values) < 0:
        p = next(p for p, v in zip(cols, values) if v < 0)
        raise ConsistencyError("negative %s entry at (%d, %d)" % (what, j, p))
    entries += filter(itemgetter(2), zip(repeat(j), cols, values))


def render(table):
    """Plain-text grid in the style of the source tables; '.' marks zero."""
    lo, hi = table.window
    cols = list(range(lo, hi + 1))
    cells = {(j, p): v for j, p, v in table.entries}
    rows = table.rows()
    if rows:
        rows = list(range(max(rows), min(rows) - 1, -1))
    grid = [[str(cells.get((j, p), DOT)) for p in cols] for j in rows]
    labels = [str(p) for p in cols]
    widths = [max(len(labels[k]), *(len(g[k]) for g in grid)) if grid else len(labels[k]) for k in range(len(cols))]
    lines = []
    for j, g in zip(rows, grid):
        lines.append(" ".join(s.rjust(w) for s, w in zip(g, widths)) + "  | " + str(j))
    body_width = sum(widths) + len(widths) - 1
    lines.append("-" * (body_width + 2))
    lines.append(" ".join(s.rjust(w) for s, w in zip(labels, widths)) + "  | d\\i")
    return "\n".join(lines)
