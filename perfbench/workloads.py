"""Inputs, pinned outputs and output checks of the four benchmark workloads.

Inputs depend only on the seed.  The pinned digests were computed from the
seed commit of the library; every later commit must reproduce them.
"""

import json
import random
from fractions import Fraction
from math import comb, factorial, gcd, prod

# census: every triplet of type n <= 6, in enumeration order.
CENSUS_MAX_N = 6
CENSUS_COUNTS = {1: 3, 2: 9, 3: 33, 4: 150, 5: 795, 6: 4609}
# sha256 of the census JSONL (one census_record line per triplet).
CENSUS_SHA256 = "e92d79c19d9901d5c0e5ccc44d99a8aa6803faa32722bf6740c2542dd09676c8"
# sha256 of the strand-assembled rotated Betti diagrams, one to_json line each.
STRANDS_SHA256 = "ac1707febc4bd2530b05c5071cafb516bf435c68059b63dd99cf443a365365ce"

# enumerate: the type-8 census, consumed by iteration.
ENUMERATE_N = 8
ENUMERATE_COUNT = 175560
ENUMERATE_SHA256 = "0559ce7a662226bab5d20a1464c3f8f15857b826470ac25cb522d4351bba89bf"

# cli_batch: a batch of valid n <= 7 triplets, half of them from a hot set.
CLI_MAX_N = 7
CLI_UNIVERSE = 33661
CLI_LINES = 1000
CLI_HOT = 64
CLI_COMMANDS = (("solve", "--json"), ("betti", "--json"), ("table",), ("triplet", "--json"))

# classical: root sequences of four families, each with an n in [delta, 12].
CLASSICAL_BATCH = 2000
CLASSICAL_MAX_N = 12


def census_record(t, alpha, diagram, table):
    """One JSONL line of the census fingerprint: triplet, alpha, Betti, table."""
    return '{"triplet": %s, "alpha": %s, "betti": %s, "table": %s}\n' % (
        t.to_json(), alpha.to_json(), diagram.to_json(), table.to_json())


def order_key(t):
    """Compact bytes of (B, H, C); entries are at most n, below the separators."""
    return bytes((*t.B, 253, *t.H, 254, *t.C, 255))


# -- cli_batch ------------------------------------------------------------

def cli_batch(universe, seed):
    """CLI_LINES triplets drawn from the sorted universe of (n, B, H, C).

    Each line is a hot-set member with probability 1/2, else a uniform draw
    from the whole universe, so about half the lines repeat earlier ones.
    """
    rng = random.Random(seed)
    hot = rng.sample(universe, CLI_HOT)
    return [rng.choice(hot) if rng.random() < 0.5 else rng.choice(universe) for _ in range(CLI_LINES)]


def cli_stdin(batch):
    return "".join(json.dumps({"n": n, "B": B, "H": H, "C": C}) + "\n" for n, B, H, C in batch)


def cli_expected(lib, key):
    """In-process library output of each CLI subcommand for one triplet."""
    t = lib.validate_triplet(*key)
    diagrams = lib.triplet_betti(t)
    return {
        "solve": lib.solve_alpha(t).to_json(),
        "betti": lib.betti(t).to_json(),
        "table": lib.render(lib.full_table(t)),
        "triplet": json.dumps({"diagrams": [json.loads(d.to_json()) for d in diagrams]}),
    }


def cli_failures(stdout, batch, expected, command):
    """Number of batch lines whose output chunk differs from the library's.

    Output that is short, long or out of step fails every line it covers.
    """
    lines = stdout.split("\n")
    pos = 0
    failed = 0
    for key in batch:
        want = expected[key][command].split("\n")
        if lines[pos:pos + len(want)] != want:
            failed += 1
        pos += len(want)
    if pos != len(lines) - 1 or lines[-1] != "":
        return len(batch)
    return failed


# -- classical ------------------------------------------------------------

def _family_roots(rng):
    family = rng.choice(("en", "br", "schur", "tensor"))
    if family == "en":
        w = rng.randint(2, 10)
        return tuple(range(-1, -w, -1))
    if family == "br":
        r, m = rng.randint(1, 5), rng.randint(1, 5)
        return tuple(range(-r - 1, -r - m - 1, -1))
    if family == "schur":
        m = rng.randint(1, 4)
        lam = sorted((rng.randint(-1, 4) for _ in range(m)), reverse=True)
        return tuple(sorted((-lam[i] - m + i for i in range(m)), reverse=True))
    roots = []
    u = rng.randint(0, 2)
    for _ in range(rng.randint(1, 3)):
        w = rng.randint(1, 4)
        roots.extend(range(-u - w + 1, -u))
        u += w - 1 + rng.randint(0, 2)
    return tuple(sorted(roots, reverse=True))


def _twists(roots, n):
    """Every twist at which pure_zip or the default supernatural table evaluates."""
    return range(min(-n, -2 * len(roots) - 6), 6)


def classical_batch(seed):
    """CLASSICAL_BATCH (roots, scale, n) with every evaluated value integral.

    The scale is delta! * k / g, where g is the gcd of prod (t - r) over the
    evaluated twists, so each value is an integer and no operation fails.
    """
    rng = random.Random(seed)
    out = []
    for _ in range(CLASSICAL_BATCH):
        roots = _family_roots(rng)
        n = rng.randint(max(1, len(roots)), CLASSICAL_MAX_N)
        g = gcd(*(prod(t - r for r in roots) for t in _twists(roots, n)))
        out.append((roots, Fraction(factorial(len(roots)) * rng.randint(1, 3), g), n))
    return out


def classical_ok(roots, scale, n, report, table):
    """Check pure_zip and supernatural_table against their closed forms."""
    delta = len(roots)

    def P(t):
        return scale * prod(t - r for r in roots) / factorial(delta)

    degrees = tuple(d for d in range(n + 1) if -d not in roots)
    ranks = tuple(comb(n, d) * abs(P(-d)) for d in degrees)
    is_resolution = delta == 0 or roots[0] <= 0
    is_cm = is_resolution and (delta == 0 or -n <= roots[-1])
    window = (-delta - 6, 5)
    cells = tuple(
        (i, col, abs(P(col - i)))
        for i in range(delta + 1)
        for col in range(window[0], window[1] + 1)
        if sum(r > col - i for r in roots) == i and P(col - i)
    )
    return (
        (report.n, report.degrees, report.ranks, report.is_resolution, report.is_cm)
        == (n, degrees, ranks, is_resolution, is_cm)
        and table.window == window
        and table.entries == cells
    )
