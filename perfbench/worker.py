"""One pass of one workload in a fresh interpreter; prints its result as JSON.

    python3 perfbench/worker.py --workload census --seed 1 --mode e2e

Modes: `e2e` times the pass; `untraced` also records the input properties;
`traced` records them and traces every layer.  Passes and operations are
timed in this process's CPU time (`elapsed_s`, `latencies_ms`): on this
single-threaded program it equals wall time on an idle machine, and it
leaves out time the process waited for a CPU another process held.  The
pass's wall time is reported as `wall_s`.  The cli_batch pass reads the
batch on stdin and runs one subcommand (`--command`) through `cli.main`
in-process; run.py checks the output it returns.
"""

import argparse
import hashlib
import io
import json
import os
import sys
from collections import Counter
from time import perf_counter, process_time

import layers
import workloads


def load_package():
    """Import triplets from the checkout's src/, never from site-packages."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    sys.path.insert(0, src)
    import triplets
    import triplets.cli  # not imported by the package itself

    if not os.path.abspath(triplets.__file__).startswith(src + os.sep):
        raise SystemExit("triplets imported from %s, not from %s" % (triplets.__file__, src))
    return triplets


class Inputs:
    """n histogram and repeat share of the inputs a pass sees."""

    def __init__(self):
        self.hist = Counter()
        self.seen = set()
        self.repeats = 0

    def add(self, n, key):
        self.hist[n] += 1
        self.repeats += key in self.seen
        self.seen.add(key)

    def report(self):
        total = sum(self.hist.values())
        return {"n_hist": dict(self.hist), "repeat_share": self.repeats / total if total else 0.0}


def census(pkg, seed, inputs):
    """Every triplet of type n <= 6 through solve, chi family, Betti, table,
    strand assembly and JSON records; the records are hashed as they go."""
    core, solver, tables, squarefree = pkg.core, pkg.solver, pkg.tables, pkg.squarefree
    records, strand_lines = hashlib.sha256(), hashlib.sha256()
    latencies = []
    counts = Counter()
    w0, t0 = perf_counter(), process_time()
    for n in range(1, workloads.CENSUS_MAX_N + 1):
        for t in core.enumerate_triplets(n):
            s = process_time()
            alpha = solver.solve_alpha(t)
            fam = solver.chi_family(t, alpha)
            diagram = solver.betti(t, alpha)
            table = tables.full_table(t, alpha, fam=fam)
            rotated = squarefree.rotated_betti_via_strands(t, alpha, fam)
            records.update(workloads.census_record(t, alpha, diagram, table).encode())
            strand_lines.update((rotated.to_json() + "\n").encode())
            latencies.append((process_time() - s) * 1e3)
            counts[n] += 1
            if inputs is not None:
                inputs.add(n, workloads.order_key(t))
    elapsed, wall = process_time() - t0, perf_counter() - w0
    ok = (dict(counts) == workloads.CENSUS_COUNTS
          and records.hexdigest() == workloads.CENSUS_SHA256
          and strand_lines.hexdigest() == workloads.STRANDS_SHA256)
    ops = sum(workloads.CENSUS_COUNTS.values())
    return {"ops": ops, "failed": 0 if ok else ops, "elapsed_s": elapsed, "wall_s": wall,
            "latencies_ms": latencies, "fingerprint": records.hexdigest()}


def enumerate_(pkg, seed, inputs):
    """The type-8 census, consumed by iteration; count and order are hashed."""
    order = hashlib.sha256()
    count = 0
    w0, t0 = perf_counter(), process_time()
    for t in pkg.core.enumerate_triplets(workloads.ENUMERATE_N):
        key = workloads.order_key(t)
        order.update(key)
        count += 1
        if inputs is not None:
            inputs.add(t.n, key)
    elapsed, wall = process_time() - t0, perf_counter() - w0
    ops = workloads.ENUMERATE_COUNT
    ok = count == ops and order.hexdigest() == workloads.ENUMERATE_SHA256
    return {"ops": ops, "failed": 0 if ok else ops, "elapsed_s": elapsed, "wall_s": wall,
            "fingerprint": order.hexdigest()}


def classical(pkg, seed, inputs):
    """Seeded root sequences through pure_zip and supernatural_table."""
    cl = pkg.classical
    latencies = []
    wall = 0.0
    failed = 0
    for roots, scale, n in workloads.classical_batch(seed):
        w, s = perf_counter(), process_time()
        rs = cl.RootSequence(roots, scale)
        report = cl.pure_zip(rs, n)
        table = cl.supernatural_table(rs)
        latencies.append((process_time() - s) * 1e3)
        wall += perf_counter() - w
        failed += not workloads.classical_ok(roots, scale, n, report, table)
        if inputs is not None:
            inputs.add(n, (roots, scale, n))
    return {"ops": len(latencies), "failed": failed, "elapsed_s": sum(latencies) / 1e3,
            "wall_s": wall, "latencies_ms": latencies}


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=("census", "enumerate", "classical", "cli_batch"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", required=True, choices=("e2e", "untraced", "traced"))
    parser.add_argument("--command", choices=[c[0] for c in workloads.CLI_COMMANDS])
    args = parser.parse_args()

    batch = sys.stdin.read() if args.workload == "cli_batch" else None
    pkg = load_package()
    tracer = None
    if args.mode == "traced":
        tracer = layers.Tracer()
        tracer.install()
    inputs = Inputs() if args.mode != "e2e" and args.workload != "cli_batch" else None

    if args.workload == "cli_batch":
        # One subcommand over the whole batch through cli.main, in-process.
        flags = next(c for c in workloads.CLI_COMMANDS if c[0] == args.command)
        stdin, stdout = sys.stdin, sys.stdout
        sys.stdin, sys.stdout = io.StringIO(batch), io.StringIO()
        w0, t0 = perf_counter(), process_time()
        try:
            code = pkg.cli.main([*flags, "--stdin"])
        except SystemExit as exc:
            code = exc.code
        finally:
            elapsed, wall = process_time() - t0, perf_counter() - w0
            captured = sys.stdout.getvalue()
            sys.stdin, sys.stdout = stdin, stdout
        result = {"elapsed_s": elapsed, "wall_s": wall, "exit": code, "stdout": captured}
    else:
        run = {"census": census, "enumerate": enumerate_, "classical": classical}[args.workload]
        result = run(pkg, args.seed, inputs)
    result["caches"] = layers.cache_stats()
    if inputs is not None:
        result["inputs"] = inputs.report()
    if tracer:
        result["layers"] = tracer.report()
        result["absent"] = tracer.absent
    print(json.dumps(result))


if __name__ == "__main__":
    main()
