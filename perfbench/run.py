"""Benchmark of the triplets package.

    python3 perfbench/run.py --workload census --seed 1 --seconds 25 --trace 0

Runs one workload (census, enumerate, cli_batch, classical; see README.md)
from one client in a closed loop, one child process at a time, for at least
--seconds and two passes, and checks every output against values pinned
from the seed commit.  Prints one line per metric, then, as the last line,
one JSON object {"correct", "attempted", "failed", "metrics"}.  With
--trace 0 the metrics are the end_to_end list of BENCHMARK.json; with
--trace 1 they are its per_layer list, from one untraced and one traced
pass.  End-to-end times are CPU times of the processes doing the work.
"""

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
from time import perf_counter

import layers
import workloads
from worker import Inputs, load_package

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORKER = os.path.join(ROOT, "perfbench", "worker.py")
CHILD_TIMEOUT_S = 150
# At least two passes, so that every run spans more than one process.
MIN_PASSES = 2
SETUP_SAMPLES_PER_PASS = 3
CLI = "import sys; from triplets.cli import main; sys.exit(main())"
SETUP_ARGV = {
    # A fresh interpreter importing the package, or for cli_batch one
    # one-triplet `triplets validate` call; each with its expected stdout.
    "import": (["-c", "import triplets"], ""),
    "cli_batch": (["-c", CLI, "validate", "--n", "4", "--B", "0,1,2", "--H", "0,2,4", "--C", "2,3,4"],
                  '{"n": 4, "B": [0, 1, 2], "H": [0, 2, 4], "C": [2, 3, 4]}\n'),
}
PASS_OPS = {
    "census": sum(workloads.CENSUS_COUNTS.values()),
    "enumerate": workloads.ENUMERATE_COUNT,
    "classical": workloads.CLASSICAL_BATCH,
    "cli_batch": workloads.CLI_LINES,
}


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def cpu_children():
    """CPU seconds of every child process ended and waited for so far."""
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


def child(argv, stdin=""):
    """Run one child interpreter to completion; returns (CPU seconds, wall
    seconds, process).  Only one child runs at a time, so the growth of the
    children's CPU time over the call is this child's.

    Children may write bytecode caches, as an installed package has them.
    Their hash seed is fixed, so set and dict layouts do not vary from one
    pass to the next.
    """
    env = dict(os.environ, PYTHONPATH=SRC, PYTHONHASHSEED="0", TRIPLETS_MAX_N=str(workloads.ENUMERATE_N))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    c0, t0 = cpu_children(), perf_counter()
    proc = subprocess.run([sys.executable, *argv], input=stdin, capture_output=True, text=True,
                          cwd=ROOT, env=env, timeout=CHILD_TIMEOUT_S)
    return cpu_children() - c0, perf_counter() - t0, proc


def worker(workload, seed, mode, command=None, stdin=""):
    """One pass in a fresh worker; a pass whose worker fails fails every operation."""
    argv = [WORKER, "--workload", workload, "--seed", str(seed), "--mode", mode]
    if command:
        argv += ["--command", command]
    cpu, wall, proc = child(argv, stdin)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-2000:])
        ops = PASS_OPS[workload]
        return {"ops": ops, "failed": ops, "elapsed_s": cpu, "wall_s": wall, "caches": {}}
    return json.loads(proc.stdout.splitlines()[-1])


def setup_sample(workload):
    """CPU time of one fresh interpreter doing the workload's set-up call."""
    argv, want = SETUP_ARGV["cli_batch" if workload == "cli_batch" else "import"]
    cpu, _, proc = child(argv)
    if proc.returncode != 0 or proc.stdout != want:
        raise BenchError("set-up call failed:\n" + proc.stderr[-2000:])
    return cpu


class CliBatch:
    """The seeded cli_batch and the library's in-process output for each line."""

    def __init__(self, seed):
        triplets = load_package()
        universe = sorted((t.n, list(t.B), list(t.H), list(t.C))
                          for n in range(1, workloads.CLI_MAX_N + 1)
                          for t in triplets.enumerate_triplets(n))
        if len(universe) != workloads.CLI_UNIVERSE:
            raise BenchError("%d triplets with n <= %d, expected %d"
                             % (len(universe), workloads.CLI_MAX_N, workloads.CLI_UNIVERSE))
        self.batch = [(n, tuple(B), tuple(H), tuple(C)) for n, B, H, C in workloads.cli_batch(universe, seed)]
        self.stdin = workloads.cli_stdin(self.batch)
        self.expected = {key: workloads.cli_expected(triplets, key) for key in set(self.batch)}

    def check(self, command, cpu, wall, code, stdout):
        lines = len(self.batch)
        failed = lines if code != 0 else workloads.cli_failures(stdout, self.batch, self.expected, command)
        return {"ops": lines, "failed": failed, "elapsed_s": cpu, "wall_s": wall}

    def subprocess_pass(self):
        """Each subcommand over the batch in a fresh `triplets` process."""
        calls = []
        for command, *flags in workloads.CLI_COMMANDS:
            cpu, wall, proc = child(["-c", CLI, command, *flags, "--stdin"], self.stdin)
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr[-2000:])
            calls.append(self.check(command, cpu, wall, proc.returncode, proc.stdout))
        return {
            "ops": sum(c["ops"] for c in calls),
            "failed": sum(c["failed"] for c in calls),
            "elapsed_s": sum(c["elapsed_s"] for c in calls),
            "wall_s": sum(c["wall_s"] for c in calls),
        }

    def worker_passes(self, seed):
        """Each subcommand over the batch through cli.main in a fresh worker,
        untraced then traced; returns the untraced and the traced passes."""
        out = {"untraced": [], "traced": []}
        for command, *_ in workloads.CLI_COMMANDS:
            for mode, passes in out.items():
                res = worker("cli_batch", seed, mode, command, self.stdin)
                checked = self.check(command, res["elapsed_s"], res["wall_s"], res.get("exit", 1),
                                     res.get("stdout", ""))
                passes.append(dict(res, **checked))
        return out["untraced"], out["traced"]

    def inputs(self):
        inputs = Inputs()
        for key in self.batch:
            inputs.add(key[0], key)
        return inputs.report()


def percentile(xs, q):
    """Nearest-rank percentile."""
    xs = sorted(xs)
    return xs[max(0, math.ceil(q * len(xs)) - 1)]


def end_to_end(args):
    setup_sample(args.workload)  # warm-up: writes the bytecode caches
    cli = CliBatch(args.seed) if args.workload == "cli_batch" else None
    passes = []
    setup = []
    t0 = perf_counter()
    while len(passes) < MIN_PASSES or perf_counter() - t0 < args.seconds:
        # Set-up samples are spread over the run, like the passes.
        setup += [setup_sample(args.workload) for _ in range(SETUP_SAMPLES_PER_PASS)]
        passes.append(cli.subprocess_pass() if cli else worker(args.workload, args.seed, "e2e"))
    # The host's speed drifts by 10-20% over seconds, so throughput and the
    # median latency pool the whole run rather than follow one pass:
    # throughput is completed operations over the time of all passes, and
    # the median is taken over the operations of all passes.  The 99th
    # percentile rests on the slowest 1% of a pass, which one burst on the
    # host can inflate, so it is taken per pass and the median over passes
    # reported.  Latency is per operation where the workload observes it
    # (census, classical); elsewhere the run's time per operation.  Times
    # are CPU times of the processes doing the work (see worker.py); the
    # wall-time throughput is printed as a note.
    ops = sum(p["ops"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    cpu = sum(p["elapsed_s"] for p in passes)
    amortized = [1e3 * cpu / ops]
    lat = [x for p in passes for x in p.get("latencies_ms", ())] or amortized
    values = {
        "throughput_per_s": (ops - failed) / cpu,
        "latency_p50_ms": statistics.median(lat),
        "latency_p99_ms": statistics.median(percentile(p.get("latencies_ms") or amortized, 0.99) for p in passes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024,
        "setup_s": statistics.median(setup),
    }
    notes = {
        "passes": len(passes),
        "wall_throughput_per_s": (ops - failed) / sum(p["wall_s"] for p in passes),
        "setup_samples": len(setup),
        "latency_samples": len(lat),
        "failed_frac": failed / ops,
    }
    return ops, failed, values, notes


def per_layer(args):
    if args.workload == "cli_batch":
        cli = CliBatch(args.seed)
        untraced, traced = cli.worker_passes(args.seed)
        inputs = cli.inputs()
    else:
        untraced, traced = [worker(args.workload, args.seed, "untraced")], [worker(args.workload, args.seed, "traced")]
        inputs = traced[0].get("inputs", {"n_hist": {}, "repeat_share": 0.0})

    values = dict.fromkeys(layers.Tracer().report(), 0)  # zeros where a worker failed
    for p in traced:
        for name, v in p.get("layers", {}).items():
            values[name] += v
    for name, _, _ in layers.CACHES:
        stats = [p["caches"].get(name, [0, 0, 0]) for p in traced]
        hits, misses = sum(s[0] for s in stats), sum(s[1] for s in stats)
        values[name + ".hit_rate"] = hits / (hits + misses) if hits + misses else 0.0
        values[name + ".entries"] = max(s[2] for s in stats)
    # Layers are timed in wall time, so the shares below are of wall time.
    wall = sum(p["wall_s"] for p in traced)
    values["trace.overhead_frac"] = wall / sum(p["wall_s"] for p in untraced) - 1
    values["trace.attributed_frac"] = sum(values.get(layer + ".self_s", 0) for layer in layers.LAYERS) / wall
    absent = sorted({a for p in traced for a in p.get("absent", ())})
    values["trace.layers_absent"] = len(absent)
    values["input.repeat_share"] = inputs["repeat_share"]
    hist = {int(n): count for n, count in inputs["n_hist"].items()}
    for n in range(1, workloads.CLASSICAL_MAX_N + 1):
        values["input.n_hist.%d" % n] = hist.get(n, 0)

    passes = untraced + traced
    ops = sum(p["ops"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    notes = {"traced_wall_s": wall, "absent": absent, "failed_frac": failed / ops}
    return ops, failed, values, notes


def main():
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(PASS_OPS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    try:
        if not os.path.isfile(os.path.join(SRC, "triplets", "__init__.py")):
            raise BenchError("no triplets package under %s" % SRC)
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            declared = json.load(f)["per_layer" if args.trace else "end_to_end"]
        ops, failed, values, notes = (per_layer if args.trace else end_to_end)(args)
    except (BenchError, OSError, subprocess.TimeoutExpired) as exc:
        print("benchmark error: %s" % exc, file=sys.stderr)
        return 1

    metrics = {}
    for m in declared:
        value = values[m["name"]]
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        print("%-48s %16.6g %s" % (m["name"], value, m["unit"]))
    for key, value in notes.items():
        print("# %s: %s" % (key, value))
    print(json.dumps({"correct": failed == 0, "attempted": ops, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
