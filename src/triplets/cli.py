"""Command-line front end.

Exit codes: 0 success, 2 invalid triplet, 3 solver degeneracy
(over/underdetermined system), 4 failed internal consistency check,
64 usage errors.  Output is deterministic;
`--json` switches every subcommand to the documented JSON schemas.  A
library warning is printed as one `warning: ...` line on stderr, and a
reader that closes the pipe early ends the run with exit 0.
"""

import argparse
import json
import os
import sys
import warnings
from fractions import Fraction
from functools import lru_cache, partial
from itertools import islice

from . import classical
from .core import HomologyTriplet, enumerate_triplets, validate_triplet
from .errors import ConsistencyError, DegenerateSystem, TripletError
from .linalg import newton_series_pair
from .solver import betti, solve_alpha
from .squarefree import triplet_betti
from .tables import full_table, render

USAGE_EXIT = 64
OUTPUT_CACHE_SIZE = 1024  # distinct --stdin records whose output one run reuses
ENUMERATE_BLOCK = 4096  # `enumerate` prints its JSON lines joined in blocks of this many
EXCERPT = 100  # a stderr line is at most EXCERPT + 100 UTF-8 bytes: an input excerpt and its message


def _stderr_line(text):
    """Print one stderr line of at most EXCERPT + 100 UTF-8 bytes with its newline: newlines escaped,
    a longer line cut to its head (never inside a character) and `...`; every stderr line but argparse's usage."""
    line = text.replace("\n", "\\n").encode(errors="backslashreplace")
    if len(line) >= EXCERPT + 100:
        line = line[:EXCERPT + 96] + b"..."
    print(line.decode(errors="ignore"), file=sys.stderr)


class Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        _stderr_line("%s: error: %s" % (self.prog, message))
        sys.exit(USAGE_EXIT)


def _typed(convert, expected):
    """An argparse type whose error names the expected form (`--scale 1/0` is a bad value too)."""
    def parse(text):
        try:
            return convert(text)
        except (ValueError, ZeroDivisionError):
            raise argparse.ArgumentTypeError("expected %s, got %r" % (expected, text))
    return parse


_int_list = _typed(lambda text: tuple(map(int, text.split(","))), "a comma-separated integer list")
_scale = _typed(Fraction, "a rational number like 3/2")


def _window(text):
    pair = _int_list(text)
    if len(pair) != 2:
        raise argparse.ArgumentTypeError("expected lo,hi")
    return pair


def _triplets_from(args, parser):
    if args.stdin:
        if (args.n, args.B, args.H, args.C) != (None,) * 4:
            parser.error("--stdin cannot be combined with --n, --B, --H, --C")
        return (HomologyTriplet.from_json(line) for line in sys.stdin if line.strip())
    if args.n is None or args.B is None or args.H is None or args.C is None:
        parser.error("--n, --B, --H, --C are required (or use --stdin)")
    return [validate_triplet(args.n, args.B, args.H, args.C)]


def build_parser():
    parser = Parser(prog="triplets", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=Parser)

    for name in ("validate", "solve", "betti", "triplet", "rotate", "dual", "table"):
        p = sub.add_parser(name)
        p.add_argument("--n", type=int)
        p.add_argument("--B", type=_int_list)
        p.add_argument("--H", type=_int_list)
        p.add_argument("--C", type=_int_list)
        p.add_argument("--stdin", action="store_true", help="read JSON triplets, one per line, from stdin")
        p.add_argument("--json", action="store_true")
    sub.choices["table"].add_argument("--window", type=_window)

    p = sub.add_parser("enumerate")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("zip")  # zip and classical set make_roots: args -> RootSequence
    p.add_argument("--roots", type=_int_list, required=True)
    p.add_argument("--scale", type=_scale, default=Fraction(1))
    p.set_defaults(make_roots=lambda a: classical.RootSequence(a.roots, a.scale))
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("classical")
    csub = p.add_subparsers(dest="family", required=True, parser_class=Parser)
    # One row per family: its subcommand, its constructor, and the (flag, type) pairs passed to it in order.
    for name, build, flags in [("en", classical.eagon_northcott, [("w", int)]),
                               ("br", classical.buchsbaum_rim, [("r", int), ("m", int)]),
                               ("schur", classical.schur_roots, [("lambda", _int_list)]),
                               ("tensor", classical.tensor_roots, [("dims", _int_list), ("weights", _int_list)])]:
        q = csub.add_parser(name)
        for flag, kind in flags:
            q.add_argument("--" + flag, type=kind, required=True)
        q.set_defaults(make_roots=lambda a, build=build, flags=flags: build(*(getattr(a, f) for f, _ in flags)))
        q.add_argument("--n", type=int)
        q.add_argument("--json", action="store_true")
    return parser


def _power_form(series):
    """The polynomial sum_i a_i C(d+i-1, i) of the Newton series a in powers of d,
    printed as `c_0 + c_1*d + c_2*d^2 + ...` with zero terms left out.  It is p_0 of
    the nested p_i = a_i + (d+i)/(i+1) p_{i+1}, each held as int coefficients over den."""
    num, den = [], 1
    for i in reversed(range(len(series))):
        num = [i * x + y for x, y in zip([*num, 0], [0, *num])]
        den *= i + 1
        num[0] += series[i] * den
    terms = []
    for k, c in enumerate(num):
        if c:
            c = Fraction(c, den)
            terms.append(str(c) if k == 0 else "%s*d" % c if k == 1 else "%s*d^%d" % (c, k))
    return " + ".join(terms) or "0"


def _roots_text(roots, n, as_json):
    """The text `zip` and `classical` print, built whole: the pure zip report
    of the root sequence at n, or the roots alone when n is None."""
    head = {"roots": roots.roots, "scale": str(roots.scale)}
    if n is None:
        return json.dumps(head) if as_json else "roots: " + ",".join(map(str, roots.roots))
    report = classical.pure_zip(roots, n)
    if as_json:
        return json.dumps({**head, **report._asdict()})
    return "degrees: %s\nranks: %s\nresolution: %s\ncohen-macaulay: %s" % (
        ",".join(map(str, report.degrees)), ",".join(map(str, report.ranks)), report.is_resolution, report.is_cm)


def _output(cmd, as_json, window, t):
    """The text that subcommand `cmd` prints for the validated triplet t."""
    if cmd == "validate":
        return t.to_json()
    if cmd == "rotate":
        return t.rotate().to_json()
    if cmd == "dual":
        return t.dual().to_json()
    if cmd == "solve":
        alpha = solve_alpha(t)
        if as_json:
            return alpha.to_json()
        return "support: %s\nalpha: %s\nP(d) = %s" % (
            ",".join(map(str, alpha.support)), ",".join(map(str, alpha.on_support())),
            _power_form(newton_series_pair(alpha.values)[0]))
    if cmd == "betti":
        diagram = betti(t)
        return diagram.to_json() if as_json else diagram.render()
    if cmd == "triplet":
        diagrams = triplet_betti(t)
        if as_json:
            return '{"diagrams": [%s]}' % ", ".join(d.to_json() for d in diagrams)
        return "\n".join("%s:\n%s" % (label, d.render())
                         for label, d in zip(("T", "rotate(T)", "rotate^2(T)"), diagrams))
    table = full_table(t, window=window)
    return table.to_json() if as_json else render(table)


def _texts(args, parser):
    """The chunks the subcommand prints, one `print` each: a `zip`/`classical` report
    is one chunk built whole, `enumerate` streams blocks of ENUMERATE_BLOCK lines,
    and the triplet subcommands stream one chunk per record."""
    if args.command == "enumerate":
        lines = map(HomologyTriplet.to_json, enumerate_triplets(args.n))
        return iter(lambda: "\n".join(islice(lines, ENUMERATE_BLOCK)), "")
    if hasattr(args, "make_roots"):  # zip, classical
        return [_roots_text(args.make_roots(args), args.n, args.json)]
    window = getattr(args, "window", None)
    output = lru_cache(maxsize=OUTPUT_CACHE_SIZE)(partial(_output, args.command, args.json, window))
    return map(output, _triplets_from(args, parser))


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        with warnings.catch_warnings():
            warnings.showwarning = lambda message, *_: _stderr_line("warning: %s" % message)
            for text in _texts(args, parser):
                print(text)
        sys.stdout.flush()  # a closed pipe fails here, not at interpreter exit
        return 0
    except BrokenPipeError:
        # The reader is gone: point stdout at devnull so that flushing what
        # is still buffered at interpreter exit cannot fail again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 0
    except TripletError as exc:
        _stderr_line("invalid triplet (%s)" % exc)
        return 2
    except DegenerateSystem as exc:
        _stderr_line("solver degeneracy: %s" % exc)
        return 3
    except ConsistencyError as exc:
        _stderr_line("consistency check failed: %s" % exc)
        return 4
    except ValueError as exc:
        _stderr_line("error: %s" % exc)
        return USAGE_EXIT


if __name__ == "__main__":
    sys.exit(main())
