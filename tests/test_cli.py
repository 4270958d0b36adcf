import hashlib
import io
import json
import os
import random
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from triplets import ConsistencyError, DegenerateSystem, build_equations, enumerate_triplets, triplet_betti, validate_triplet
from triplets.cli import EXCERPT, _power_form, _texts, build_parser, main
from triplets.solver import MAX_N
from triplets.tables import MAX_WINDOW_WIDTHS

from oracles import newton_poly

T64_ARGS = ["--n", "4", "--B", "0,1,2", "--H", "0,2,4", "--C", "2,3,4"]
T64_LINE = '{"n": 4, "B": [0, 1, 2], "H": [0, 2, 4], "C": [2, 3, 4]}\n'
SRC = Path(__file__).resolve().parents[1] / "src"

# sha256 of the `solve --stdin` text output over every triplet with n <= 6,
# in enumeration order: support, alpha and the P(d) = line of each.
SOLVE_TEXT_N6_SHA256 = "43320d123236bbdc0ec1bbc4d73c61094b1d5f7806867e446ca7fa719a019f13"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_validate_ok(capsys):
    code, out, _ = run(capsys, "validate", *T64_ARGS)
    assert code == 0
    assert json.loads(out) == {"n": 4, "B": [0, 1, 2], "H": [0, 2, 4], "C": [2, 3, 4]}


def test_validate_invalid_exit_2(capsys):
    code, out, err = run(capsys, "validate", "--n", "3", "--B", "0,1", "--H", "0,1", "--C", "0,1")
    assert code == 2
    assert out == ""
    assert "invalid triplet" in err and "endpoints" in err


def test_solve_json_schema(capsys):
    code, out, _ = run(capsys, "solve", *T64_ARGS, "--json")
    assert code == 0
    assert json.loads(out) == {"n": 4, "support": [0, 1, 2], "alpha": [3, -3, 2]}


def test_solve_text(capsys):
    code, out, _ = run(capsys, "solve", *T64_ARGS)
    assert code == 0
    assert "support: 0,1,2" in out and "alpha: 3,-3,2" in out and "P(d) =" in out
    assert out.splitlines()[2] == "P(d) = 3 + 1/4*d + 7/8*d^2 + 3/4*d^3 + 1/8*d^4"


def test_power_form_matches_the_newton_poly_oracle():
    # Seeded series of length 1 to 12 with zero and negative entries, most of
    # which no solved alpha produces; str(RatPoly) prints its power coefficients
    # in the `P(d) =` format.
    rng = random.Random(27)
    cases = [(0,), (5,), (0, 0, 0), (0, 0, -1), (-3, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 7)]
    for _ in range(2000):
        size = rng.choice([9, 10**6])
        cases.append(tuple(rng.randint(-size, size) if rng.random() < 0.6 else 0 for _ in range(rng.randint(1, 12))))
    for a in cases:
        assert _power_form(a) == str(newton_poly(a)), a


def test_solve_text_digest(capsys, monkeypatch):
    text = "".join(t.to_json() + "\n" for n in range(1, 7) for t in enumerate_triplets(n))
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    code, out, err = run(capsys, "solve", "--stdin")
    assert code == 0 and err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == SOLVE_TEXT_N6_SHA256


# Each zip and classical family without --n (zip requires it) and at n = 3 and 6, as text
# and --json, then the library warning, a non-integral rank and two refused values.
ROOTS_FAMILIES = [
    ["zip", "--roots=-1,-2"],
    ["zip", "--roots=0,-3,-4", "--scale", "5/2"],
    ["classical", "en", "--w", "3"],
    ["classical", "br", "--r", "2", "--m", "3"],
    ["classical", "schur", "--lambda", "2,1,-1"],
    ["classical", "tensor", "--dims", "2,1", "--weights", "0,3"],
]
ROOTS_ARGVS = [
    [*argv, *flags]
    for argv in [
        *([*family, *n] for family in ROOTS_FAMILIES for n in ([], ["--n", "3"], ["--n", "6"]) if n or family[0] != "zip"),
        ["zip", "--roots=-1,-2,-3", "--n", "1"],
        ["zip", "--roots=-1,-2", "--scale", "1/3", "--n", "4"],
        ["zip", "--roots=-1", "--n", "-3"],
        ["classical", "en", "--w", "1", "--n", "3"],
    ]
    for flags in ([], ["--json"])
]
# sha256 of the exit code, stdout and stderr of each of ROOTS_ARGVS in turn, as one JSON list each.
ROOTS_SHA256 = "bba20266baef5a6ca5ad348662c0a139cfb0db97501abfa1ea1989fc99d7cd21"


def test_roots_digest(capsys):
    assert len(ROOTS_ARGVS) == 40
    digest = hashlib.sha256()
    for argv in ROOTS_ARGVS:
        digest.update(json.dumps(run(capsys, *argv)).encode())
    assert digest.hexdigest() == ROOTS_SHA256


def test_triplet_subcommands_take_one_flag_list():
    sub = build_parser()._subparsers._group_actions[0]
    names = ["validate", "solve", "betti", "triplet", "rotate", "dual", "table"]
    assert list(sub.choices)[:7] == names
    for name in names:
        flags = [a.option_strings for a in sub.choices[name]._actions]
        window = [["--window"]] if name == "table" else []
        assert flags == [["-h", "--help"], ["--n"], ["--B"], ["--H"], ["--C"], ["--stdin"], ["--json"], *window], name


@pytest.mark.parametrize("argv", [["enumerate", "--n", "6"], ["solve", "--stdin"]])
def test_closed_pipe_exits_quietly(argv, tmp_path):
    # The reader takes one line and closes the pipe while output is pending.
    batch = tmp_path / "batch.jsonl"
    batch.write_text(T64_LINE * 5000)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    with open(batch) as stdin:
        proc = subprocess.Popen([sys.executable, "-m", "triplets.cli", *argv], stdin=stdin,
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    first = proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 0
    assert err == b""
    assert first.startswith(b'{"n": 6, ' if argv[0] == "enumerate" else b"support: 0,1,2")


def test_betti_json(capsys):
    code, out, _ = run(capsys, "betti", *T64_ARGS, "--json")
    assert code == 0
    assert json.loads(out) == {"twists": [0, 1, 2], "ranks": [3, 12, 12]}


def test_triplet_command(capsys):
    code, out, _ = run(capsys, "triplet", *T64_ARGS, "--json")
    assert code == 0
    assert json.loads(out) == {
        "diagrams": [
            {"twists": [0, 1, 2], "ranks": [3, 12, 12]},
            {"twists": [0, 2, 4], "ranks": [3, 6, 3]},
            {"twists": [2, 3, 4], "ranks": [12, 12, 3]},
        ]
    }


def test_triplet_json_matches_json_dumps(capsys, monkeypatch):
    ts = [t for n in range(1, 6) for t in enumerate_triplets(n)]
    monkeypatch.setattr("sys.stdin", io.StringIO("".join(t.to_json() + "\n" for t in ts)))
    code, out, err = run(capsys, "triplet", "--stdin", "--json")
    assert code == 0 and err == ""
    old = "".join(
        json.dumps({"diagrams": [json.loads(d.to_json()) for d in triplet_betti(t)]}) + "\n" for t in ts
    )
    assert out == old


@pytest.mark.parametrize("command", ["validate", "solve", "betti", "triplet", "table"])
def test_permuted_record_same_through_flags_and_stdin(capsys, monkeypatch, command):
    flags = run(capsys, command, "--n", "4", "--B", "2,1,0", "--H", "4,0,2", "--C", "3,4,2")
    monkeypatch.setattr("sys.stdin", io.StringIO('{"n": 4, "B": [2, 1, 0], "H": [4, 0, 2], "C": [3, 4, 2]}\n'))
    assert run(capsys, command, "--stdin") == flags
    assert flags == run(capsys, command, *T64_ARGS)
    # A repeated element is still refused on both paths.
    code, out, err = run(capsys, command, "--n", "4", "--B", "0,1,1,2", "--H", "0,2,4", "--C", "2,3,4")
    assert (code, out) == (2, "") and err.startswith("invalid triplet (interval: B not strictly increasing")
    monkeypatch.setattr("sys.stdin", io.StringIO('{"n": 4, "B": [0, 1, 1, 2], "H": [0, 2, 4], "C": [2, 3, 4]}\n'))
    assert run(capsys, command, "--stdin") == (code, out, err)


def test_table_render_golden(capsys):
    from test_tables import T64_RENDER

    code, out, _ = run(capsys, "table", *T64_ARGS, "--window=-5,3")
    assert code == 0
    assert out == T64_RENDER + "\n"


def test_table_json_roundtrip(capsys, t64_table):
    code, out, _ = run(capsys, "table", *T64_ARGS, "--window=-5,3", "--json")
    assert code == 0
    assert out == t64_table.to_json() + "\n"


def test_rotate_and_dual(capsys):
    code, out, _ = run(capsys, "rotate", "--n", "3", "--B", "0,2,3", "--H", "0,1,2", "--C", "0,2")
    assert code == 0
    assert json.loads(out) == {"n": 3, "B": [1, 2, 3], "H": [1, 3], "C": [0, 2, 3]}
    code, out, _ = run(capsys, "dual", *T64_ARGS)
    assert code == 0
    assert json.loads(out) == {"n": 4, "B": [2, 3, 4], "H": [2, 3, 4], "C": [0, 2, 4]}


def test_enumerate(capsys):
    code, out, _ = run(capsys, "enumerate", "--n", "2")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 9
    seen = [json.loads(line) for line in lines]
    assert all(d["n"] == 2 for d in seen)


# sha256 of what `enumerate --n k` prints for k = 1..6 in turn: all 5599 lines.
ENUMERATE_N6_SHA256 = "e89283c3873aee1a7facdf97c371db3d44f7c74baa1045ce383dd42f9953ded4"


def test_enumerate_digest(capsys):
    digest = hashlib.sha256()
    for k in range(1, 7):
        code, out, err = run(capsys, "enumerate", "--n", str(k))
        assert (code, err) == (0, "")
        digest.update(out.encode())
    assert digest.hexdigest() == ENUMERATE_N6_SHA256


@pytest.mark.parametrize("block", [1, 2, 3, 4])
@pytest.mark.parametrize("n", [1, 2])
def test_enumerate_blocks_print_every_line_once(capsys, monkeypatch, n, block):
    # n = 1 and 2 print 3 and 9 lines: blocks of 1 and 3 divide both counts,
    # 2 and 4 leave a remainder, and 4 holds all of n = 1 in one block.
    monkeypatch.setattr("triplets.cli.ENUMERATE_BLOCK", block)
    want = "".join(t.to_json() + "\n" for t in enumerate_triplets(n))
    assert run(capsys, "enumerate", "--n", str(n)) == (0, want, "")


def test_stdin_batch(capsys, monkeypatch):
    lines = (
        '{"n": 4, "B": [0, 1, 2], "H": [0, 2, 4], "C": [2, 3, 4]}\n'
        '{"n": 3, "B": [0, 2, 3], "H": [0, 1, 2], "C": [0, 2]}\n'
    )
    monkeypatch.setattr("sys.stdin", io.StringIO(lines))
    code, out, _ = run(capsys, "solve", "--stdin", "--json")
    assert code == 0
    got = [json.loads(line) for line in out.strip().splitlines()]
    assert got == [
        {"n": 4, "support": [0, 1, 2], "alpha": [3, -3, 2]},
        {"n": 3, "support": [0, 2, 3], "alpha": [2, -1, 1]},
    ]


@pytest.mark.parametrize("record", [
    '[4, [0, 1, 2], [0, 2, 4], [2, 3, 4]]',  # not an object
    '{"n": 4}',  # missing keys
    '{"n": "4", "B": [0, 1, 2], "H": [0, 2, 4], "C": [2, 3, 4]}',  # n a string
    '{"n": true, "B": [0, 1], "H": [0, 1], "C": [0, 1]}',  # n a bool
    '{"n": 4, "B": "x", "H": [0, 2, 4], "C": [2, 3, 4]}',  # B not a list
    '{"n": 4, "B": [0, 1, 2], "H": [0, 2.0, 4], "C": [2, 3, 4]}',  # H not all ints
    'not json',  # not JSON at all
])
def test_malformed_stdin_record_exit_2(capsys, monkeypatch, record):
    monkeypatch.setattr("sys.stdin", io.StringIO(record + "\n"))
    code, out, err = run(capsys, "solve", "--stdin", "--json")
    assert code == 2
    assert out == ""
    assert err.startswith("invalid triplet (record: ") and len(err.splitlines()) == 1


@pytest.mark.parametrize("line, message", [
    ("[" * 100000 + "]" * 100000, "record: nested too deeply: [[["),  # past the decoder's recursion limit
    ('{"n": %s, "B": [0], "H": [0], "C": [0]}' % ("9" * 5000),  # int past the 4300-digit conversion limit
     'record: integer too long: {"n": 999'),
    # Valid JSON, but the list echoed in the error is 150000 characters long.
    ('{"n": 4, "B": [%s], "H": [0], "C": [0]}' % ", ".join(["0"] * 50000), "interval: B not strictly increasing: (0, 0"),
    # Valid JSON, but n has 4001 digits and the endpoints message echoes n - min C.
    ('{"n": 1%s, "B": [0], "H": [0], "C": [0]}' % ("0" * 4000), "endpoints: max B = 0 but n - min C = 1000"),
], ids=["deep", "bigint", "longlist", "bigderived"])
@pytest.mark.parametrize("argv", [["validate", "--stdin", "--json"], ["solve", "--stdin"]])
def test_undecodable_stdin_record_exit_2(capsys, monkeypatch, line, message, argv):
    monkeypatch.setattr("sys.stdin", io.StringIO(line + "\n"))
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("invalid triplet (" + message)
    assert "not JSON" not in err
    # The echoed input is cut to an excerpt.
    assert len(err) <= EXCERPT + 100


def test_stdin_streams_lines_before_a_bad_one(capsys, monkeypatch):
    good = '{"n": 4, "B": [0, 1, 2], "H": [0, 2, 4], "C": [2, 3, 4]}'
    monkeypatch.setattr("sys.stdin", io.StringIO(good + "\nnot json\n"))
    code, out, err = run(capsys, "solve", "--stdin", "--json")
    assert code == 2
    assert [json.loads(line) for line in out.splitlines()] == [{"n": 4, "support": [0, 1, 2], "alpha": [3, -3, 2]}]
    assert err == "invalid triplet (record: not JSON: not json)\n"


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=3), inner, max_size=4),
    max_leaves=12,
)
_VALID = [json.loads(t.to_json()) for n in range(1, 5) for t in enumerate_triplets(n)]


@st.composite
def _near_valid(draw):
    """A valid n <= 4 record with at most one field dropped or perturbed."""
    rec = dict(draw(st.sampled_from(_VALID)))
    key = draw(st.none() | st.sampled_from(["n", "B", "H", "C"]))
    if key is None:
        return rec
    how = draw(st.sampled_from(["drop", "json", "borrow", "shift", "extend"]))
    if how == "drop":
        del rec[key]
    elif how == "json":
        rec[key] = draw(_JSON)
    elif how == "borrow":
        rec[key] = draw(st.sampled_from(_VALID))[key]
    elif key == "n":
        rec["n"] += draw(st.integers(-3, 3))
    elif how == "shift":
        rec[key] = [x + draw(st.integers(-2, 2)) for x in rec[key]]
    else:
        rec[key] = rec[key] + draw(st.lists(st.integers(-2, 9), max_size=2))
    return rec


@pytest.mark.parametrize("command", ["validate", "solve", "betti", "triplet", "rotate", "dual", "table"])
@settings(max_examples=60, deadline=None)
@given(
    records=st.lists(_near_valid(), min_size=1, max_size=3) | st.lists(_JSON, min_size=1, max_size=3),
    ascii_only=st.booleans(),
)
def test_stdin_fuzz_exits_cleanly(command, records, ascii_only):
    text = "".join(json.dumps(r, ensure_ascii=ascii_only) + "\n" for r in records)
    out, err = io.StringIO(), io.StringIO()
    stdin = sys.stdin
    sys.stdin = io.StringIO(text)
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = main([command, "--stdin", "--json"])
    finally:
        sys.stdin = stdin
    assert code in (0, 2, 3, 4, 64)
    err = err.getvalue()
    assert (err == "") if code == 0 else (err.endswith("\n") and err.count("\n") == 1)


def test_zip_command(capsys):
    code, out, _ = run(capsys, "zip", "--roots=-1,-2", "--n", "4", "--json")
    assert code == 0
    assert json.loads(out) == {
        "roots": [-1, -2],
        "scale": "1",
        "n": 4,
        "degrees": [0, 3, 4],
        "ranks": [1, 4, 3],
        "is_resolution": True,
        "is_cm": True,
    }


def test_zip_warning_is_one_line(capsys):
    code, out, err = run(capsys, "zip", "--roots=-1,-2,-3", "--n", "1")
    assert code == 0
    assert out == "degrees: 0\nranks: 1\nresolution: True\ncohen-macaulay: False\n"
    assert err == "warning: n = 1 is smaller than the root count 3\n"


def test_classical_subcommands(capsys):
    code, out, _ = run(capsys, "classical", "en", "--w", "3", "--json")
    assert code == 0
    assert json.loads(out) == {"roots": [-1, -2], "scale": "1"}
    code, out, _ = run(capsys, "classical", "br", "--r", "1", "--m", "2", "--n", "3")
    assert code == 0
    assert "resolution: True" in out and "cohen-macaulay: True" in out
    code, out, _ = run(capsys, "classical", "schur", "--lambda", "1,0")
    assert code == 0
    assert out == "roots: -1,-3\n"
    code, out, _ = run(capsys, "classical", "tensor", "--dims", "2,2", "--weights", "0,2")
    assert code == 0
    assert out == "roots: -1,-3\n"


@pytest.mark.parametrize("argv", [
    ["classical", "en", "--w", "3"],
    ["classical", "en", "--w", "3", "--json"],
    ["classical", "br", "--r", "1", "--m", "2", "--n", "3", "--json"],
    ["classical", "br", "--r", "1", "--m", "2", "--n", "3"],
    ["zip", "--roots=-1,-2", "--n", "4"],
])
def test_roots_report_is_one_chunk(capsys, argv):
    parser = build_parser()
    chunks = list(_texts(parser.parse_args(argv), parser))
    assert len(chunks) == 1
    assert run(capsys, *argv) == (0, chunks[0] + "\n", "")


@pytest.mark.parametrize("flags", [[], ["--json"]])
def test_zip_report_prints_whole_or_not_at_all(capsys, flags):
    # The ranks of a 4200-digit root are past int's string conversion limit;
    # the degrees line before them, 3904 bytes long, is not printed either.
    code, out, err = run(capsys, "zip", "--roots=-" + "9" * 4200, "--n", "1000", *flags)
    assert (code, out) == (64, "")
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert len(err.encode()) <= EXCERPT + 100


def test_solve_bound_exit_64(capsys, monkeypatch):
    # (n, [0..n], [0], [0]) is valid for every n; past MAX_N it is refused before any equation is built.
    def record(n):
        return json.dumps({"n": n, "B": list(range(n + 1)), "H": [0], "C": [0]})

    _batch(monkeypatch, T64_LINE.strip(), record(MAX_N), record(MAX_N + 1), T64_LINE.strip())
    code, out, err = run(capsys, "solve", "--stdin", "--json")
    assert code == 64
    assert [json.loads(line)["n"] for line in out.splitlines()] == [4, MAX_N]
    assert err == "error: need n <= %d to solve, got %d\n" % (MAX_N, MAX_N + 1)


def test_table_window_bound_exit_64(capsys, monkeypatch):
    # T64 has n = 4, so the widest window has MAX_WINDOW_WIDTHS * 16 columns; a
    # wider one is refused before the triplet is solved.
    solved = _counted_solves(monkeypatch)
    width = MAX_WINDOW_WIDTHS * 16
    code, out, _ = run(capsys, "table", *T64_ARGS, "--window=%d,0" % (1 - width))
    assert code == 0 and out.count("| d\\i") == 1 and len(solved) == 1
    code, out, err = run(capsys, "table", *T64_ARGS, "--window=-32000,5")
    assert (code, out, len(solved)) == (64, "", 1)
    assert err == "error: need a window of at most %d * (n + 12) = %d columns, got 32006\n" % (MAX_WINDOW_WIDTHS, width)


def test_usage_errors_exit_64(capsys, monkeypatch):
    with pytest.raises(SystemExit) as exc:
        main(["validate", "--n", "4"])  # missing --B/--H/--C
    assert exc.value.code == 64
    for flags in (["--n", "4"], ["--B", "0,1,2"], ["--H", "0,2,4"], ["--C", "2,3,4"], T64_ARGS):
        monkeypatch.setattr("sys.stdin", io.StringIO(T64_LINE))
        with pytest.raises(SystemExit) as exc:
            main(["solve", *flags, "--stdin"])  # not silently dropped
        assert exc.value.code == 64
        assert "--stdin cannot be combined with --n, --B, --H, --C" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 64
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--bogus-flag"])
    assert exc.value.code == 64
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--n", "x", "--B", "0", "--H", "0", "--C", "0"])
    assert exc.value.code == 64


def test_value_errors_exit_64(capsys):
    code, _, err = run(capsys, "enumerate", "--n", "99")
    assert code == 64 and "exceeds bound 9" in err
    code, _, err = run(capsys, "classical", "en", "--w", "1")
    assert code == 64
    code, _, err = run(capsys, "zip", "--roots=1,2", "--n", "3")
    assert code == 64  # roots not strictly decreasing
    code, out, err = run(capsys, "zip", "--roots=-1", "--n", "-3")
    assert code == 64 and out == "" and "n >= 0" in err
    code, out, err = run(capsys, "classical", "en", "--w", "3", "--n", "-1")
    assert code == 64 and out == "" and "n >= 0" in err


def test_degeneracy_exit_3(capsys, monkeypatch):
    t = validate_triplet(4, [0, 1, 2], [0, 2, 4], [2, 3, 4])

    def boom(_):
        raise DegenerateSystem(t, 0)

    monkeypatch.setattr("triplets.cli.solve_alpha", boom)
    code, out, err = run(capsys, "solve", *T64_ARGS)
    assert code == 3 and out == ""
    assert err == "solver degeneracy: equation system has no nonzero solution: %r\n" % (t,)


def test_underdetermined_exit_3(capsys, monkeypatch, t64):
    # A solution space of dimension 2 is a counterexample, reported on one line.
    monkeypatch.setattr("triplets.solver.build_equations", lambda t: build_equations(t)[:-1])
    code, out, err = run(capsys, "solve", *T64_ARGS)
    assert code == 3 and out == ""
    assert err == "solver degeneracy: solution space has dimension 2: %r\n" % (t64,)


def test_consistency_error_exit_4(capsys, monkeypatch):
    def boom(_):
        raise ConsistencyError("sign convention violated at q=1")

    monkeypatch.setattr("triplets.cli.solve_alpha", boom)
    code, out, err = run(capsys, "solve", *T64_ARGS)
    assert code == 4
    assert out == ""
    assert err == "consistency check failed: sign convention violated at q=1\n"


def test_zip_zero_denominator_scale_exit_64(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["zip", "--roots=-1,-2", "--n", "4", "--scale", "1/0"])
    assert exc.value.code == 64
    err = capsys.readouterr().err
    assert "--scale" in err and "Traceback" not in err
    code, out, _ = run(capsys, "zip", "--roots=-1,-2", "--n", "4", "--scale", "4/2", "--json")
    assert code == 0 and json.loads(out)["scale"] == "2"
    # A scale that makes a rank non-integral fails a consistency check.
    code, out, err = run(capsys, "zip", "--roots=-1,-2", "--n", "4", "--scale", "3/2")
    assert code == 4 and out == "" and len(err.splitlines()) == 1


def test_byte_identical_reruns(capsys):
    first = run(capsys, "table", *T64_ARGS, "--window=-5,3")
    second = run(capsys, "table", *T64_ARGS, "--window=-5,3")
    assert first == second
    first = run(capsys, "enumerate", "--n", "3")
    second = run(capsys, "enumerate", "--n", "3")
    assert first == second


def _counted_solves(monkeypatch):
    """The triplets the CLI solves, in order, through the real solver, in
    every module that calls it."""
    import triplets.solver

    real, solved = triplets.solver.solve_alpha, []

    def counted(t):
        solved.append(t)
        return real(t)

    for module in ("cli", "solver", "squarefree", "tables"):
        monkeypatch.setattr("triplets.%s.solve_alpha" % module, counted)
    return solved


def _batch(monkeypatch, *records):
    monkeypatch.setattr("sys.stdin", io.StringIO("".join(r + "\n" for r in records)))


def test_stdin_repeats_print_the_same_chunk_and_solve_once(capsys, monkeypatch):
    solved = _counted_solves(monkeypatch)
    t, u = T64_LINE.strip(), '{"n": 3, "B": [0, 2, 3], "H": [0, 1, 2], "C": [0, 2]}'
    _batch(monkeypatch, t, u, t, '{"n": 4, "B": [2, 0, 1], "H": [4, 2, 0], "C": [3, 2, 4]}')
    code, out, err = run(capsys, "solve", "--stdin")
    assert code == 0 and err == ""
    lines = out.splitlines()
    chunks = ["\n".join(lines[i:i + 3]) for i in range(0, len(lines), 3)]
    assert len(chunks) == 4 and chunks[0] == chunks[2] == chunks[3] != chunks[1]
    assert solved == [validate_triplet(4, [0, 1, 2], [0, 2, 4], [2, 3, 4]),
                      validate_triplet(3, [0, 2, 3], [0, 1, 2], [0, 2])]


def test_triplet_solves_each_record_once(capsys, monkeypatch):
    # The three diagrams are read off the one solve of T: rotate(T) and
    # rotate^2(T) are never solved.
    solved = _counted_solves(monkeypatch)
    ts = [t for n in range(1, 5) for t in enumerate_triplets(n)]
    _batch(monkeypatch, *(t.to_json() for t in ts))
    code, out, err = run(capsys, "triplet", "--stdin", "--json")
    assert code == 0 and err == "" and len(out.splitlines()) == len(ts) == 195
    assert solved == ts


def test_triplet_degenerate_solve_exit_3(capsys, monkeypatch):
    t = validate_triplet(4, [0, 1, 2], [0, 2, 4], [2, 3, 4])

    def boom(_):
        raise DegenerateSystem(t, 0)

    monkeypatch.setattr("triplets.squarefree.solve_alpha", boom)
    code, out, err = run(capsys, "triplet", *T64_ARGS)
    assert code == 3 and out == ""
    assert err == "solver degeneracy: equation system has no nonzero solution: %r\n" % (t,)


def test_stdin_reuse_ends_with_the_run(capsys, monkeypatch):
    solved = _counted_solves(monkeypatch)
    _batch(monkeypatch, T64_LINE.strip())
    first = run(capsys, "solve", "--stdin", "--json")
    _batch(monkeypatch, T64_LINE.strip())
    assert run(capsys, "solve", "--stdin", "--json") == first
    assert len(solved) == 2


@pytest.mark.parametrize("distinct, resolved", [(1024, False), (1025, True)])
def test_stdin_reuse_is_bounded(capsys, monkeypatch, distinct, resolved):
    solved = _counted_solves(monkeypatch)
    records = [t.to_json() for n in range(1, 7) for t in enumerate_triplets(n)][:distinct]
    _batch(monkeypatch, *records, records[0])
    code, out, _ = run(capsys, "solve", "--stdin", "--json")
    assert code == 0 and len(out.splitlines()) == distinct + 1
    # Within the bound the first record is reused; past it, it is solved again.
    assert len(solved) == distinct + resolved
    assert (solved[-1] == solved[0]) == resolved


def test_stdin_bad_line_after_a_reused_record_exit_2(capsys, monkeypatch):
    solved = _counted_solves(monkeypatch)
    _batch(monkeypatch, T64_LINE.strip(), T64_LINE.strip(), "not json")
    code, out, err = run(capsys, "solve", "--stdin", "--json")
    assert code == 2
    assert out == '{"n": 4, "support": [0, 1, 2], "alpha": [3, -3, 2]}\n' * 2
    assert err == "invalid triplet (record: not JSON: not json)\n"
    assert len(solved) == 1


@pytest.mark.parametrize("argv, expected", [
    (["validate", "--n", "9" * 5000, "--B", "0", "--H", "0", "--C", "0"], 64),  # past int's digit limit
    (["validate", "--n", "1" + "0" * 4000, "--B", "0", "--H", "0", "--C", "0"], 2),  # endpoints echo n - min C
    (["validate", "--n", "4", "--B", "0," + "x" * 3000, "--H", "0", "--C", "0"], 64),
    (["table", *T64_ARGS, "--window", "1," * 1500 + "x"], 64),
    (["zip", "--roots=-1,-2", "--n", "4", "--scale", "x" * 3000], 64),
    (["zip", "--roots=%s,5" % ",".join(map(str, range(-1, -3000, -1))), "--n", "2"], 64),
    (["zip", "--roots=-1", "--n=-" + "9" * 4000], 64),
    (["enumerate", "--n", "9" * 4000], 64),
    (["classical", "en", "--w", "x" * 3000], 64),
    (["classical", "schur", "--lambda", ",".join(map(str, range(3000)))], 64),
    (["classical", "tensor", "--dims", "2,2", "--weights", "9" * 4000 + ",0"], 64),
    (["x" * 3000], 64),  # argparse's invalid choice
    (["validate", *T64_ARGS, "y" * 3000], 64),  # argparse's unrecognized arguments
    (["validate", "--n", "4", "--B", "0," + "é" * 3000, "--H", "0", "--C", "0"], 64),  # two UTF-8 bytes a character
    (["validate", *T64_ARGS, "\udcff" * 3000], 64),  # an undecodable argv byte, printed as `\udcff`
], ids=["int", "endpoints", "int_list", "window", "scale", "roots", "zip_n", "enumerate_n", "w", "lambda", "pinch",
        "choice", "unrecognized", "utf8", "surrogate"])
def test_long_argv_echo_is_cut(capsys, argv, expected):
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    assert (code, captured.out) == (expected, "")
    # argparse's usage lines, then one error line that echoes an excerpt of the input.
    *usage, error, last = captured.err.split("\n")
    assert last == "" and all(line.startswith(("usage: ", " ")) for line in usage)
    assert len(error.encode()) <= EXCERPT + 100


@pytest.mark.parametrize("extra", [0, 1])
def test_stderr_line_is_cut_past_the_bound(capsys, monkeypatch, extra):
    # A line of EXCERPT + 100 characters with its newline prints whole; one more is cut to its head and `...`.
    message = "x" * (EXCERPT + 72 + extra) + "!"
    line = "consistency check failed: " + message
    assert len(line + "\n") == EXCERPT + 100 + extra

    def boom(_):
        raise ConsistencyError(message)

    monkeypatch.setattr("triplets.cli.solve_alpha", boom)
    code, out, err = run(capsys, "solve", *T64_ARGS)
    assert (code, out) == (4, "")
    assert err == (line[:EXCERPT + 96] + "...\n" if extra else line + "\n")
    assert len(err) == EXCERPT + 100


_SMALL_LIST = st.lists(st.integers(-12, 12), min_size=1, max_size=4).map(lambda xs: ",".join(map(str, xs)))
_FLAG_VALUES = {
    "--n": st.integers(-2, 5).map(str),
    "--B": _SMALL_LIST, "--H": _SMALL_LIST, "--C": _SMALL_LIST,
    "--window": st.tuples(st.integers(-20, 20), st.integers(-20, 20)).map("%d,%d".__mod__),
    "--roots": _SMALL_LIST, "--lambda": _SMALL_LIST, "--dims": _SMALL_LIST, "--weights": _SMALL_LIST,
    "--scale": st.sampled_from(["1", "2", "3/2", "1/0", "-1", "x"]),
    "--w": st.integers(-2, 12).map(str), "--r": st.integers(-2, 12).map(str), "--m": st.integers(-2, 12).map(str),
}
# Short tokens with no decimal digit, so that every integer argv carries is small.
_TOKEN = st.text(max_size=4).filter(lambda s: not any(c.isdecimal() for c in s))


@st.composite
def _argv(draw):
    head = draw(st.lists(st.sampled_from([
        "validate", "solve", "betti", "triplet", "rotate", "dual", "table", "enumerate", "zip", "classical",
        "en", "br", "schur", "tensor"]) | _TOKEN, min_size=1, max_size=2))
    pieces = draw(st.lists(
        st.sampled_from(sorted(_FLAG_VALUES)).flatmap(
            lambda f: _FLAG_VALUES[f].flatmap(lambda v: st.sampled_from([[f, v], ["%s=%s" % (f, v)]])))
        | st.sampled_from([["--stdin"], ["--json"], ["--help"], T64_ARGS])
        | _TOKEN.map(lambda s: [s]),
        max_size=5))
    return head + [token for piece in pieces for token in piece]


@settings(max_examples=300, deadline=None)
@given(argv=_argv(), stdin=st.sampled_from(["", T64_LINE, T64_LINE * 2, "not json\n"]))
def test_argv_fuzz_exits_cleanly(argv, stdin):
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin)
    try:
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
    finally:
        sys.stdin = saved
    assert code in (0, 2, 3, 4, 64)
    lines = err.getvalue().split("\n")
    assert lines.pop() == ""
    if code == 0:
        # At most the one documented library warning, e.g. zip with n below the root count.
        assert lines == [] or (len(lines) == 1 and lines[0].startswith("warning: "))
    else:
        # One error line, after argparse's usage for a usage error.
        assert lines and all(line.startswith(("usage: ", " ")) for line in lines[:-1])
        assert len(lines) == 1 or (code == 64 and lines[0].startswith("usage: ") and ": error: " in lines[-1])
