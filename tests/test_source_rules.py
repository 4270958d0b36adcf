"""Rules on the library's source, checked on one parse of each src/triplets
module.  A `triplets` process loads neither `dataclasses` nor the `inspect`
it pulls in, as the value types are named tuples.  Only classical's rational
scale and cli's parsing and display use fractions.  Internal checks raise
typed errors, as a bare assert vanishes under python -O.  Every library call
starts cold: only cli's one-run output cache memoizes, and no module reads
the environment, so every bound is a module constant.  Code that only tests
use lives in tests/oracles.py.  stdout is written in one place."""

import ast
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "triplets"
DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
MEMOS = {"lru_cache", "cache", "cached_property"}
ENVIRONMENT = {"environ", "environb", "getenv", "putenv"}


def _parse(directory):
    """{file name: ast} for each *.py in `directory`, in name order."""
    return {p.name: ast.parse(p.read_text(), filename=str(p)) for p in sorted(directory.glob("*.py"))}


TREES = _parse(SRC)


def test_src_holds_the_library():
    assert len(TREES) >= 10


def _importers(module):
    """The files that import `module` or a submodule of it."""
    def imported(node):
        if isinstance(node, ast.Import):
            return [a.name for a in node.names]
        return [node.module or ""] if isinstance(node, ast.ImportFrom) else []

    return [name for name, tree in TREES.items()
            if any(m.split(".")[0] == module for node in ast.walk(tree) for m in imported(node))]


def _asserts():
    """'file:line' of each assert statement."""
    return ["%s:%d" % (name, node.lineno) for name, tree in TREES.items()
            for node in ast.walk(tree) if isinstance(node, ast.Assert)]


def _names(tree):
    """Every name a tree mentions as an ast.Name or an ast.Attribute, with multiplicity."""
    return Counter(n.id if isinstance(n, ast.Name) else n.attr
                   for n in ast.walk(tree) if isinstance(n, (ast.Name, ast.Attribute)))


def _found(wanted):
    """{file: the sorted names from `wanted` that it reads or imports by name}, for the files that name any."""
    found = {}
    for name, tree in TREES.items():
        hits = wanted & (_names(tree).keys() | {a.name for n in ast.walk(tree) if isinstance(n, ast.ImportFrom) for a in n.names})
        if hits:
            found[name] = sorted(hits)
    return found


def unused_definitions():
    """The (file, name) of each non-dunder definition in src/*.py whose name
    appears only inside its own definition, counting the uses in perfbench/*.py too.

    Names are matched by name only, so a definition shares its uses with
    everything else of the same name: a dead method named like a live one
    (say a `dim` next to `DegenerateSystem.dim`) is not found.  An import in
    `__init__.py` is no ast.Name, so a re-export is not a use."""
    uses = sum(map(_names, [*TREES.values(), *_parse(ROOT / "perfbench").values()]), Counter())
    return [(name, node.name) for name, tree in TREES.items() for node in ast.walk(tree)
            if isinstance(node, DEFS) and not (node.name.startswith("__") and node.name.endswith("__"))
            and uses[node.name] == _names(node)[node.name]]


def _prints(node):
    return sum(isinstance(x, ast.Call) and getattr(x.func, "id", None) == "print" for x in ast.walk(node))


def test_no_module_imports_dataclasses():
    assert _importers("dataclasses") == []


def test_only_classical_and_cli_import_fractions():
    assert _importers("fractions") == ["classical.py", "cli.py"]


def test_no_assert_statements_in_library():
    assert _asserts() == []


def test_only_cli_memoizes():
    assert _found(MEMOS) == {"cli.py": ["lru_cache"]}


def test_no_module_reads_the_environment():
    assert _found(ENVIRONMENT) == {}


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")])))
    code = "import sys, triplets.cli; print(sorted({'dataclasses', 'inspect'} & sys.modules.keys()))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    assert out.stdout == "[]\n"


def test_every_library_definition_is_used_outside_tests():
    assert unused_definitions() == []


def test_stdout_is_written_in_one_place():
    # Two print calls in cli: main's loop over _texts, and _stderr_line.
    tree = TREES["cli.py"]
    assert _prints(tree) == 2
    assert [f.name for f in tree.body if isinstance(f, ast.FunctionDef) and _prints(f)] == ["_stderr_line", "main"]


def test_each_rule_names_a_module_that_breaks_it(monkeypatch, tmp_path):
    # One violation per rule; the memo is imported and never called, which is still found.
    (tmp_path / "control.py").write_text("import dataclasses\nimport os\nfrom fractions import Fraction\n"
                                         "from functools import cache\nassert True\nX = os.environ\n\n\n"
                                         "def _dead():\n    print()\n")
    monkeypatch.setitem(TREES, "control.py", _parse(tmp_path)["control.py"])
    assert _importers("dataclasses") == ["control.py"]
    assert _importers("fractions") == ["classical.py", "cli.py", "control.py"]
    assert _asserts() == ["control.py:5"]
    assert _found(MEMOS) == {"cli.py": ["lru_cache"], "control.py": ["cache"]}
    assert _found(ENVIRONMENT) == {"control.py": ["environ"]}
    assert unused_definitions() == [("control.py", "_dead")]
    assert _prints(TREES["control.py"]) == 1
