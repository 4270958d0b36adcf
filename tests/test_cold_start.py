"""A `triplets` process imports no more of the standard library than it
uses: the value types are named tuples, so neither `dataclasses` nor the
`inspect` it pulls in is loaded.  And every library call starts cold: no
module but `cli`, whose output cache lives for one run, memoizes."""

import ast
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "triplets"


def _imports_dataclasses(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) and any(a.name.split(".")[0] == "dataclasses" for a in node.names):
            return True
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "dataclasses":
            return True
    return False


def test_no_module_imports_dataclasses():
    paths = sorted(SRC.glob("*.py"))
    assert len(paths) >= 10
    assert [p.name for p in paths if _imports_dataclasses(ast.parse(p.read_text(), filename=str(p)))] == []


def _memo_names(tree):
    """The functools memo decorators a tree names, imported or as attributes."""
    memos = {"lru_cache", "cache", "cached_property"}
    names = {a.name for n in ast.walk(tree) if isinstance(n, ast.ImportFrom) for a in n.names}
    names |= {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    names |= {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
    return sorted(names & memos)


def test_only_cli_memoizes():
    paths = sorted(SRC.glob("*.py"))
    assert len(paths) >= 10
    found = {p.name: _memo_names(ast.parse(p.read_text(), filename=str(p))) for p in paths}
    assert {name: memos for name, memos in found.items() if memos} == {"cli.py": ["lru_cache"]}


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")])))
    code = "import sys, triplets.cli; print(sorted({'dataclasses', 'inspect'} & sys.modules.keys()))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    assert out.stdout == "[]\n"
