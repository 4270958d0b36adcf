"""A `triplets` process imports no more of the standard library than it
uses: the value types are named tuples, so neither `dataclasses` nor the
`inspect` it pulls in is loaded.  And every library call starts cold: no
module but `cli`, whose output cache lives for one run, memoizes, and no
module reads the environment, so every bound is a module constant."""

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


def _names(path):
    """The names a module imports, reads, or reads as attributes."""
    tree = ast.parse(path.read_text(), filename=str(path))
    names = {a.name for n in ast.walk(tree) if isinstance(n, ast.ImportFrom) for a in n.names}
    names |= {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    names |= {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
    return names


def _found(wanted):
    """{module file: the sorted names from `wanted` that it names}, for the modules that name any."""
    paths = sorted(SRC.glob("*.py"))
    assert len(paths) >= 10
    found = {p.name: sorted(_names(p) & wanted) for p in paths}
    return {name: hits for name, hits in found.items() if hits}


def test_only_cli_memoizes():
    assert _found({"lru_cache", "cache", "cached_property"}) == {"cli.py": ["lru_cache"]}


def test_no_module_reads_the_environment():
    assert _found({"environ", "environb", "getenv", "putenv"}) == {}


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")])))
    code = "import sys, triplets.cli; print(sorted({'dataclasses', 'inspect'} & sys.modules.keys()))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    assert out.stdout == "[]\n"
