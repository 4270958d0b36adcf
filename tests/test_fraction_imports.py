"""The library computes in plain int: only the rational scale of a root
sequence (classical) and its parsing and display (cli) use fractions."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "triplets"


def _imports_fractions(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) and any(a.name.split(".")[0] == "fractions" for a in node.names):
            return True
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "fractions":
            return True
    return False


def test_only_classical_and_cli_import_fractions():
    paths = sorted(SRC.glob("*.py"))
    found = [p.name for p in paths if _imports_fractions(ast.parse(p.read_text(), filename=str(p)))]
    assert len(paths) >= 10
    assert found == ["classical.py", "cli.py"]
