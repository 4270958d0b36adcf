"""Code that only tests use lives in tests/oracles.py, not in the library:
every function, class and method defined in src/triplets is named somewhere
in src/triplets or perfbench outside its own definition."""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "triplets"
DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _names(tree):
    """Every name a tree mentions as an ast.Name or an ast.Attribute, with multiplicity."""
    return Counter(n.id if isinstance(n, ast.Name) else n.attr
                   for n in ast.walk(tree) if isinstance(n, (ast.Name, ast.Attribute)))


def unused_definitions(src, perfbench):
    """The (file, name) of each non-dunder definition in src/*.py whose name
    appears only inside its own definition.

    Names are matched by name only, so a definition shares its uses with
    everything else of the same name: a dead method named like a live one
    (say a `dim` next to `Underdetermined.dim`) is not found.  An import in
    `__init__.py` is no ast.Name, so a re-export is not a use."""
    paths = sorted(src.glob("*.py")) + sorted(perfbench.glob("*.py"))
    trees = {p: ast.parse(p.read_text(), filename=str(p)) for p in paths}
    uses = sum(map(_names, trees.values()), Counter())
    found = []
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(trees[path]):
            if isinstance(node, DEFS) and not (node.name.startswith("__") and node.name.endswith("__")):
                if uses[node.name] == _names(node)[node.name]:
                    found.append((path.name, node.name))
    return found


def test_every_library_definition_is_used_outside_tests():
    assert len(list(SRC.glob("*.py"))) >= 10
    assert unused_definitions(SRC, ROOT / "perfbench") == []
