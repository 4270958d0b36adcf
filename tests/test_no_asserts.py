"""Internal checks in the library raise typed errors: a bare assert would
vanish under python -O."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "triplets"


def test_no_assert_statements_in_library():
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += ["%s:%d" % (path.name, node.lineno) for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert len(list(SRC.glob("*.py"))) >= 10
    assert found == []
