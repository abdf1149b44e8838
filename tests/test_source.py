"""Source-level invariants of the package."""
import ast
from pathlib import Path

import dyncompress

SOURCES = sorted(Path(dyncompress.__file__).parent.glob("*.py"))


def test_no_assert_statements():
    # python -O strips asserts, so exact invariants must raise instead
    assert len(SOURCES) > 1
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
