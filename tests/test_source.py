"""Source-level rules for the library package."""

import ast
from pathlib import Path

import isingcyl

SRC = Path(isingcyl.__file__).resolve().parent


def test_no_assert_statements():
    # runtime checks must survive ``python -O``: raise typed errors instead
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(SRC.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Assert)]
    assert found == []
