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


def test_no_unused_module_imports():
    # every name a module imports at top level is read somewhere in it
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        used = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)}
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                found += [f"{path.name}:{node.lineno} {alias.name}"
                          for alias in node.names
                          if (alias.asname or alias.name).split(".")[0]
                          not in used]
    assert found == []
