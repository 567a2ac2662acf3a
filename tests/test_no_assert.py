"""Invariants must hold under `python -O`, which drops `assert` statements,
so the package raises `InvariantError` instead and has no `assert` at all."""

import ast
from pathlib import Path

import nullcone


def test_package_has_no_assert_statement():
    sources = sorted(Path(nullcone.__file__).parent.glob("*.py"))
    assert sources
    found = [f"{path.name}:{node.lineno}"
             for path in sources
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)]
    assert found == []
