"""Checks on the library source itself."""

from __future__ import annotations

import ast
from pathlib import Path

import latpoly

SOURCES = sorted(Path(latpoly.__file__).parent.glob("*.py"))


def test_library_has_no_assert_statements():
    # python -O strips assert statements, so no check may rest on one
    assert SOURCES
    found = [f"{path.name}:{node.lineno}"
             for path in SOURCES
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)]
    assert found == []
