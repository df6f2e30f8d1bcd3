"""Each module reaches another module's code through public names only,
and no module relies on an assert statement."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "freeword"


def package_nodes():
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            yield path, node


def test_no_relative_import_of_an_underscore_name():
    private = []
    for path, node in package_nodes():
        if isinstance(node, ast.ImportFrom) and node.level > 0:
            source = "." * node.level + (node.module or "")
            private += [
                f"{path.name}: from {source} import {alias.name}"
                for alias in node.names if alias.name.startswith("_")
            ]
    assert private == []


def test_no_assert_statement():
    # python -O strips asserts, and every failure is a FreewordError
    found = [f"{path.name}:{node.lineno}" for path, node in package_nodes()
             if isinstance(node, ast.Assert)]
    assert found == []
