"""Each module reaches another module's code through public names only."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "freeword"


def test_no_relative_import_of_an_underscore_name():
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules
    private = []
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ImportFrom) and node.level > 0:
                source = "." * node.level + (node.module or "")
                private += [
                    f"{path.name}: from {source} import {alias.name}"
                    for alias in node.names if alias.name.startswith("_")
                ]
    assert private == []
