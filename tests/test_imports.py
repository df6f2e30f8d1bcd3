"""Each module reaches another module's code through public names only,
uses every name it imports, and relies on no assert statement."""

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


def test_every_imported_name_is_used():
    # __init__ imports names to re-export them; every other module
    # imports a name only to use it
    imported, used = {}, set()
    for path, node in package_nodes():
        if path.name == "__init__.py":
            continue
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[path.name, alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[path.name, alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add((path.name, node.id))
    assert imported
    unused = [f"{module}:{line}: {name}" for (module, name), line in imported.items()
              if (module, name) not in used]
    assert unused == []
