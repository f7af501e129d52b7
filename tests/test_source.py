"""Static checks on the package source, in place of a linter."""

import ast
import re
from pathlib import Path

import gtool

SRC = Path(gtool.__file__).parent


def unused_imports(source: str) -> list[str]:
    """Names a module imports and never reads; the names listed in its
    ``__all__`` count as read, since they are re-exported."""
    tree = ast.parse(source)
    imported, read = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0]
                            for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
        elif isinstance(node, ast.Name):
            read.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            read.update(ast.literal_eval(node.value))
    return sorted(imported - read)


def test_no_unused_imports_in_the_package():
    assert unused_imports("import os\nimport numpy as np\nnp.zeros(1)\n") \
        == ["os"]
    assert unused_imports("from .base import A, B as C\nprint(C)\n") == ["A"]
    assert unused_imports("from __future__ import annotations\n"
                          "from x import y\n__all__ = ['y']\n") == []
    found = {path.name: unused_imports(path.read_text())
             for path in sorted(SRC.glob("*.py"))}
    assert {name: names for name, names in found.items() if names} == {}


def names_read(source: str) -> set[str]:
    """Names and attributes a module reads; a ``def`` or ``class`` line
    names what it defines without reading it."""
    return {node.id if isinstance(node, ast.Name) else node.attr
            for node in ast.walk(ast.parse(source))
            if isinstance(node, (ast.Name, ast.Attribute))}


def test_every_export_is_read_by_the_package_or_documented():
    # an export that only the tests call is surface with no user
    assert names_read("def f(x):\n    return g(x).h\n") == {"g", "x", "h"}
    read = set().union(*(names_read(path.read_text())
                         for path in SRC.glob("*.py")
                         if path.name != "__init__.py"))
    readme = (SRC.parents[1] / "README.md").read_text()
    assert [name for name in gtool.__all__ if name not in read
            and not re.search(rf"\b{name}\b", readme)] == []
