"""Static checks on the package source, in place of a linter."""

import ast
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
