"""Static checks on the package source, in place of a linter."""

import ast
import re
from pathlib import Path

import gtool
from gtool.base import Representation

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


def call_sites(source: str, callee: str) -> list[str]:
    """The functions of a module that call ``callee``, written as in the
    source (``exec``, ``ledger.count``), one entry per call; a call
    outside any function is listed as ``<module>``."""
    sites = []

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = node.name
        if isinstance(node, ast.Call) and ast.unparse(node.func) == callee:
            sites.append(where)
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(ast.parse(source), "<module>")
    return sites


def package_call_sites(callee: str) -> list[tuple[str, str]]:
    return [(path.name, site) for path in sorted(SRC.rglob("*.py"))
            for site in call_sites(path.read_text(), callee)]


def test_one_function_compiles_generated_code():
    # generated code has one compiler and one cache: a second exec site
    # would be a second generator
    assert call_sites("exec('1')\ndef f():\n    def g():\n        exec(s)\n"
                      "    exec(t)\n", "exec") == ["<module>", "g", "f"]
    assert package_call_sites("exec") == [("base.py", "_generated")]


def subclasses(root) -> list[type]:
    """Every subclass of ``root``, direct or not."""
    found, todo = [], list(root.__subclasses__())
    while todo:
        found.append(todo.pop())
        todo += found[-1].__subclasses__()
    return found


def concrete_kinds(root) -> dict[str, bool]:
    """Each concrete subclass of ``root``, one that names its ``rep_kind``,
    by kind: whether it has a ``_template`` and a ``_bound_arrays``."""
    return {cls.rep_kind: hasattr(cls, "_template")
            and hasattr(cls, "_bound_arrays")
            for cls in subclasses(root) if cls.rep_kind != root.rep_kind}


def test_every_representation_binds_its_query():
    # a kind with no template or no binder would leave multiply and
    # predict nothing to render
    class Root:
        rep_kind = "?"

    class Abstract(Root):
        pass

    class Bound(Abstract):
        rep_kind = "bound"

        def _template(self):
            pass

        def _bound_arrays(self, view):
            pass

    class Bare(Abstract):
        rep_kind = "bare"

    assert concrete_kinds(Root) == {"bound": True, "bare": False}
    kinds = concrete_kinds(Representation)
    assert set(kinds) >= {"block", "cyclic", "composite", "simple",
                          "fm-abelian", "fm-hamiltonian", "fm-zgroup",
                          "fm-semidirect"}
    assert [kind for kind, bound in kinds.items() if not bound] == []


def parameters_of(source: str, names) -> list[tuple[str, list[str]]]:
    """(name, parameter names) of every function or method named in
    ``names``, nested ones included."""
    return [(node.name, [a.arg for a in ast.walk(node.args)
                         if isinstance(a, ast.arg)])
            for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.FunctionDef) and node.name in names]


def test_each_query_states_its_reads_once():
    # a query counts nothing: ``_count`` counts its stated reads beside it,
    # and ``probe_bounds`` is their sum, so no kind restates them
    assert parameters_of("def f(a, *b, c=1, **d):\n    def g(e):\n"
                         "        pass\n", {"f", "g"}) \
        == [("f", ["a", "b", "c", "d"]), ("g", ["e"])]
    assert [(path.name, name) for path in sorted(SRC.glob("*.py"))
            for name, args in parameters_of(
                path.read_text(), {"_kernel", "multiply", "mult"})
            if "ledger" in args] == []
    assert {where for _, where in package_call_sites("ledger.count")} \
        == {"_count"}
    assert [cls.__name__ for cls in subclasses(Representation)
            if "probe_bounds" in vars(cls)] == ["SimpleRep"]


def test_every_binder_takes_the_array_wrapper():
    # each binder reads each of its arrays as view(self.X) and passes the
    # same view to its parts: np.asarray binds the fitted arrays, and
    # base._view read-only memoryviews of them, so no copy of a structure
    # is ever made to bind its scalar query.  The 15 binders of closures
    # became 14 binders of names: ZGroupScheme's sigma binds its table
    # with the scheme's other names
    found = [(path.name, name, args) for path in sorted(SRC.glob("*.py"))
             for name, args in parameters_of(path.read_text(),
                                             {"_bound_arrays"})]
    assert len(found) >= 14
    assert [site for site in found if site[2] != ["self", "view"]] == []
    assert package_call_sites("object.__new__") == []


def binder_calls(source: str) -> list[tuple[str, str]]:
    """(binder, enclosing function) of each call of a ``_bound_*`` binder
    or of ``_render``; a function declared ``@cached_property`` is listed
    as ``@cached_property``, and a call outside any function as
    ``<module>``."""
    calls = []

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = node.name
            if any(ast.unparse(d) == "cached_property"
                   for d in node.decorator_list):
                where = "@cached_property"
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and (node.func.attr.startswith("_bound_")
                     or node.func.attr == "_render")):
            calls.append((node.func.attr, where))
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(ast.parse(source), "<module>")
    return calls


def test_binders_run_only_in_binders_and_cached_properties():
    # a query is rendered and bound once, by a cached_property of
    # base._Cached or a subclass, through ``_render``: a binder or a
    # render called from a method or a closure would bind again on every
    # call
    assert binder_calls(
        "class A:\n    @cached_property\n    def f(self):\n"
        "        x = self._bound_a(v)\n        def g():\n"
        "            return self._bound_b(v)\n        return g\n"
        "    def _bound_c(self, view):\n        return self._bound_a(view)\n"
        "    def h(self):\n        return self._render(v)(1)\n") == [
        ("_bound_a", "@cached_property"), ("_bound_b", "g"),
        ("_bound_a", "_bound_c"), ("_render", "h")]
    calls = [(path.name, binder, where) for path in sorted(SRC.glob("*.py"))
             for binder, where in binder_calls(path.read_text())]
    binds = {where for _, binder, where in calls if binder != "_render"}
    assert binds == {"_render", "_bound_arrays"}
    assert {where for _, binder, where in calls if binder == "_render"} \
        == {"@cached_property"}
