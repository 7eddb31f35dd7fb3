"""The package import graph is acyclic, at any cycle length.

Nodes are the sub-packages of ``repro`` and its top-level modules
(``cli``, ``framework``, ``_lazy``, ``__init__`` ...).  Every ``import``
under ``src/repro`` is an edge — module level and inside functions
alike, since a function-level import only hides a cycle from the
interpreter, not from the reader — and so is every module string in a
package's ``lazy_exports`` table, which is an import spelled as data.
``if TYPE_CHECKING:`` blocks are skipped: annotations create no runtime
edge.  The test asserts that no strongly connected component holds more
than one node.

Every name has one home, the module that defines it: a sub-package
``__init__`` is its docstring, and only ``repro`` and ``repro.obs``
keep an export table.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"


def _is_type_checking(test: ast.expr) -> bool:
    return (isinstance(test, ast.Name) and test.id == "TYPE_CHECKING") or (
        isinstance(test, ast.Attribute) and test.attr == "TYPE_CHECKING"
    )


def _lazy_table(node: ast.AST) -> dict[str, tuple[str, ...]]:
    """``module -> names`` of a ``lazy_exports(__name__, {...})`` call, else ``{}``."""
    if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "lazy_exports":
        return ast.literal_eval(node.args[1])
    return {}


def _runtime_imports(tree: ast.AST):
    """Every imported module name, skipping ``if TYPE_CHECKING:`` bodies."""
    stack = [tree]
    while stack:
        node = stack.pop()
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            yield node.module
        else:
            yield from _lazy_table(node)
        if isinstance(node, ast.If) and _is_type_checking(node.test):
            stack.extend(node.orelse)
        else:
            stack.extend(ast.iter_child_nodes(node))


def import_graph(sources) -> dict[str, set[str]]:
    """``node -> imported nodes`` from ``(path under repro/, text)`` pairs."""
    graph: dict[str, set[str]] = {}
    for path, text in sources:
        importer = path.split("/")[0].removesuffix(".py")
        edges = graph.setdefault(importer, set())
        for name in _runtime_imports(ast.parse(text)):
            parts = name.split(".")
            if parts[0] != "repro":
                continue
            imported = parts[1] if len(parts) > 1 else "__init__"
            if imported != importer:
                edges.add(imported)
    return graph


def cycles(graph: dict[str, set[str]]) -> list[list[str]]:
    """Strongly connected components of more than one node, sorted."""

    def reach(start: str) -> set[str]:
        seen, stack = set(), [start]
        while stack:
            for nxt in graph.get(stack.pop(), ()):
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        return seen

    reachable = {node: reach(node) for node in graph}
    components = {
        frozenset(
            other for other in reachable[node]
            if node in reachable.get(other, ())
        )
        for node in graph
    }
    return sorted(sorted(c) for c in components if len(c) > 1)


def test_type_checking_blocks_and_function_bodies():
    tree = ast.parse(
        "from typing import TYPE_CHECKING\n"
        "if TYPE_CHECKING:\n"
        "    import repro.obs\n"
        "else:\n"
        "    import repro.mf\n"
        "def f():\n"
        "    from repro.engine.pipeline import EpochEngine\n"
    )
    assert sorted(_runtime_imports(tree)) == ["repro.engine.pipeline", "repro.mf", "typing"]


def test_a_three_cycle_through_a_function_and_a_lazy_table_is_reported():
    graph = import_graph([
        ("a/__init__.py",
         "from repro._lazy import lazy_exports\n"
         "__getattr__, __dir__ = lazy_exports(__name__, {\n"
         "    'repro.a.inner': ('A',), 'repro.b.mod': ('B',)})\n"),
        ("b/mod.py", "def f():\n    from repro.c import C\n"),
        ("c/__init__.py", "import repro.a\n"),
        ("top.py", "import repro.a\nimport repro\n"),
        ("__init__.py", "import numpy\n"),
        ("_lazy.py", "import sys\n"),
    ])
    assert graph["a"] == {"_lazy", "b"}
    assert graph["top"] == {"a", "__init__"}
    assert cycles(graph) == [["a", "b", "c"]]


def test_no_import_cycle_of_any_length():
    graph = import_graph(
        (path.relative_to(SRC).as_posix(), path.read_text(encoding="utf-8"))
        for path in sorted(SRC.rglob("*.py"))
    )
    assert sum(map(len, graph.values())) > 20      # the walk found the tree
    assert {"cli", "framework", "_lazy", "core", "engine"} <= set(graph)
    assert graph["__init__"] >= {"framework", "core", "engine"}   # lazy table
    assert cycles(graph) == []


def test_every_name_is_imported_from_its_defining_module():
    """A sub-package ``__init__`` is a docstring and nothing else;
    ``repro.obs`` keeps ``Telemetry`` alone (``perf/child.py`` imports
    it from there), and the front door names defining modules, never a
    package table in between."""
    def table(tree: ast.AST) -> dict[str, tuple[str, ...]]:
        return {k: v for node in ast.walk(tree) for k, v in _lazy_table(node).items()}

    for init in sorted(SRC.glob("*/__init__.py")):
        tree = ast.parse(init.read_text(encoding="utf-8"))
        if init.parent.name == "obs":
            assert table(tree) == {"repro.obs.telemetry": ("Telemetry",)}
        else:
            assert len(tree.body) == 1 and ast.get_docstring(tree), init
    front = ast.parse((SRC / "__init__.py").read_text(encoding="utf-8"))
    for module in table(front):
        assert (SRC.parent / f"{module.replace('.', '/')}.py").is_file(), module
