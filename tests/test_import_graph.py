"""Ratchet on the package import graph (ROADMAP item 2: "acyclic").

Every ``import`` under ``src/repro`` is counted — module level and
inside functions alike, since a function-level import only hides a
cycle from the interpreter, not from the reader.  ``if TYPE_CHECKING:``
blocks are skipped: annotations create no runtime edge.  The test pins
the *exact* set of package pairs that still import each other, so a PR
that removes a pair must shrink the list and a PR that adds one fails.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

#: package pairs that import each other today, each with what removes it
KNOWN_CYCLES = {
    # core/framework.py (HCCMF.train builds an EpochEngine) and
    # core/comm.py (CommPlan.for_dataset asks engine.channels for the
    # traffic): the next slice of ROADMAP item 2 moves both callers up
    frozenset({"core", "engine"}),
}


def _is_type_checking(test: ast.expr) -> bool:
    return (isinstance(test, ast.Name) and test.id == "TYPE_CHECKING") or (
        isinstance(test, ast.Attribute) and test.attr == "TYPE_CHECKING"
    )


def _runtime_imports(tree: ast.AST):
    """Every imported module name, skipping ``if TYPE_CHECKING:`` bodies."""
    stack = [tree]
    while stack:
        node = stack.pop()
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            yield node.module
        if isinstance(node, ast.If) and _is_type_checking(node.test):
            stack.extend(node.orelse)
        else:
            stack.extend(ast.iter_child_nodes(node))


def package_edges() -> set[tuple[str, str]]:
    """``(importer, imported)`` over the sub-packages of ``repro``."""
    edges = set()
    for path in sorted((SRC / "repro").rglob("*.py")):
        importer = path.relative_to(SRC / "repro").parts[0]
        if importer.endswith(".py"):
            continue    # cli.py, _lazy.py, __init__.py: leaves, not packages
        for name in _runtime_imports(ast.parse(path.read_text(encoding="utf-8"))):
            parts = name.split(".")
            if parts[0] == "repro" and len(parts) > 1 and parts[1] != importer:
                edges.add((importer, parts[1]))
    return edges


def test_type_checking_blocks_and_function_bodies():
    tree = ast.parse(
        "from typing import TYPE_CHECKING\n"
        "if TYPE_CHECKING:\n"
        "    import repro.obs\n"
        "else:\n"
        "    import repro.mf\n"
        "def f():\n"
        "    from repro.engine import EpochEngine\n"
    )
    assert sorted(_runtime_imports(tree)) == ["repro.engine", "repro.mf", "typing"]


def test_mutually_importing_packages_are_exactly_the_known_ones():
    edges = package_edges()
    assert len(edges) > 20      # the walk found the tree
    cycles = {frozenset(e) for e in edges if (e[1], e[0]) in edges}
    assert cycles == KNOWN_CYCLES, sorted(sorted(pair) for pair in cycles)
