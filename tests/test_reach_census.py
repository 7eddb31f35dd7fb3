"""Census of modules under ``src/repro`` that nothing runnable reaches.

The walk starts at what a user or the driver runs — ``repro/cli.py``
(``python -m repro``), ``perf/``, ``benchmarks/`` and ``scripts/`` —
and follows every ``import``, function-level ones included.  A package
``__init__`` is an export table, not a caller: ``from repro.mf import
FPSGD`` reaches ``repro.mf.fpsgd``, the module the table names for
``FPSGD``, and being listed in a table reaches nothing.  The test pins
the *exact* set of modules the walk does not reach, each with the paper
artefact or test reference that keeps it, so a new module that only its
own test or an example imports fails here instead of arriving unnoticed.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: module -> what keeps it although no entry point imports it
KNOWN_UNREACHED = {
    # Theorem 1 (equal finish times minimise the makespan), checked numerically
    "repro.core.theorem": "paper Theorem 1; tests/test_core_theorem.py",
    # epochs/time to a target RMSE: how Fig. 7d-f's curves are read
    "repro.core.convergence": "paper Fig. 7d-f; tests/test_core_convergence.py",
    # the cost model audited against the paper's closed forms (Eq. 2-4, 1/streams)
    "repro.experiments.crosscheck": "cost-model self-audit; tests/test_experiments_crosscheck.py",
    # terminal rendering of Fig. 7's convergence curves
    "repro.experiments.plots": "paper Fig. 7 charts; examples/reproduce_paper.py",
    # the full-array loss the blocked kernels are compared against
    "repro.mf.loss": "reference for tests/test_mf_kernels.py",
}


def module_name(path: Path) -> str:
    parts = path.relative_to(SRC).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


MODULES = {module_name(p): p for p in sorted((SRC / "repro").rglob("*.py"))}


def is_package(name: str) -> bool:
    return name in MODULES and MODULES[name].name == "__init__.py"


def exports(tree: ast.AST, package: str) -> dict[str, str]:
    """``public name -> defining module`` of a package ``__init__``,
    from its ``lazy_exports`` table and its eager re-export imports."""
    table: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith(package + "."):
            table.update({alias.asname or alias.name: node.module for alias in node.names})
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "lazy_exports"
        ):
            for key, names in zip(node.args[1].keys, node.args[1].values):
                table.update({name.value: key.value for name in names.elts})
    return table


def imported_modules(tree: ast.AST, importer: str | None, tables) -> set[str]:
    """The ``repro`` modules the code in ``tree`` names when it runs."""
    found: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found.update(a.name for a in node.names if a.name.split(".")[0] == "repro")
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            if node.module.split(".")[0] != "repro":
                continue
            if importer is not None and is_package(importer) and node.module.startswith(importer + "."):
                continue        # an __init__ re-exporting its own submodule
            found.add(node.module)
            for alias in node.names:
                submodule = f"{node.module}.{alias.name}"
                if submodule in MODULES:
                    found.add(submodule)
                elif alias.name in tables.get(node.module, {}):
                    found.add(tables[node.module][alias.name])
    return found


def reached(entry_points) -> set[str]:
    trees = {name: ast.parse(p.read_text(encoding="utf-8")) for name, p in MODULES.items()}
    tables = {name: exports(trees[name], name) for name in MODULES if is_package(name)}
    pending: set[str] = set()
    for path in entry_points:
        if SRC in path.parents:
            pending.add(module_name(path))
        else:
            pending |= imported_modules(
                ast.parse(path.read_text(encoding="utf-8")), None, tables
            )
    seen: set[str] = set()
    while pending:
        name = pending.pop()
        if name in seen or name not in MODULES:
            continue
        seen.add(name)
        parent = name.rpartition(".")[0]
        if parent:
            pending.add(parent)     # importing a.b runs a/__init__ first
        pending |= imported_modules(trees[name], name, tables)
    return seen


def entry_points() -> list[Path]:
    files = [SRC / "repro" / "cli.py", SRC / "repro" / "__main__.py"]
    for folder in ("perf", "benchmarks", "scripts"):
        files += sorted(
            p for p in (ROOT / folder).rglob("*.py") if "tests" not in p.parts
        )
    return files


def test_a_name_imported_from_a_package_reaches_the_module_the_table_names():
    tables = {"repro.mf": exports(ast.parse(MODULES["repro.mf"].read_text()), "repro.mf")}
    assert tables["repro.mf"]["FPSGD"] == "repro.mf.fpsgd"
    tree = ast.parse("def f():\n    from repro.mf import FPSGD\n    from repro.data import grid\n")
    assert imported_modules(tree, None, tables) == {
        "repro.mf", "repro.mf.fpsgd", "repro.data", "repro.data.grid",
    }
    # the table's own listing is not a caller
    assert "repro.mf.fpsgd" not in imported_modules(
        ast.parse(MODULES["repro.mf"].read_text()), "repro.mf", tables
    )


def test_every_module_is_reached_or_pinned_with_its_reason():
    seen = reached(entry_points())
    assert len(seen) > 80       # the walk found the tree
    assert sorted(set(MODULES) - seen) == sorted(KNOWN_UNREACHED)
