"""Import budget: a process loads only what it uses.

Every spawned worker imports ``repro``, ``repro.engine`` and the worker
module before it can attach, so what those pull in is start-up time on
the process plane's critical path.  The budgets are enforced in fresh
interpreters; the export tables are checked in-process.

A fresh interpreter is started with ``-S``, with ``src/`` and the
parent's site directories on ``PYTHONPATH``: numpy still resolves, but
``site`` runs no ``.pth`` start-up hook.  Such a hook counts against
``repro`` what ``repro`` never imports: one that imports ``certifi``
loads ``importlib.resources`` and with it ``tempfile``, ``shutil``,
``zipfile`` and about 60 other modules before the statement under test
runs.
"""

import importlib
import json
import os
import site
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

LAZY_PACKAGES = [
    "repro", "repro.core", "repro.data", "repro.engine", "repro.hardware",
    "repro.mf", "repro.parallel", "repro.resilience", "repro.obs",
]


def fresh_python(code: str) -> str:
    """Stdout of ``code`` run in a fresh interpreter that sees only ``src/``.

    The child runs with ``-S`` so that no ``.pth`` hook of the host loads
    modules before ``code`` does; the parent's site directories go on
    ``PYTHONPATH`` after ``src/`` so that installed packages still import.
    """
    path = [str(SRC), *site.getsitepackages()]
    if site.ENABLE_USER_SITE:
        path.append(site.getusersitepackages())
    return subprocess.run(
        [sys.executable, "-S", "-c", code],
        env={"PYTHONPATH": os.pathsep.join(path), "PATH": ""},
        capture_output=True, text=True, timeout=120, check=True,
    ).stdout


def modules_after(statement: str) -> set[str]:
    """Names in ``sys.modules`` of a fresh interpreter after ``statement``."""
    return set(json.loads(fresh_python(
        f"import json, sys; {statement}; print(json.dumps(sorted(sys.modules)))"
    )))


def loaded(modules: set[str], package: str) -> bool:
    return any(m == package or m.startswith(package + ".") for m in modules)


class TestImportBudget:
    def test_bare_interpreter_runs_no_site_hook(self):
        """The budgets below count what ``repro`` loads: a host hook that
        got past ``-S`` shows up here under its own name."""
        modules = modules_after("pass")
        for module in ("site", "certifi", "statistics", "subprocess", "tempfile"):
            assert module not in modules, module

    def test_import_repro_loads_no_heavy_third_party(self):
        modules = modules_after("import repro")
        assert not loaded(modules, "scipy")
        assert not loaded(modules, "networkx")
        assert not loaded(modules, "numpy")

    def test_worker_module_closure(self):
        modules = modules_after("import repro.engine.worker_proc")
        for package in (
            "scipy", "networkx", "repro.obs", "repro.framework",
            "repro.analysis", "repro.experiments", "repro.serving",
        ):
            assert not loaded(modules, package), package
        assert len(modules) < 300

    def test_benchmark_import_stack(self):
        modules = modules_after("import repro, repro.engine, repro.serving")
        assert not loaded(modules, "scipy")
        assert not loaded(modules, "networkx")
        # what python3 -m perf imports before it times setup_s: none of
        # the measuring or process-spawning stdlib rides along
        for module in ("statistics", "subprocess", "tempfile", "repro.obs.bench"):
            assert module not in modules, module
        assert len(modules) < 240

    def test_sim_plane_epoch_loads_no_graph_library(self):
        """A ``Platform`` is a star with one bus per worker, kept as a
        dict: building the paper's and training on it loads no
        ``networkx`` (338 modules and 15 MB when it did)."""
        modules = modules_after(
            "from repro import EpochEngine, NETFLIX, QOnlyChannel; "
            "from repro import paper_workstation; "
            "from repro.engine.backends import SimBackend; "
            "data = NETFLIX.scaled(2000).generate(seed=0).shuffle(0); "
            "backend = SimBackend(paper_workstation(), ratings=data, k=4); "
            "EpochEngine(backend, channel=QOnlyChannel()).run(1)"
        )
        assert "repro.engine.backends" in modules
        assert not loaded(modules, "networkx")


class TestLazyExports:
    @pytest.mark.parametrize("package", LAZY_PACKAGES)
    def test_every_public_name_listed_and_resolves(self, package):
        module = importlib.import_module(package)
        assert len(set(module.__all__)) == len(module.__all__)
        assert set(module.__all__) <= set(dir(module))
        for name in module.__all__:
            assert getattr(module, name) is not None, name

    def test_unknown_attribute_is_an_attribute_error(self):
        import repro

        with pytest.raises(AttributeError, match="no_such_name"):
            repro.no_such_name
        assert not hasattr(repro.core, "_private_probe")

    def test_subpackages_reachable_as_attributes(self):
        """``import repro; repro.data...`` worked when every subpackage
        was imported eagerly, and still does."""
        modules = modules_after(
            "import repro; repro.data.RatingMatrix; repro.testing"
        )
        assert "repro.data.ratings" in modules
        assert "repro.testing" in modules

    def test_export_shadows_its_defining_submodule(self):
        """``repro.core.autotune`` is the function whichever of the
        function and its module is imported first."""
        out = fresh_python(
            "import repro.core.autotune; from repro.core import autotune; "
            "print(callable(autotune))"
        )
        assert out.strip() == "True"
