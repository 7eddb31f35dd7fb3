"""Lazy package exports (PEP 562), shared by every ``repro`` package.

A spawned worker process imports ``repro`` and ``repro.engine`` just to
reach its entry point; with eager ``__init__`` files that dragged the
whole tree into every child.  Packages
instead declare *where* each public name lives and resolve it on first
access, so a process pays only for what it uses.
"""

from __future__ import annotations

import importlib
import sys
from types import ModuleType
from typing import Callable, Mapping, Sequence


def lazy_exports(
    package: str, exports: Mapping[str, Sequence[str]]
) -> tuple[Callable[[str], object], Callable[[], list[str]]]:
    """Module-level ``(__getattr__, __dir__)`` for a package ``__init__``.

    ``exports`` maps a submodule path to the public names it defines.
    A resolved name is cached in the package namespace, so the hook runs
    once per name.  Any other attribute falls back to importing the
    submodule of that name, which keeps ``import repro; repro.core``
    working as it did when every subpackage was imported eagerly.

    An export named like the submodule that defines it (``autotune``)
    keeps winning over that submodule, as the eager ``from ... import``
    made it: the import system binds a freshly loaded submodule onto
    its parent, and the package rebinds such a name to the export.
    """
    origin = {name: module for module, names in exports.items() for name in names}
    shadowing = {name for name, module in origin.items() if module == f"{package}.{name}"}
    if shadowing:

        class _Package(ModuleType):
            def __setattr__(self, name: str, value: object) -> None:
                if name in shadowing and isinstance(value, ModuleType):
                    value = getattr(value, name)
                super().__setattr__(name, value)

        sys.modules[package].__class__ = _Package

    def __getattr__(name: str) -> object:
        missing = AttributeError(f"module {package!r} has no attribute {name!r}")
        module = origin.get(name)
        if module is not None:
            value = getattr(importlib.import_module(module), name)
        elif name.startswith("_"):  # dunder probes are never submodules
            raise missing
        else:
            submodule = f"{package}.{name}"
            try:
                value = importlib.import_module(submodule)
            except ModuleNotFoundError as exc:
                if exc.name != submodule:
                    raise
                raise missing from None
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> list[str]:
        return sorted(set(vars(sys.modules[package])) | set(origin))

    return __getattr__, __dir__
