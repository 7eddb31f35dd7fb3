"""Lazy package exports (PEP 562) for ``repro`` and ``repro.obs``.

A spawned worker process imports ``repro`` just to reach its entry
point; an eager ``__init__`` would drag the whole tree into every
child.  A package instead declares *where* each public name lives and
resolves it on first access, so a process pays only for what it uses.
"""

from __future__ import annotations

import importlib
import sys
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
    """
    origin = {name: module for module, names in exports.items() for name in names}

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
