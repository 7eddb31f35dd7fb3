"""The numpy build a measurement ran on.

The repo's numbers come from ``python3 -m perf`` (BENCHMARK.json,
perf/README.md); this module holds the one function that benchmark
imports from ``src/``: ``perf/child.py:650`` calls
:func:`host_fingerprint` in each measuring child (the only processes
that load numpy) and copies the ``"numpy"`` and ``"blas"`` strings into
the run's ``host`` block.  ``perf/`` can only be edited by a
``[benchmark]`` PR; the one that retargets that line deletes this file.
"""

from __future__ import annotations

import os
import sys

import numpy as np


def host_fingerprint() -> dict:
    """Where the numbers came from: CPU count, python, numpy/BLAS."""
    try:
        blas = _blas_name()
    except Exception:  # pragma: no cover - numpy internals vary
        blas = "unknown"
    return {
        "cpu_count": os.cpu_count() or 1,
        "python": sys.version.split()[0],
        "platform": sys.platform,
        "numpy": np.__version__,
        "blas": blas,
    }


def _blas_name() -> str:
    cfg = getattr(np, "__config__", None)
    if cfg is None:
        return "unknown"
    # numpy >= 1.25 exposes the build config as dicts
    show = getattr(np, "show_config", None)
    try:
        info = show(mode="dicts") if show is not None else None
    except TypeError:
        info = None
    if isinstance(info, dict):
        blas = info.get("Build Dependencies", {}).get("blas", {})
        name = blas.get("name")
        if name:
            return str(name)
    for key in ("openblas64__info", "openblas_info", "blas_mkl_info",
                "blas_opt_info"):
        if getattr(cfg, key, None):
            return key.replace("_info", "")
    return "unknown"
