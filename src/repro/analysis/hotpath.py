"""Module classification for the hcclint domain rules.

Rules apply to different slices of the codebase: the per-sample SGD hot
paths, the FP32 kernel code, the worker/server loop modules, the
cost-model formula modules, and the set of modules allowed to mutate
the P/Q feature matrices directly.  Membership is keyed on the
repo-relative module path (``repro/mf/kernels.py``), so the linter
classifies files the same way regardless of the working directory.
"""

from __future__ import annotations

#: Per-sample / per-batch SGD code: allocation there multiplies by nnz.
HOT_PATH_MODULES = frozenset(
    {
        "repro/core/worker.py",
        "repro/engine/backends.py",
        "repro/engine/worker_proc.py",
        "repro/mf/kernels.py",
    }
)

#: FP32 training kernels (paper 3.4: FP32 compute, FP16 wire): silent
#: float64 promotion doubles bandwidth and hides precision assumptions.
KERNEL_MODULES = frozenset(
    {
        "repro/mf/kernels.py",
        "repro/mf/model.py",
        "repro/core/compression.py",
    }
)

#: Worker/server loop bodies: a sleep here stalls an epoch.
WORKER_LOOP_MODULES = frozenset(
    {
        "repro/core/worker.py",
        "repro/core/server.py",
        "repro/engine/backends.py",
        "repro/engine/worker_proc.py",
    }
)

#: Eq. 1-7 formula code, where bytes and seconds must never be added.
COST_MODEL_MODULES = frozenset(
    {
        "repro/core/comm.py",
        "repro/core/cost_model.py",
        "repro/hardware/specs.py",
    }
)

#: Modules allowed to write P/Q directly: the SGD kernels and trainers
#: (``repro/mf/``) plus the server/framework/executor sync paths.
PQ_OWNER_PREFIXES = ("repro/mf/",)
PQ_OWNER_MODULES = frozenset(
    {
        "repro/core/server.py",
        "repro/framework.py",
        "repro/core/checkpoint.py",
        "repro/engine/backends.py",
    }
)

#: Timing / telemetry code, where wall-clock (``time.time``) timestamps
#: are wrong: they jump under NTP slew, so spans can end before they
#: start and cross-process timelines misalign.  ``time.perf_counter``
#: is the system-wide monotonic base every span and probe must share.
# the serving plane measures request latency, so it shares the base
TIMING_MODULE_PREFIXES = ("repro/obs/", "repro/serving/")
TIMING_MODULES = frozenset(
    {
        "repro/hardware/profiler.py",
        "repro/engine/backends.py",
        "repro/engine/worker_proc.py",
        "repro/core/server.py",
        "repro/core/worker.py",
        # the stage profiler times everything it reports; the prefix
        # above already covers it, but it is named here so moving it
        # out of repro/obs/ cannot silently drop the rule
        "repro/obs/profile.py",
    }
)

#: Modules allowed to contain epoch-loop orchestration (HCC111): the
#: engine layer owns the pull/compute/push/sync sequence; the legacy
#: plane modules may keep only delegating facades.
EPOCH_LOOP_MODULE_PREFIXES = ("repro/engine/",)
EPOCH_LOOP_GUARDED_MODULES = frozenset(
    {
        "repro/framework.py",
        "repro/core/server.py",
        "repro/core/worker.py",
        "repro/parallel/tuning.py",
    }
)

#: Exception-safety scope (HCC202): the engine's attempt loop and the
#: resilience layer are the only places that mutate P/Q or open backend
#: attempts under recovery pressure, so a raise that escapes them with
#: state half-mutated corrupts the next attempt instead of failing it.
EXCEPTION_SAFETY_PREFIXES = ("repro/engine/", "repro/resilience/")

#: Multi-process coordination code (HCC107, with the worker-loop
#: modules): an unbounded ``.wait()`` / ``.join()`` / ``.acquire()`` /
#: ``.get()`` here deadlocks forever when a peer process dies instead of
#: surfacing a detectable failure — every blocking rendezvous must carry
#: a timeout so the failure detector gets a turn.
BOUNDED_WAIT_PREFIXES = ("repro/parallel/", "repro/engine/")


def module_key(path: str) -> str:
    """Repo-relative module key: the path from the ``repro/`` package root.

    Falls back to the bare filename for paths outside the package (test
    fixtures, scratch files), which keeps every scoped rule inert there.
    """
    posix = path.replace("\\", "/")
    marker = "/repro/"
    idx = posix.rfind(marker)
    if idx >= 0:
        return "repro/" + posix[idx + len(marker):]
    if posix.startswith("repro/"):
        return posix
    return posix.rsplit("/", 1)[-1]


def is_hot_module(key: str) -> bool:
    return key in HOT_PATH_MODULES


def is_kernel_module(key: str) -> bool:
    return key in KERNEL_MODULES


def is_worker_loop_module(key: str) -> bool:
    return key in WORKER_LOOP_MODULES


def is_cost_model_module(key: str) -> bool:
    return key in COST_MODEL_MODULES


def is_pq_owner_module(key: str) -> bool:
    return key in PQ_OWNER_MODULES or key.startswith(PQ_OWNER_PREFIXES)


def is_timing_module(key: str) -> bool:
    return key in TIMING_MODULES or key.startswith(TIMING_MODULE_PREFIXES)


def is_epoch_loop_guarded_module(key: str) -> bool:
    return key in EPOCH_LOOP_GUARDED_MODULES and not key.startswith(
        EPOCH_LOOP_MODULE_PREFIXES
    )


def is_bounded_wait_module(key: str) -> bool:
    return key in WORKER_LOOP_MODULES or key.startswith(BOUNDED_WAIT_PREFIXES)


def is_exception_safety_module(key: str) -> bool:
    return key.startswith(EXCEPTION_SAFETY_PREFIXES)
