"""Stage-attributed profiling: *where* an engine stage spends its time.

The benchmark (``python3 -m perf``) says *what* is slow; this module
says *where*.  A :class:`StageProfiler` passed as
``EpochEngine(profile=...)`` wraps every pipeline stage dispatch
(``pull``/``compute``/``push``/``sync`` plus ``evaluate``) in a
per-stage :mod:`cProfile` run, and —
on the process plane — hands each worker process a drop directory where
it dumps its own per-stage profiles at exit
(``attempt-N/worker-W.<stage>.pstats``, one file per engine attempt so
recovered runs keep every attempt's samples, mirroring the
attempt-tagged span timelines).  :meth:`StageProfiler.report` fuses the
server profiles with the worker dumps into one
:class:`StageProfileReport`: cumulative seconds bucketed per stage, a
top-N hotpath table, and the *attributed fraction* — how much of the
profiled time landed inside a named engine stage (a dump from an
unknown stage counts against it, so drift between the profiler and the
engine's stage set is visible, not silent).

cProfile allows one active profiler per interpreter, so stage scopes
must never nest — the engine's stage dispatch and the worker's
pull/train/push boundaries are disjoint by construction, and each
worker process owns its own interpreter.
"""

from __future__ import annotations

import cProfile
import json
import os
import pstats
import shutil
import tempfile
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator

#: the stage buckets a profile may attribute time to: the engine's
#: pipeline stages plus the epoch-closing evaluate
ENGINE_STAGES = ("pull", "compute", "push", "sync", "evaluate")

#: hotpath JSON document marker (``obs-report --hotpaths`` input)
HOTPATH_SCHEMA = "repro-hotpaths/v1"


def _format_function(filename: str, lineno: int, funcname: str) -> str:
    """``name (pkg/module.py:lineno)``; builtins keep their own label."""
    if filename == "~":
        return funcname
    parts = filename.replace(os.sep, "/").split("/")
    short = "/".join(parts[-2:])
    return f"{funcname} ({short}:{lineno})"


@dataclass(frozen=True)
class HotpathEntry:
    """One profiled function, attributed to the stage it ran under."""

    stage: str
    function: str
    calls: int
    #: seconds inside the function itself (excluding callees)
    tottime: float
    #: seconds including callees — the hotpath ranking key
    cumtime: float

    def to_dict(self) -> dict:
        return {
            "stage": self.stage,
            "function": self.function,
            "calls": self.calls,
            "tottime": self.tottime,
            "cumtime": self.cumtime,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "HotpathEntry":
        return cls(
            stage=str(data["stage"]),
            function=str(data["function"]),
            calls=int(data["calls"]),
            tottime=float(data["tottime"]),
            cumtime=float(data["cumtime"]),
        )


@dataclass
class StageProfileReport:
    """Profiled time bucketed into engine stages + the hotpath table.

    ``stage_seconds`` sums each profile's *internal* times (``tottime``),
    so the per-stage totals add up without double counting; ``entries``
    ranks functions by cumulative time, which is what a reader follows
    to the hot call path.
    """

    stage_seconds: dict[str, float]
    entries: list[HotpathEntry]
    #: profiled seconds from dumps whose stage is not an engine stage
    unattributed_seconds: float = 0.0

    @property
    def attributed_seconds(self) -> float:
        return sum(self.stage_seconds.values())

    @property
    def total_seconds(self) -> float:
        return self.attributed_seconds + self.unattributed_seconds

    @property
    def attributed_fraction(self) -> float:
        """Share of profiled time that landed in a named engine stage."""
        total = self.total_seconds
        if total <= 0.0:
            return 1.0
        return self.attributed_seconds / total

    def top(self, n: int = 10) -> list[HotpathEntry]:
        return sorted(self.entries, key=lambda e: e.cumtime, reverse=True)[:n]

    def render(self, top_n: int = 10) -> str:
        lines = [
            f"stage-attributed profile: {self.total_seconds:.4f}s profiled, "
            f"{100.0 * self.attributed_fraction:.1f}% attributed to engine "
            f"stages"
        ]
        lines.append(f"  {'stage':<12} {'seconds':>10} {'share':>7}")
        total = self.total_seconds or 1.0
        for stage in ENGINE_STAGES:
            if stage in self.stage_seconds:
                secs = self.stage_seconds[stage]
                lines.append(
                    f"  {stage:<12} {secs:>10.4f} {100.0 * secs / total:>6.1f}%"
                )
        if self.unattributed_seconds > 0:
            lines.append(
                f"  {'(other)':<12} {self.unattributed_seconds:>10.4f} "
                f"{100.0 * self.unattributed_seconds / total:>6.1f}%"
            )
        top = self.top(top_n)
        if top:
            lines.append(f"top {len(top)} hotpaths by cumulative time:")
            lines.append(
                f"  {'stage':<10} {'cumtime':>9} {'calls':>8}  function"
            )
            for entry in top:
                lines.append(
                    f"  {entry.stage:<10} {entry.cumtime:>9.4f} "
                    f"{entry.calls:>8}  {entry.function}"
                )
        return "\n".join(lines)

    def to_dict(self) -> dict:
        return {
            "schema": HOTPATH_SCHEMA,
            "stage_seconds": dict(self.stage_seconds),
            "unattributed_seconds": self.unattributed_seconds,
            "entries": [e.to_dict() for e in self.entries],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "StageProfileReport":
        schema = data.get("schema")
        if schema != HOTPATH_SCHEMA:
            raise ValueError(
                f"not a hotpath report (schema {schema!r}, expected "
                f"{HOTPATH_SCHEMA!r})"
            )
        return cls(
            stage_seconds={
                str(k): float(v) for k, v in data["stage_seconds"].items()
            },
            entries=[HotpathEntry.from_dict(e) for e in data["entries"]],
            unattributed_seconds=float(data.get("unattributed_seconds", 0.0)),
        )

    def save(self, path: "str | os.PathLike") -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh, indent=2)
            fh.write("\n")

    @classmethod
    def load(cls, path: "str | os.PathLike") -> "StageProfileReport":
        with open(path, encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))


class WorkerStageProfiles:
    """Per-stage cProfile accumulation inside one worker process.

    The worker wraps its pull/compute/push boundaries with
    :meth:`stage` (re-entering a stage resumes its profile) and calls
    :meth:`dump` once before exit to drop one ``.pstats`` file per
    stage into the server-provided directory.
    """

    def __init__(self) -> None:
        self._profiles: dict[str, cProfile.Profile] = {}

    @contextmanager
    def stage(self, name: str) -> Iterator[None]:
        prof = self._profiles.setdefault(name, cProfile.Profile())
        prof.enable()
        try:
            yield
        finally:
            prof.disable()

    def dump(self, directory: str, worker_id: int) -> None:
        for name, prof in self._profiles.items():
            prof.dump_stats(
                os.path.join(directory, f"worker-{worker_id}.{name}.pstats")
            )


class StageProfiler:
    """The engine-side profiling hook (``EpochEngine(profile=...)``).

    Server-side stage dispatch is profiled directly via :meth:`stage`;
    worker processes dump into :meth:`worker_dir` (the process backend
    creates one ``attempt-N`` subdirectory per open).  :meth:`report`
    fuses both into a :class:`StageProfileReport`; call :meth:`cleanup`
    afterwards to remove the drop directory.
    """

    def __init__(self, max_entries_per_stage: int = 50):
        if max_entries_per_stage <= 0:
            raise ValueError("max_entries_per_stage must be positive")
        self.max_entries_per_stage = max_entries_per_stage
        self._profiles: dict[str, cProfile.Profile] = {}
        self._workdir: str | None = None

    def worker_dir(self) -> str:
        """The drop directory for worker dumps (created on first use)."""
        if self._workdir is None:
            self._workdir = tempfile.mkdtemp(prefix="repro-profile-")
        return self._workdir

    @contextmanager
    def stage(self, name: str) -> Iterator[None]:
        """Profile one server-side stage dispatch (resumes per stage)."""
        prof = self._profiles.setdefault(name, cProfile.Profile())
        prof.enable()
        try:
            yield
        finally:
            prof.disable()

    # -- report assembly -------------------------------------------------
    def _collect(
        self,
        stats: pstats.Stats,
        stage: str,
        stage_seconds: dict[str, float],
        entries: list[HotpathEntry],
    ) -> float:
        """Fold one profile into the buckets; returns its total seconds."""
        total = 0.0
        per_stage: list[HotpathEntry] = []
        for (fname, lineno, func), row in stats.stats.items():  # type: ignore[attr-defined]
            _cc, nc, tt, ct, _callers = row
            if "_lsprof.Profiler" in func:
                continue  # the profiler's own enable/disable frames
            total += tt
            per_stage.append(HotpathEntry(
                stage=stage,
                function=_format_function(fname, lineno, func),
                calls=int(nc),
                tottime=float(tt),
                cumtime=float(ct),
            ))
        per_stage.sort(key=lambda e: e.cumtime, reverse=True)
        entries.extend(per_stage[: self.max_entries_per_stage])
        stage_seconds[stage] = stage_seconds.get(stage, 0.0) + total
        return total

    def report(self) -> StageProfileReport:
        """Fuse server profiles + worker dumps into one report."""
        stage_seconds: dict[str, float] = {}
        entries: list[HotpathEntry] = []
        unattributed = 0.0
        for stage, prof in self._profiles.items():
            prof.create_stats()
            total = self._collect(
                pstats.Stats(prof), stage, stage_seconds, entries
            )
            if stage not in ENGINE_STAGES:
                unattributed += total
                stage_seconds.pop(stage, None)
        if self._workdir is not None:
            for dirpath, _dirs, files in sorted(os.walk(self._workdir)):
                for fn in sorted(files):
                    if not fn.endswith(".pstats"):
                        continue
                    parts = fn.rsplit(".", 2)
                    stage = parts[-2] if len(parts) == 3 else "unknown"
                    total = self._collect(
                        pstats.Stats(os.path.join(dirpath, fn)),
                        stage, stage_seconds, entries,
                    )
                    if stage not in ENGINE_STAGES:
                        unattributed += total
                        stage_seconds.pop(stage, None)
        return StageProfileReport(
            stage_seconds=stage_seconds,
            entries=entries,
            unattributed_seconds=unattributed,
        )

    def cleanup(self) -> None:
        """Remove the worker drop directory (idempotent)."""
        if self._workdir is not None:
            shutil.rmtree(self._workdir, ignore_errors=True)
            self._workdir = None
