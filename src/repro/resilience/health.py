"""The health plane: classify workers after a failed rendezvous.

The process plane already keeps per-rank *progress stamps* — a shared
int64 slot each worker sets to ``1`` once attached (the handshake) and
bumps before the start (``2e+2``) and end (``2e+3``) barriers of epoch
``e`` (:func:`repro.engine.worker_proc.barrier_stamp`) — which
:class:`~repro.engine.backends.WorkerSyncError` reads to name the ranks
that never arrived.  This module adds the second signal needed to pick
a recovery action: the OS process state.  A missing rank whose process
is *alive* is a straggler (retry can work); a process that exited — by
crash, signal, or a clean exit before finishing its epochs — is dead
(its shard must move to survivors or the run must abort).

:func:`classify` is plane-independent: the process backend feeds it
reaped ``Process.exitcode`` values, the sim backend feeds the exit
codes its injected kills *would* have produced (13 hard, 1 soft, None
alive) — so both planes hand the recovery policy identical evidence,
which is what the chaos-parity harness (:mod:`repro.testing`) verifies.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Sequence


class WorkerState(enum.Enum):
    """One worker's condition at failure time."""

    HEALTHY = "healthy"        # reached the barrier, process alive
    STRAGGLING = "straggling"  # behind the barrier but still running
    DEAD = "dead"              # process exited (crash, signal, or early)


@dataclass(frozen=True)
class WorkerHealth:
    """One rank's classification plus the evidence it rests on."""

    rank: int
    state: WorkerState
    #: ``Process.exitcode``: None while alive, negative for a signal
    exitcode: int | None = None

    def describe(self) -> str:
        extra = ""
        if self.exitcode is not None:
            extra = f" (exit {self.exitcode})"
        return f"worker-{self.rank}: {self.state.value}{extra}"


@dataclass(frozen=True)
class HealthReport:
    """Every worker's state at the moment a failure surfaced."""

    workers: tuple[WorkerHealth, ...]
    #: what raised: the stringified engine-side exception
    cause: str = ""

    @property
    def dead_ranks(self) -> tuple[int, ...]:
        return tuple(w.rank for w in self.workers if w.state is WorkerState.DEAD)

    @property
    def straggler_ranks(self) -> tuple[int, ...]:
        return tuple(
            w.rank for w in self.workers if w.state is WorkerState.STRAGGLING
        )

    @property
    def healthy_ranks(self) -> tuple[int, ...]:
        return tuple(
            w.rank for w in self.workers if w.state is WorkerState.HEALTHY
        )

    @property
    def ok(self) -> bool:
        return not self.dead_ranks and not self.straggler_ranks

    def describe(self) -> str:
        return "; ".join(w.describe() for w in self.workers) or "no workers"


def classify(
    n_workers: int,
    missing_ranks: Sequence[int],
    exitcodes: Sequence[int | None],
    cause: str = "",
) -> HealthReport:
    """Fuse barrier progress and process state into a health report.

    ``missing_ranks`` are the ranks whose progress stamps never reached
    the failed barrier (what :class:`WorkerSyncError` carries);
    ``exitcodes`` is each rank's ``Process.exitcode`` at failure time.

    * a nonzero (or signal) exit code is **dead** regardless of stamps —
      a killed worker may have stamped before dying;
    * a missing rank that exited cleanly is also **dead**: it ended
      before completing its epochs, so it will never arrive;
    * a missing rank still running is a **straggler**;
    * everything else is **healthy**.
    """
    if len(exitcodes) != n_workers:
        raise ValueError("need one exit code (or None) per worker")
    missing = set(missing_ranks)
    workers = []
    for rank in range(n_workers):
        code = exitcodes[rank]
        if code is not None and code != 0:
            state = WorkerState.DEAD
        elif rank in missing:
            state = WorkerState.DEAD if code == 0 else WorkerState.STRAGGLING
        else:
            state = WorkerState.HEALTHY
        workers.append(WorkerHealth(rank, state, code))
    return HealthReport(tuple(workers), cause=cause)
