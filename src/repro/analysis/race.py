"""Dynamic race / ownership detector for the HCC-MF epoch structure.

The paper's concurrency argument (3.4 Strategy 1 + 3.5) rests on two
runtime properties:

* **Disjoint P-row ownership** — the row grid gives every worker an
  exclusive set of user rows, so in-place P updates need no merging and
  "transmit Q only" is collision-free;
* **One-copy buffer discipline** — per epoch, the server deposits the
  pull buffer exactly once and each worker deposits its own push buffer
  exactly once ("data copy usually happens only once in one epoch").

This module *records* what actually happens and checks both.  Accesses
go into a :class:`RaceLog` whose entries carry vector-clock snapshots:
worker events within an epoch have no happens-before edges between
workers (they model the asynchronous training phase), while the
server's end-of-epoch barrier merges all clocks.  Two P-range writes
from different workers are therefore flagged only when they are
*concurrent* — same-epoch overlap is a race, cross-epoch overlap after
a barrier (e.g. a repartition between epochs) is legal.

:func:`tracked_train` drives the epoch both planes run — the shared
:class:`~repro.core.server.ParameterServer` and
:func:`~repro.engine.worker_proc.worker_epoch` — and takes its accesses
from the recorder seam that worker half already has, so the §3.4/§3.5
guarantees are proven against the code that executes, not a replica.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.core.partition import PartitionPlan, dp0, dp1, dp2
from repro.core.server import ParameterServer
from repro.data.grid import GridAssignment
from repro.data.ratings import RatingMatrix
from repro.data.synthetic import SyntheticConfig, generate_low_rank
from repro.engine.channels import Channel
from repro.engine.worker_proc import NullRecorder, local_view, worker_epoch
from repro.hardware.timeline import Phase
from repro.mf.kernels import ConflictPolicy
from repro.mf.model import MFModel

READ = "read"
WRITE = "write"


@dataclass(frozen=True)
class Access:
    """One recorded access: who touched what, when, with which clock."""

    actor: int            # worker index, or RaceLog.server_actor
    epoch: int
    op: str               # READ or WRITE
    target: str           # "P", "pull", "push:<i>", ...
    lo: int = 0
    hi: int = 0           # row range [lo, hi) for ranged targets
    clock: tuple[int, ...] = ()

    def overlaps(self, other: "Access") -> bool:
        return self.lo < other.hi and other.lo < self.hi

    def happens_before(self, other: "Access") -> bool:
        if len(self.clock) != len(other.clock):
            raise ValueError("clock arity mismatch")
        return self.clock != other.clock and all(
            a <= b for a, b in zip(self.clock, other.clock)
        )

    def concurrent_with(self, other: "Access") -> bool:
        return not self.happens_before(other) and not other.happens_before(self)


@dataclass(frozen=True)
class RaceViolation:
    """One detected invariant violation."""

    kind: str             # "p-row-overlap" | "double-copy" | "foreign-write"
                          # | "stale-read" | "range-overlap"
                          # | "duplicate-entries" | "row-overlap"
    message: str
    first: Access | None = None
    second: Access | None = None


class RaceLog:
    """Vector-clock access log for one training run.

    Actors ``0..n_workers-1`` are workers; :attr:`server_actor` is the
    server.  :meth:`advance_epoch` is the end-of-epoch barrier: it
    merges every actor's clock, ordering everything before it against
    everything after.
    """

    def __init__(self, n_workers: int):
        if n_workers <= 0:
            raise ValueError("n_workers must be positive")
        self.n_workers = n_workers
        self.server_actor = n_workers
        self._n_actors = n_workers + 1
        self._clocks = [[0] * self._n_actors for _ in range(self._n_actors)]
        self.events: list[Access] = []
        self.epoch = 0

    # -- recording -----------------------------------------------------
    def record(
        self, actor: int, op: str, target: str, lo: int = 0, hi: int = 0
    ) -> Access:
        if not (0 <= actor < self._n_actors):
            raise ValueError(f"unknown actor {actor}")
        if op not in (READ, WRITE):
            raise ValueError(f"op must be {READ!r} or {WRITE!r}")
        clock = self._clocks[actor]
        clock[actor] += 1
        event = Access(actor, self.epoch, op, target, int(lo), int(hi), tuple(clock))
        self.events.append(event)
        return event

    def advance_epoch(self) -> None:
        """Barrier: merge all clocks, then start the next epoch."""
        merged = [max(c[i] for c in self._clocks) for i in range(self._n_actors)]
        for actor in range(self._n_actors):
            self._clocks[actor] = list(merged)
        self.epoch += 1

    # -- analysis ------------------------------------------------------
    def p_row_conflicts(self) -> list[RaceViolation]:
        """Concurrent overlapping P-range accesses from different workers."""
        out: list[RaceViolation] = []
        p_events = [e for e in self.events if e.target == "P"]
        for i, a in enumerate(p_events):
            for b in p_events[i + 1:]:
                if a.actor == b.actor:
                    continue
                if WRITE not in (a.op, b.op):
                    continue
                if not a.overlaps(b):
                    continue
                if a.concurrent_with(b):
                    out.append(
                        RaceViolation(
                            kind="p-row-overlap",
                            message=(
                                f"workers {a.actor} and {b.actor} concurrently "
                                f"{a.op}/{b.op} overlapping P rows "
                                f"[{max(a.lo, b.lo)}, {min(a.hi, b.hi)}) in "
                                f"epoch {a.epoch} — row-grid ownership broken "
                                "(paper 3.4 Strategy 1)"
                            ),
                            first=a,
                            second=b,
                        )
                    )
        return out

    def copy_discipline_violations(self) -> list[RaceViolation]:
        """One pull deposit per epoch; one push deposit per worker per
        epoch, and no read of a push wire past what that deposit wrote."""
        out: list[RaceViolation] = []
        writes: dict[tuple[int, str], list[Access]] = {}
        push_reads: list[Access] = []
        for e in self.events:
            if e.op != WRITE:
                if e.target.startswith("push:"):
                    push_reads.append(e)
                continue
            if e.target == "pull" or e.target.startswith("push:"):
                writes.setdefault((e.epoch, e.target), []).append(e)
        for read in push_reads:
            written = max(
                (w.hi for w in writes.get((read.epoch, read.target), ())), default=0
            )
            if read.hi > written:
                out.append(
                    RaceViolation(
                        kind="stale-read",
                        message=(
                            f"actor {read.actor} read {read.target} up to value "
                            f"{read.hi} in epoch {read.epoch}, but its owner "
                            f"deposited only the first {written}: both halves "
                            "must derive one column set from the shard"
                        ),
                        first=read,
                    )
                )
        for (epoch, target), events in sorted(writes.items()):
            if len(events) > 1:
                out.append(
                    RaceViolation(
                        kind="double-copy",
                        message=(
                            f"{target} buffer deposited {len(events)} times in "
                            f"epoch {epoch}; the one-copy discipline (paper "
                            "3.5) allows exactly one"
                        ),
                        first=events[0],
                        second=events[1],
                    )
                )
            for e in events:
                owner = (
                    self.server_actor
                    if target == "pull"
                    else int(target.split(":", 1)[1])
                )
                if e.actor != owner:
                    out.append(
                        RaceViolation(
                            kind="foreign-write",
                            message=(
                                f"actor {e.actor} wrote {target} in epoch "
                                f"{epoch}, but that buffer belongs to actor "
                                f"{owner}"
                            ),
                            first=e,
                        )
                    )
        return out

    def violations(self) -> list[RaceViolation]:
        return self.p_row_conflicts() + self.copy_discipline_violations()


# ---------------------------------------------------------------------------
# static ownership check on a materialized partition
# ---------------------------------------------------------------------------
def check_row_ownership(
    assignments: Sequence[GridAssignment],
    ratings: RatingMatrix | None = None,
) -> list[RaceViolation]:
    """Prove a row-grid plan's P ownership is disjoint (or say why not).

    Checks claimed ranges, entry-index sets and (when ``ratings`` is
    given) the actual row occupancy of every worker's shard.  Only
    meaningful for row/column-grid plans; entry-level partitions share
    rows by design.
    """
    out: list[RaceViolation] = []
    for i, a in enumerate(assignments):
        for b in assignments[i + 1:]:
            if a.span > 0 and b.span > 0 and a.lo < b.hi and b.lo < a.hi:
                out.append(
                    RaceViolation(
                        kind="range-overlap",
                        message=(
                            f"workers {a.worker} and {b.worker} both claim "
                            f"{a.kind.value} range "
                            f"[{max(a.lo, b.lo)}, {min(a.hi, b.hi)})"
                        ),
                    )
                )
            shared = np.intersect1d(a.entries, b.entries)
            if shared.size:
                out.append(
                    RaceViolation(
                        kind="duplicate-entries",
                        message=(
                            f"workers {a.worker} and {b.worker} share "
                            f"{shared.size} training entries; every rating "
                            "must be trained by exactly one worker"
                        ),
                    )
                )
            if ratings is not None and a.nnz and b.nnz:
                rows_a = np.unique(ratings.rows[a.entries])
                rows_b = np.unique(ratings.rows[b.entries])
                common = np.intersect1d(rows_a, rows_b)
                if common.size:
                    out.append(
                        RaceViolation(
                            kind="row-overlap",
                            message=(
                                f"workers {a.worker} and {b.worker} both hold "
                                f"entries for {common.size} P rows (e.g. row "
                                f"{int(common[0])}); in-place P updates would "
                                "race"
                            ),
                        )
                    )
    return out


# ---------------------------------------------------------------------------
# the recorder seam as an access log
# ---------------------------------------------------------------------------
class _AccessRecorder:
    """What one worker's ``worker_epoch`` spans mean as logged accesses.

    PULL reads the pull wire, PUSH writes the first ``pushed`` values
    of the worker's own push wire (its local Q's size), and COMPUTE
    writes the P rows its shard actually holds (so an overlapping
    assignment *is* an overlapping write).
    """

    def __init__(self, log: RaceLog, worker: int, shard: RatingMatrix, pushed: int):
        self._log = log
        self._worker = worker
        self._pushed = pushed
        self._p_rows = (
            (int(shard.rows.min()), int(shard.rows.max()) + 1)
            if shard.nnz else None
        )

    @contextmanager
    def span(self, phase: Phase, epoch: int):
        if phase is Phase.PULL:
            self._log.record(self._worker, READ, "pull")
        elif phase is Phase.PUSH:
            self._log.record(
                self._worker, WRITE, f"push:{self._worker}", 0, self._pushed
            )
        elif phase is Phase.COMPUTE and self._p_rows is not None:
            self._log.record(self._worker, WRITE, "P", *self._p_rows)
        yield


# ---------------------------------------------------------------------------
# instrumented training replay
# ---------------------------------------------------------------------------
@dataclass
class RaceReport:
    """Outcome of a tracked run: what happened and what it violated."""

    label: str
    n_workers: int
    epochs: int
    violations: list[RaceViolation]
    n_events: int
    rmse_history: list[float] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def render(self) -> str:
        head = (
            f"[{self.label}] {self.n_workers} workers x {self.epochs} epochs, "
            f"{self.n_events} recorded accesses: "
        )
        if self.ok:
            return head + "OK (disjoint P ownership, one-copy discipline held)"
        lines = [head + f"{len(self.violations)} violation(s)"]
        lines += [f"  - [{v.kind}] {v.message}" for v in self.violations]
        return "\n".join(lines)


def tracked_train(
    ratings: RatingMatrix,
    assignments: Sequence[GridAssignment],
    k: int = 8,
    epochs: int = 2,
    lr: float = 0.01,
    reg: float = 0.02,
    seed: int = 0,
    label: str = "tracked",
    log: RaceLog | None = None,
) -> RaceReport:
    """Run a real in-process training with every access recorded.

    A driver of its own — it must accept deliberately overlapping
    assignments, which no backend would — over the shared halves of
    the epoch: its own ``begin_epoch`` and ``sync`` calls are the
    server's accesses, and each worker's come from the spans
    ``worker_epoch`` opens around its pull, compute and push.
    """
    n = len(assignments)
    if log is None:
        log = RaceLog(n)
    model = MFModel.init_for(ratings, k, seed=seed)
    channel = Channel()
    workers = []
    for a in assignments:
        shard = a.extract(ratings).sort_by_row()
        # wraps the shared P without copying: in-place row updates,
        # exactly the backends' semantics
        local = local_view(model.P, (shard.rows, shard.cols, shard.vals), ratings.n)
        workers.append((
            a.worker,
            local,
            np.random.default_rng(seed + 101 * (a.worker + 1)),
            _AccessRecorder(log, a.worker, shard, local[0].Q.size),
        ))
    server = ParameterServer(
        model, n, channel, columns=[local[2] for _, local, _, _ in workers]
    )
    idle = NullRecorder()

    history: list[float] = []
    for epoch in range(epochs):
        log.record(log.server_actor, WRITE, "pull")
        server.begin_epoch()
        for wid, local, rng, rec in workers:
            worker_epoch(
                channel, *local, server.pull_wire, server.push_wires[wid],
                lr, reg, 4096, ConflictPolicy.ATOMIC, rng, (), epoch, epoch,
                rec, idle,
            )
            log.record(
                log.server_actor, READ, f"push:{wid}", 0, server.pushed(wid).size
            )
            server.sync(wid)
        log.advance_epoch()
        history.append(model.rmse(ratings))

    return RaceReport(
        label=label,
        n_workers=n,
        epochs=epochs,
        violations=log.violations(),
        n_events=len(log.events),
        rmse_history=history,
    )


# ---------------------------------------------------------------------------
# end-to-end check (CLI + test entry point)
# ---------------------------------------------------------------------------
def inject_overlap(
    assignments: Sequence[GridAssignment],
) -> list[GridAssignment]:
    """Corrupt a plan: worker 1 additionally claims worker 0's shard.

    Produces exactly the overlapping-ownership bug class the detector
    exists for (two workers writing the same P rows in one epoch).
    """
    if len(assignments) < 2:
        raise ValueError("need at least two workers to overlap")
    a0, a1 = assignments[0], assignments[1]
    corrupted = GridAssignment(
        worker=a1.worker,
        kind=a1.kind,
        lo=min(a0.lo, a1.lo),
        hi=max(a0.hi, a1.hi),
        entries=np.concatenate([a0.entries, a1.entries]),
    )
    return [assignments[0], corrupted, *assignments[2:]]


def _demo_plans(n_workers: int) -> dict[str, PartitionPlan]:
    """DP0/DP1/DP2 plans over a synthetic heterogeneous platform.

    Worker 0 plays the GPU (fastest independent time); DP1 compensates a
    modeled CPU-side interference penalty; DP2 staggers by a sync time.
    """
    rates = [1.0 + 1.5 * i for i in range(n_workers)]
    is_gpu = [i == 0 for i in range(n_workers)]

    def measure(x: Sequence[float]) -> list[float]:
        # co-running interference: CPU-class workers run 25% slow (the
        # runtime effect DP1's compensation loop exists to absorb)
        return [
            r * xi * (1.0 if gpu else 1.25)
            for r, xi, gpu in zip(rates, x, is_gpu)
        ]

    plans = {"dp0": dp0(rates)}
    if n_workers > 1:
        plans["dp1"] = dp1(plans["dp0"], measure, is_gpu)
        plans["dp2"] = dp2(plans["dp1"], sync_time=0.02 * min(rates))
    return plans


@dataclass
class RaceCheckResult:
    """Everything ``repro race-check`` produced."""

    reports: list[RaceReport]
    static_violations: dict[str, list[RaceViolation]]
    injected_report: RaceReport | None = None

    @property
    def injected_detected(self) -> bool:
        return self.injected_report is not None and not self.injected_report.ok

    @property
    def ok(self) -> bool:
        clean = all(r.ok for r in self.reports) and not any(
            self.static_violations.values()
        )
        if self.injected_report is not None:
            # the corrupted run must be *caught* for the check to pass
            clean = clean and self.injected_detected
        return clean

    def render(self) -> str:
        lines = []
        for label, violations in self.static_violations.items():
            if violations:
                lines.append(f"[{label}] static ownership check: "
                             f"{len(violations)} violation(s)")
                lines += [f"  - [{v.kind}] {v.message}" for v in violations]
            else:
                lines.append(f"[{label}] static ownership check: OK")
        lines += [r.render() for r in self.reports]
        if self.injected_report is not None:
            lines.append(self.injected_report.render())
            lines.append(
                "injected overlap detected: "
                + ("yes (detector works)" if self.injected_detected
                   else "NO — detector miss")
            )
        verdict = "PASS" if self.ok else "FAIL"
        lines.append(f"race-check: {verdict}")
        return "\n".join(lines)


def race_check(
    n_workers: int = 3,
    nnz: int = 2000,
    epochs: int = 2,
    seed: int = 0,
    with_injected_overlap: bool = False,
) -> RaceCheckResult:
    """Prove P-row ownership + one-copy discipline for DP0/DP1/DP2 plans.

    With ``with_injected_overlap`` the DP0 plan is additionally run with
    a deliberately corrupted assignment, demonstrating that the detector
    catches the collision (that run is *expected* to report violations
    and does not affect :attr:`RaceCheckResult.ok`).
    """
    config = SyntheticConfig(
        m=40 * n_workers, n=20 * n_workers, nnz=nnz, rating_step=0.5
    )
    ratings = generate_low_rank(config, seed=seed).shuffle(seed)
    reports: list[RaceReport] = []
    static: dict[str, list[RaceViolation]] = {}
    for label, plan in _demo_plans(n_workers).items():
        assignments = plan.materialize(ratings)
        static[label] = check_row_ownership(assignments, ratings)
        reports.append(
            tracked_train(
                ratings, assignments, epochs=epochs, seed=seed, label=label
            )
        )
    result = RaceCheckResult(reports=reports, static_violations=static)
    if with_injected_overlap and n_workers >= 2:
        corrupted = inject_overlap(_demo_plans(n_workers)["dp0"].materialize(ratings))
        result.injected_report = tracked_train(
            ratings, corrupted, epochs=1, seed=seed, label="dp0+injected-overlap"
        )
    return result
