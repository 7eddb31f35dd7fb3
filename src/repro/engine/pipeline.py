"""The epoch engine: one composable training loop for every plane.

The paper's training step (Figure 4, steps 4-7) is the same pipeline no
matter which substrate executes it::

    PartitionPlan -> Channel.pull -> ComputeBackend -> Channel.push -> sync

:class:`EpochEngine` drives that stage sequence.  Everything
substrate-specific lives behind the :class:`ComputeBackend` protocol
(:mod:`repro.engine.backends`): the sim plane advances the calibrated
cost model and runs the in-process numeric kernels; the process plane
coordinates real worker processes over shared memory.  Everything
strategy-specific lives in the channel stack
(:mod:`repro.engine.channels`) and the
:class:`~repro.core.partition.PartitionPlan` the engine is handed, so a
strategy knob is turned in exactly one place and both planes feel it.

The engine is also the single emission point for run-level telemetry:
per-epoch RMSE gauges and events, and the stage trace — an auditable
``(epoch, stage, detail)`` record that the parity gate diffs across
backends to prove the planes execute the same sequence.
"""

from __future__ import annotations

import os
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Mapping, Protocol, runtime_checkable

from repro.core.config import RecoveryPolicy
from repro.core.partition import PartitionPlan, even_partition, redistribute
from repro.engine.backends import WirePayloadError, WorkerSyncError
from repro.engine.channels import Channel
from repro.resilience.health import HealthReport
from repro.resilience.policy import (
    RecoveryAction,
    ResilienceSummary,
    TrainingAborted,
    decide,
)

#: The fixed per-epoch stage sequence (paper Figure 4 steps 4-7).
STAGES = ("pull", "compute", "push", "sync")

#: Failures the recovery policy may handle; anything else propagates.
RECOVERABLE_ERRORS = (WorkerSyncError, WirePayloadError)


def _peak_rss_mb() -> float:
    """``ru_maxrss`` of this process or its reaped children, whichever is larger."""
    import resource  # POSIX only, like the shared-memory plane; read once per run

    kb = max(
        resource.getrusage(who).ru_maxrss
        for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)
    )
    return kb / 1024.0


# ---------------------------------------------------------------------------
# backend protocol
# ---------------------------------------------------------------------------
@runtime_checkable
class ComputeBackend(Protocol):
    """One epoch substrate: what each pipeline stage means for real.

    ``open`` receives the resolved plan, channel stack, telemetry and
    epoch count before the first epoch (process backends
    need the count up front to size span rings and spawn workers); the
    four stage methods run once
    per epoch in :data:`STAGES` order and return an accounting detail
    mapping; ``evaluate`` closes the epoch (RMSE, or ``None`` on pure
    timing runs); ``finalize`` attaches span artifacts to telemetry on
    success; ``close`` releases resources unconditionally.
    """

    name: str
    n_workers: int

    def open(self, plan: PartitionPlan, channel: Channel, telemetry,
             epochs: int) -> None: ...
    def pull(self, epoch: int) -> Mapping: ...
    def compute(self, epoch: int) -> Mapping: ...
    def push(self, epoch: int) -> Mapping: ...
    def sync(self, epoch: int) -> Mapping: ...
    def evaluate(self, epoch: int) -> "float | None": ...
    def finalize(self, telemetry) -> None: ...
    def close(self) -> None: ...


# ---------------------------------------------------------------------------
# stage trace + result
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class StageEvent:
    """One executed pipeline stage with its accounting detail."""

    epoch: int
    stage: str
    detail: Mapping = field(default_factory=dict)


@dataclass
class EngineResult:
    """Everything one engine run produced, backend-agnostic."""

    backend: str
    channel: str
    plan: PartitionPlan
    epochs: int
    stage_trace: tuple[StageEvent, ...]
    rmse_history: list[float]
    model: object | None = field(default=None, repr=False)
    sim_seconds: float = 0.0
    #: what the resilience plane did (None on a plain fail-fast run)
    resilience: ResilienceSummary | None = None
    #: the plan the run *finished* on — differs from ``plan`` after a
    #: redistribution; tests/test_chaos_parity.py compares its fractions
    final_plan: PartitionPlan | None = None
    #: wall-clock of the whole ``run()`` call, on either plane
    elapsed_seconds: float = 0.0

    def stage_sequence(self) -> list[tuple[int, str]]:
        """The executed ``(epoch, stage)`` order — the parity signature."""
        return [(e.epoch, e.stage) for e in self.stage_trace]

    def epoch_updates(self) -> dict[int, tuple[int, ...]]:
        """Per-epoch per-worker SGD update counts, from compute stages."""
        out: dict[int, tuple[int, ...]] = {}
        for event in self.stage_trace:
            if event.stage == "compute" and "updates" in event.detail:
                out[event.epoch] = tuple(event.detail["updates"])
        return out

    def wire_bytes(self, stage: str) -> int:
        """Total bytes the trace accounts for one stage across epochs."""
        if stage not in ("pull", "push"):
            raise ValueError("wire bytes exist for the pull and push stages")
        return sum(
            int(e.detail.get("wire_bytes", 0))
            for e in self.stage_trace
            if e.stage == stage
        )

    @property
    def updates_applied(self) -> int:
        return sum(sum(u) for u in self.epoch_updates().values())

    @property
    def updates_per_second(self) -> float:
        """Achieved rate (paper Eq. 8); 0.0 for a sub-resolution run,
        which keeps downstream aggregation (means, tables) finite."""
        if self.elapsed_seconds <= 0:
            return 0.0
        return self.updates_applied / self.elapsed_seconds


# ---------------------------------------------------------------------------
# the engine
# ---------------------------------------------------------------------------
class EpochEngine:
    """Drive the stage pipeline over a backend for a number of epochs.

    Beyond the plain loop, the engine owns the run's *resilience plane*
    (docs/resilience.md), all opt-in:

    * ``recovery=`` (a :class:`~repro.core.config.RecoveryPolicy`)
      turns worker failures from fatal into recoverable: transient
      failures retry the epoch with exponential backoff, a dead worker
      triggers a shard redistribution across the survivors, and
      exhausted recovery checkpoints (when a path is configured) and
      raises :class:`~repro.resilience.policy.TrainingAborted`;
    * ``checkpoint_every=``/``checkpoint_path=`` write an atomic
      checkpoint at epoch boundaries;
    * ``resume_from=`` warm-starts from a saved checkpoint, replaying
      the completed epochs out of the workers' RNG streams so a
      resumed run continues the exact sample order of the
      straight-through run.

    ``profile=`` (a :class:`~repro.obs.profile.StageProfiler`) wraps
    every stage dispatch — the four pipeline stages plus ``evaluate`` —
    in a per-stage cProfile scope, and points backends that support
    worker-side profiling (``profile_dir``) at the profiler's drop
    directory, yielding a stage-attributed hotpath report
    (docs/observability.md).

    ``partitions=`` is the :class:`~repro.core.partition.PartitionPlan`
    the workers' shards follow — DP0/DP1/DP2 from the cost model, or one
    measured by :mod:`repro.parallel.tuning` — and ``None`` an even
    split; its worker count must be the backend's.

    Backends run *local* epoch indices (each (re)open counts from 0)
    while the stage trace, telemetry, faults and checkpoints speak
    *global* epochs; with no resume and no failure the two coincide and
    the engine behaves exactly as the plain loop.
    """

    def __init__(
        self,
        backend: ComputeBackend,
        channel: Channel | None = None,
        partitions: PartitionPlan | None = None,
        telemetry=None,
        recovery: RecoveryPolicy | None = None,
        checkpoint_every: int = 0,
        checkpoint_path: "str | os.PathLike | None" = None,
        resume_from: "str | os.PathLike | None" = None,
        profile=None,
    ):
        if checkpoint_every < 0:
            raise ValueError("checkpoint_every must be non-negative")
        if checkpoint_every > 0 and checkpoint_path is None:
            raise ValueError("checkpoint_every needs a checkpoint_path")
        self.backend = backend
        self.channel = channel if channel is not None else Channel()
        self.partitions = partitions
        self.telemetry = telemetry
        self.recovery = recovery
        self.checkpoint_every = checkpoint_every
        self.checkpoint_path = checkpoint_path
        self.resume_from = resume_from
        self.profile = profile

    def _plan(self) -> PartitionPlan:
        """The run's shard fractions: ``partitions=``, or an even split."""
        n_workers = self.backend.n_workers
        if self.partitions is None:
            return even_partition(n_workers)
        if self.partitions.n_workers != n_workers:
            raise ValueError(
                f"partition plan has {self.partitions.n_workers} fractions "
                f"but the backend runs {n_workers} workers"
            )
        return self.partitions

    @property
    def _resilience_active(self) -> bool:
        return (
            self.recovery is not None
            or self.checkpoint_every > 0
            or self.resume_from is not None
        )

    def run(self, epochs: int) -> EngineResult:
        """Execute ``epochs`` runs of the pull/compute/push/sync pipeline."""
        if epochs <= 0:
            raise ValueError("epochs must be positive")
        t_run = time.perf_counter()
        plan = self._plan()
        registry = self.telemetry.registry if self.telemetry is not None else None
        trace: list[StageEvent] = []
        rmse_history: list[float] = []
        summary = ResilienceSummary() if self._resilience_active else None
        if self.profile is not None and hasattr(self.backend, "profile_dir"):
            self.backend.profile_dir = self.profile.worker_dir()

        current_plan = plan
        done = 0                       # global epochs completed so far
        warm = None                    # model to warm-start the next open from
        if self.resume_from is not None:
            from repro.core.checkpoint import load_checkpoint

            ckpt = load_checkpoint(self.resume_from)
            ratings = self.backend.ratings
            if (ckpt.model.m, ckpt.model.n) != (ratings.m, ratings.n):
                # checked where it crosses, before anything is mapped or
                # spawned; k follows the checkpoint (ProcessBackend.open)
                raise ValueError(
                    f"checkpoint {os.fspath(self.resume_from)!r} holds "
                    f"factors of a {ckpt.model.m} x {ckpt.model.n} rating "
                    f"matrix, this run's is {ratings.m} x {ratings.n}"
                )
            if ckpt.epoch >= epochs:
                raise ValueError(
                    f"checkpoint already at epoch {ckpt.epoch}; nothing to "
                    f"resume within {epochs} epochs"
                )
            done = ckpt.epoch
            warm = ckpt.model
            rmse_history = [float(r) for r in ckpt.rmse_history]
            summary.resumed_from_epoch = done
        retries = 0

        while True:
            offset = done
            remaining = epochs - done
            self._stage_warm_start(warm, offset)
            self.backend.open(
                current_plan, self.channel, self.telemetry, remaining
            )
            failure: Exception | None = None
            report: HealthReport | None = None
            try:
                try:
                    for local in range(remaining):
                        epoch = offset + local
                        for stage in STAGES:
                            with self._profiled(stage):
                                detail = getattr(self.backend, stage)(local) or {}
                            trace.append(StageEvent(epoch, stage, detail))
                        with self._profiled("evaluate"):
                            rmse = self.backend.evaluate(local)
                        if rmse is not None:
                            rmse_history.append(rmse)
                            if registry is not None:
                                registry.gauge(
                                    "epoch_rmse", "training RMSE at epoch end"
                                ).set(rmse, epoch=epoch)
                                registry.event("epoch", epoch=epoch, rmse=rmse)
                        done = epoch + 1
                        retries = 0  # progress resets the transient budget
                        if summary is not None and current_plan is not plan:
                            summary.degraded_epochs += 1
                            if registry is not None:
                                registry.counter(
                                    "resilience_degraded_epochs_total",
                                    "epochs run on a redistributed plan",
                                ).inc()
                        if (
                            self.checkpoint_every
                            and done % self.checkpoint_every == 0
                        ):
                            self._write_checkpoint(
                                done, rmse_history, summary, registry
                            )
                    self.backend.finalize(self.telemetry)
                    if registry is not None:
                        # after finalize: the workers have been joined, so
                        # their high-water mark is in RUSAGE_CHILDREN
                        registry.gauge(
                            "peak_rss_mb",
                            "resident-set high-water mark of the run: max "
                            "of this process and its reaped workers",
                        ).set(_peak_rss_mb())
                except RECOVERABLE_ERRORS as err:
                    if self.recovery is None:
                        raise
                    failure = err
                    # health must be read before close(): teardown
                    # terminates the stragglers the report classifies
                    reporter = getattr(self.backend, "health_report", None)
                    report = reporter(err) if reporter is not None else None
            finally:
                self.backend.close()
            if failure is None:
                break
            warm = getattr(self.backend, "model", None)
            current_plan, retries = self._recover(
                failure, report, current_plan, done, retries,
                rmse_history, summary, registry,
            )

        if summary is not None:
            summary.final_workers = self.backend.n_workers
        return EngineResult(
            backend=self.backend.name,
            channel=self.channel.describe(),
            plan=plan,
            epochs=epochs,
            stage_trace=tuple(trace),
            rmse_history=rmse_history,
            model=getattr(self.backend, "model", None),
            sim_seconds=float(getattr(self.backend, "sim_seconds", 0.0)),
            resilience=summary,
            final_plan=current_plan,
            elapsed_seconds=time.perf_counter() - t_run,
        )

    def _profiled(self, stage: str):
        """Per-stage cProfile scope, or a no-op when profiling is off."""
        if self.profile is None:
            return nullcontext()
        return self.profile.stage(stage)

    # -- resilience internals -------------------------------------------
    def _stage_warm_start(self, model, offset: int) -> None:
        """Hand the next attempt its starting factors and epoch offset."""
        if model is None and offset == 0:
            return
        if not (
            hasattr(self.backend, "initial_model")
            and hasattr(self.backend, "epoch_offset")
        ):
            raise ValueError(
                f"the {self.backend.name!r} backend does not support warm "
                "starts (resume_from=/recovery need initial_model and "
                "epoch_offset)"
            )
        self.backend.initial_model = model
        self.backend.epoch_offset = offset

    def _write_checkpoint(
        self, done: int, rmse_history: list[float], summary, registry
    ) -> None:
        from repro.core.checkpoint import Checkpoint, save_checkpoint

        model = getattr(self.backend, "model", None)
        if model is None:
            raise ValueError(
                f"the {self.backend.name!r} backend exposes no model to "
                "checkpoint"
            )
        save_checkpoint(
            Checkpoint(
                model=model, epoch=done, rmse_history=list(rmse_history)
            ),
            self.checkpoint_path,
        )
        if summary is not None:
            summary.checkpoints_written += 1
        if registry is not None:
            registry.counter(
                "resilience_checkpoints_total",
                "checkpoints written at epoch boundaries",
            ).inc()
            registry.event(
                "resilience_checkpoint", epoch=done,
                path=str(self.checkpoint_path),
            )

    def _recover(
        self,
        err: Exception,
        report: "HealthReport | None",
        current_plan: PartitionPlan,
        done: int,
        retries: int,
        rmse_history: list[float],
        summary: ResilienceSummary,
        registry,
    ) -> tuple[PartitionPlan, int]:
        """Decide and apply the recovery action for one failure.

        Returns the (possibly redistributed) plan and the new transient
        retry count for the next attempt; raises
        :class:`TrainingAborted` when the policy gives up.
        """
        policy = self.recovery
        if report is None:
            report = HealthReport((), cause=str(err))
        action = decide(policy, report, retries, self.backend.n_workers)
        summary.failures.append(
            f"epoch {done}: {type(err).__name__} ({report.describe()}) "
            f"-> {action.value}"
        )
        summary.decisions.append((done, type(err).__name__, action.value))
        if registry is not None:
            registry.event(
                "resilience_failure", epoch=done, action=action.value,
                error=type(err).__name__, dead=list(report.dead_ranks),
                stragglers=list(report.straggler_ranks),
            )
        # injected faults at or before the failed epoch have fired;
        # retire them so the re-run does not trip over them again
        dropper = getattr(self.backend, "drop_faults_through", None)
        if dropper is not None:
            dropper(done)

        if action is RecoveryAction.ABORT:
            path = None
            if policy.checkpoint_on_abort and self.checkpoint_path is not None:
                self._write_checkpoint(done, rmse_history, summary, registry)
                path = str(self.checkpoint_path)
            raise TrainingAborted(done, str(err), path, summary) from err
        if action is RecoveryAction.REDISTRIBUTE:
            new_plan = redistribute(current_plan, report.dead_ranks)
            # remap pending faults BEFORE the worker count shrinks:
            # the remap needs the old numbering to locate survivors
            remap = getattr(self.backend, "remap_fault_ranks", None)
            if remap is not None:
                remap(report.dead_ranks)
            self.backend.n_workers = new_plan.n_workers
            summary.redistributions += 1
            if registry is not None:
                registry.counter(
                    "resilience_redistributions_total",
                    "dead-worker shard redistributions",
                ).inc()
                registry.event(
                    "resilience_redistribution", epoch=done,
                    dead=list(report.dead_ranks),
                    survivors=new_plan.n_workers,
                )
            return new_plan, 0
        # RETRY: transient failure, back off exponentially
        summary.retries += 1
        if registry is not None:
            registry.counter(
                "resilience_retries_total", "transient-failure epoch retries"
            ).inc()
        backoff = policy.backoff_s(retries)
        if backoff > 0:
            time.sleep(backoff)
        return current_plan, retries + 1
