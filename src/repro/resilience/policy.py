"""Recovery decisions: what the engine does about a health report.

Three-level escalation, configured by
:class:`~repro.core.config.RecoveryPolicy`:

* **RETRY** — transient failure (stragglers, corrupted payload, cause
  unknown): re-run the failed epoch from the last synced model, after
  an exponential backoff.
* **REDISTRIBUTE** — worker death: renormalize the surviving workers'
  shard fractions over the unit simplex
  (:func:`repro.core.partition.redistribute`, the same rate-proportional
  rescale DP1's compensation loop applies) and continue degraded.
* **ABORT** — retries exhausted, or a death that would leave fewer
  than ``min_workers`` survivors: write a final checkpoint (when the
  run has a checkpoint path) and raise :class:`TrainingAborted`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.core.config import RecoveryPolicy
from repro.resilience.health import HealthReport


class RecoveryAction(enum.Enum):
    """What the engine does next after a failure."""

    RETRY = "retry"
    REDISTRIBUTE = "redistribute"
    ABORT = "abort"


class TrainingAborted(RuntimeError):
    """Recovery gave up; carries where, why, and any final checkpoint."""

    def __init__(
        self,
        epoch: int,
        cause: str,
        checkpoint_path: "str | None" = None,
        summary: "ResilienceSummary | None" = None,
    ):
        self.epoch = epoch
        self.cause = cause
        self.checkpoint_path = checkpoint_path
        #: the run's summary up to the abort (decision sequence included),
        #: so harnesses can compare aborted runs across planes
        self.summary = summary
        saved = (
            f"; state through epoch {epoch} checkpointed to {checkpoint_path}"
            if checkpoint_path is not None
            else "; no checkpoint path was configured, progress is lost"
        )
        super().__init__(
            f"training aborted at epoch {epoch} after exhausting recovery: "
            f"{cause}{saved}"
        )


def decide(
    policy: RecoveryPolicy,
    report: HealthReport,
    retries_so_far: int,
    n_workers: int,
) -> RecoveryAction:
    """Map a health report onto the policy's escalation ladder."""
    dead = report.dead_ranks
    if dead:
        survivors = n_workers - len(dead)
        if policy.redistribute and survivors >= policy.min_workers:
            return RecoveryAction.REDISTRIBUTE
        return RecoveryAction.ABORT
    if retries_so_far < policy.max_retries:
        return RecoveryAction.RETRY
    return RecoveryAction.ABORT


@dataclass
class ResilienceSummary:
    """What the resilience plane did during one engine run."""

    retries: int = 0
    redistributions: int = 0
    degraded_epochs: int = 0
    checkpoints_written: int = 0
    resumed_from_epoch: "int | None" = None
    #: human-readable record of each failure and the action taken
    failures: list[str] = field(default_factory=list)
    #: structured record of each failure: (global epoch, error type
    #: name, action value) — plane-independent, unlike ``failures``
    #: whose prose carries process exit codes; tests/test_chaos_parity.py
    #: diffs this sequence across the sim and process planes
    decisions: list[tuple[int, str, str]] = field(default_factory=list)
    final_workers: "int | None" = None

    @property
    def clean(self) -> bool:
        """True when the run never saw a failure."""
        return not self.failures

    def describe(self) -> str:
        bits = [
            f"retries={self.retries}",
            f"redistributions={self.redistributions}",
            f"degraded_epochs={self.degraded_epochs}",
            f"checkpoints={self.checkpoints_written}",
        ]
        if self.resumed_from_epoch is not None:
            bits.append(f"resumed_from={self.resumed_from_epoch}")
        if self.final_workers is not None:
            bits.append(f"final_workers={self.final_workers}")
        return ", ".join(bits)
