"""The COMM module's cost accounting: pull/push transfer plans (paper 3.5).

:class:`WireTraffic` states how many feature values each transmit mode
moves, :class:`CommPlan` turns that into the bytes each worker moves
per epoch under the active strategies (Q-only, FP16), and
:class:`CommModel` turns bytes into seconds for either backend:

- ``COMM``: HCC-MF's shared-pinned-memory module.  The pull buffer is
  mapped into every worker and the push buffers into the server, so a
  transfer is one copy at full channel bandwidth.
- ``COMM_P``: the ps-lite-based baseline of Table 5.  Parameter-server
  messaging serializes key/value pairs, crosses the kernel, and makes
  temporary copies; calibrated to Table 5's measured ~7x slowdown.

The buffers themselves are plain arrays in the wire dtype — private on
the sim plane, shared segments on the process plane — driven by
:class:`repro.core.server.ParameterServer` (server half) and
:func:`repro.engine.worker_proc.worker_epoch` (worker half).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.core.config import CommBackendKind, CommConfig, TransmitMode

if TYPE_CHECKING:  # pragma: no cover - annotations only: a worker process loads this module
    from repro.data.datasets import DatasetSpec
    from repro.hardware.specs import BusSpec

#: COMM-P calibration (Table 5): ps-lite-style messaging achieves about
#: 1/7 of the raw channel bandwidth (extra serialization copies + kernel
#: crossings) and pays a per-message software overhead.
COMM_P_BANDWIDTH_FACTOR = 1.0 / 6.8
COMM_P_MESSAGE_OVERHEAD_S = 250e-6


@dataclass(frozen=True)
class WireTraffic:
    """Per-worker feature *values* a transmit mode moves (not bytes).

    ``m``/``n`` are the as-trained orientation (HCC-MF transposes
    column-grid problems, so the recurring matrix is always the Q
    side).  :meth:`CommPlan.for_dataset` turns values into bytes.
    """

    pull_values: int          # values pulled per worker per epoch
    push_values: int          # values pushed per worker per epoch
    final_push_values: int    # once, after the last epoch (Strategy 1's P)
    sync_values: int          # values the server merges per worker sync

    def __post_init__(self) -> None:
        for field_name in ("pull_values", "push_values",
                           "final_push_values", "sync_values"):
            if getattr(self, field_name) < 0:
                raise ValueError(f"{field_name} must be non-negative")

    @classmethod
    def of(cls, mode: TransmitMode, m: int, n: int, k: int) -> "WireTraffic":
        """Traffic of a resolved ``mode`` on an ``m x n`` problem at rank k.

        The one statement of what each Strategy-1 mode moves, which
        :meth:`CommPlan.for_dataset` prices.
        """
        both, q = k * (m + n), k * n
        if mode is TransmitMode.P_AND_Q:
            return cls(both, both, 0, both)
        if mode is TransmitMode.Q_ONLY:
            # P stays where it is updated and is pushed once, after training
            return cls(q, q, k * m, q)
        if mode is TransmitMode.Q_ROTATE:
            # same gross bytes as Q-only; ownership removes the server merge
            return cls(q, q, both, 0)
        raise ValueError(f"{mode} is not a resolved transmit mode")


@dataclass(frozen=True)
class CommPlan:
    """Per-epoch wire traffic of one worker under a strategy set.

    All quantities in bytes.  ``epoch_pull``/``epoch_push`` recur every
    epoch; ``final_push_extra`` is paid once at the end of training
    (the P matrix under "transmit Q only").
    """

    epoch_pull: int
    epoch_push: int
    final_push_extra: int
    sync_values: int  # feature values the server merges per worker sync

    @classmethod
    def for_dataset(cls, spec: DatasetSpec, k: int, comm: CommConfig) -> "CommPlan":
        """Traffic plan from the dataset shape and strategy switches.

        With a row grid and Q-only transmission only the ``k x n`` item
        matrix travels each epoch and the server merges only Q; the
        ``m x k`` user matrix is pushed once after the last epoch.
        The AUTO transmit mode resolves against the *grid-major* side:
        HCC-MF transposes column-grid problems, so the recurring matrix
        is whichever side is smaller.  Strategy 2 moves binary16, two
        bytes per value instead of four.
        """
        if k <= 0:
            raise ValueError("k must be positive")
        big, small = max(spec.m, spec.n), min(spec.m, spec.n)
        traffic = WireTraffic.of(comm.resolve_transmit(big, small), big, small, k)
        itemsize = 2 if comm.fp16 else 4
        return cls(
            epoch_pull=traffic.pull_values * itemsize,
            epoch_push=traffic.push_values * itemsize,
            final_push_extra=traffic.final_push_values * itemsize,
            sync_values=traffic.sync_values,
        )

    def total_bytes(self, epochs: int) -> int:
        """All bytes one worker moves over a full training run."""
        if epochs <= 0:
            raise ValueError("epochs must be positive")
        return epochs * (self.epoch_pull + self.epoch_push) + self.final_push_extra


class CommModel:
    """Transfer-time model for a communication backend."""

    def __init__(self, backend: CommBackendKind = CommBackendKind.COMM):
        self.backend = backend

    def transfer_time(self, bus: BusSpec, nbytes: float) -> float:
        """Seconds to move ``nbytes`` between a worker and the server."""
        if nbytes < 0:
            raise ValueError("nbytes must be non-negative")
        if nbytes == 0:
            return 0.0
        if self.backend is CommBackendKind.COMM:
            # shared pinned memory: one copy at channel bandwidth
            return bus.transfer_time(nbytes)
        # ps-lite path: reduced effective bandwidth + per-message overhead
        return (
            COMM_P_MESSAGE_OVERHEAD_S
            + bus.latency_us * 1e-6
            + nbytes / (bus.bandwidth_gbs * 1e9 * COMM_P_BANDWIDTH_FACTOR)
        )

    def pull_time(self, bus: BusSpec, plan: CommPlan) -> float:
        return self.transfer_time(bus, plan.epoch_pull)

    def push_time(self, bus: BusSpec, plan: CommPlan) -> float:
        return self.transfer_time(bus, plan.epoch_push)
