"""The COMM module: pull/push transfer accounting and buffers (paper 3.5).

Two responsibilities:

* **Cost accounting** — :class:`CommPlan` computes how many bytes each
  worker moves per epoch under the active strategies (Q-only, FP16),
  and :class:`CommModel` turns bytes into seconds for either backend:

  - ``COMM``: HCC-MF's shared-pinned-memory module.  The pull buffer is
    mapped into every worker and the push buffers into the server, so a
    transfer is one copy at full channel bandwidth.
  - ``COMM_P``: the ps-lite-based baseline of Table 5.  Parameter-server
    messaging serializes key/value pairs, crosses the kernel, and makes
    temporary copies; calibrated to Table 5's measured ~7x slowdown.

* **Buffer discipline** — :class:`PullBuffer` / :class:`PushBuffer` are
  the actual shared buffers the in-process executor uses.  They count
  copies so tests can assert the paper's "data copy usually happens only
  once in one epoch" property.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.core.compression import compress_fp16, decompress_fp16
from repro.core.config import CommBackendKind, CommConfig, TransmitMode
from repro.data.datasets import DatasetSpec
from repro.hardware.specs import BusSpec

#: COMM-P calibration (Table 5): ps-lite-style messaging achieves about
#: 1/7 of the raw channel bandwidth (extra serialization copies + kernel
#: crossings) and pays a per-message software overhead.
COMM_P_BANDWIDTH_FACTOR = 1.0 / 6.8
COMM_P_MESSAGE_OVERHEAD_S = 250e-6


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
        is whichever side is smaller.

        The strategy byte math itself lives in one place — the channel
        middlewares of :mod:`repro.engine.channels` — and this method
        simply materializes the stack the config describes and asks it
        (imported lazily: core stays import-independent of the engine).
        """
        if k <= 0:
            raise ValueError("k must be positive")
        from repro.engine.channels import channel_for

        return channel_for(comm, spec.m, spec.n).comm_plan(spec, k)

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


# ---------------------------------------------------------------------------
# real buffers (used by the in-process and shared-memory executors)
# ---------------------------------------------------------------------------
#: Observer signature for buffer instrumentation: ``(op, worker)`` where
#: ``op`` is "deposit" / "read" / "consume" and ``worker`` is the acting
#: worker id when known (None means the server side).  The race detector
#: (:mod:`repro.analysis.race`) attaches observers to prove the one-copy
#: discipline at test time; ``None`` (the default) costs nothing.
BufferObserver = Callable[[str, "int | None"], None]


def _encode(channel, values: np.ndarray, wire: np.ndarray) -> None:
    """Payload -> wire buffer, through the channel stack when there is one."""
    if channel is not None:
        channel.encode(values, wire)
    elif wire.dtype == np.float16:
        compress_fp16(values, out=wire)
    else:
        np.copyto(wire, values)


def _decode(channel, wire: np.ndarray, out: "np.ndarray | None") -> np.ndarray:
    """Wire buffer -> FP32 payload, into ``out`` when the caller keeps one."""
    if channel is not None:
        return channel.decode(wire, out)
    if wire.dtype == np.float16:
        return decompress_fp16(wire, out=out)
    if out is None:
        return wire.copy()
    np.copyto(out, wire)
    return out


class PullBuffer:
    """Server-side buffer that workers map and read (one copy to fill).

    The server deposits the current global Q (optionally FP16) once per
    epoch; every worker reads the same buffer, so the per-epoch copy
    count on the server side is exactly one.
    """

    def __init__(
        self,
        shape: tuple[int, ...],
        fp16: bool = False,
        observer: BufferObserver | None = None,
        channel=None,
    ):
        #: optional repro.engine channel stack owning the wire codec
        #: (duck-typed — comm never imports repro.engine); when absent
        #: the legacy fp16 flag selects the built-in codec
        self.channel = channel
        self.fp16 = bool(channel.wire_is_fp16) if channel is not None else fp16
        dtype = (
            np.dtype(channel.wire_dtype)
            if channel is not None
            else (np.float16 if self.fp16 else np.float32)
        )
        self._buf = np.zeros(shape, dtype=dtype)
        self.copies_in = 0
        self.reads = 0
        self.observer = observer

    @property
    def nbytes(self) -> int:
        return self._buf.nbytes

    def deposit(self, values: np.ndarray) -> None:
        """Server -> buffer (the single per-epoch copy)."""
        if values.shape != self._buf.shape:
            raise ValueError(f"shape mismatch: {values.shape} vs {self._buf.shape}")
        _encode(self.channel, values, self._buf)
        self.copies_in += 1
        if self.observer is not None:
            self.observer("deposit", None)

    def read(
        self, worker: int | None = None, out: np.ndarray | None = None
    ) -> np.ndarray:
        """Worker view of the buffer contents, decoded to FP32 into ``out``.

        A worker that keeps its local Q across epochs passes it as
        ``out``; without one the copy is a fresh array.
        """
        self.reads += 1
        if self.observer is not None:
            self.observer("read", worker)
        return _decode(self.channel, self._buf, out)

    def epoch_base(self, out: np.ndarray | None = None) -> np.ndarray:
        """The wire-accurate merge base: what workers will decode.

        A server-side bookkeeping view — deliberately *not* counted as a
        worker read, so the one-copy accounting the race detector checks
        stays exact.
        """
        return _decode(self.channel, self._buf, out)


class PushBuffer:
    """Per-worker buffer mapped into the server's address space.

    The worker deposits its updated local Q once; the server consumes
    it in place during sync (no further copy).
    """

    def __init__(
        self,
        shape: tuple[int, ...],
        fp16: bool = False,
        worker_id: int | None = None,
        observer: BufferObserver | None = None,
        channel=None,
    ):
        #: optional repro.engine channel stack (see PullBuffer.channel)
        self.channel = channel
        self.fp16 = bool(channel.wire_is_fp16) if channel is not None else fp16
        dtype = (
            np.dtype(channel.wire_dtype)
            if channel is not None
            else (np.float16 if self.fp16 else np.float32)
        )
        self._buf = np.zeros(shape, dtype=dtype)
        self.copies_in = 0
        self.consumed = 0
        self.worker_id = worker_id
        self.observer = observer

    @property
    def nbytes(self) -> int:
        return self._buf.nbytes

    def deposit(self, values: np.ndarray) -> None:
        if values.shape != self._buf.shape:
            raise ValueError(f"shape mismatch: {values.shape} vs {self._buf.shape}")
        _encode(self.channel, values, self._buf)
        self.copies_in += 1
        if self.observer is not None:
            self.observer("deposit", self.worker_id)

    def consume(self) -> np.ndarray:
        """The pushed payload, still on the wire, for the sync merge.

        Always the buffer itself: the merge widens a binary16 wire while
        it subtracts (:func:`repro.core.server.merge_delta`), so
        consumption is zero-copy for every wire format.
        """
        self.consumed += 1
        if self.observer is not None:
            self.observer("consume", None)
        return self._buf
