"""Communication strategies as stackable wire codecs (paper 3.4).

A channel is what the trained planes need of a strategy: the wire
format (:attr:`Channel.wire_dtype`), the sender's and the receiver's
single copy (:meth:`Channel.encode` / :meth:`Channel.decode`), the
payload check (:meth:`Channel.payload_ok`) and whether P travels
(:attr:`Channel.transmits_p`).  They run over actual wires — plain
arrays in process, :class:`~repro.parallel.shm.SharedArray` segments
across processes — through :class:`~repro.core.server.ParameterServer`
and :func:`~repro.engine.worker_proc.worker_epoch`.  What a strategy
costs in bytes and seconds is priced from the
:class:`~repro.core.config.CommConfig` itself
(:meth:`repro.core.comm.CommPlan.for_dataset`), not from a channel.

Each optimization from section 3.4 is one wrapper around a base
:class:`Channel`:

* :class:`QOnlyChannel` — Strategy 1, "transmit Q only": the recurring
  wire payload shrinks to the item matrix; P travels once, after the
  last epoch.
* :class:`Fp16Channel` — Strategy 2, FP16 wire format: payloads cross
  the wire as IEEE binary16 (via
  :func:`repro.core.compression.compress_fp16` /
  :func:`~repro.core.compression.decompress_fp16`), halving traffic.
* :class:`DoubleBufferChannel` — Strategy 3, asynchronous
  computing-transmission, as a label only: the trained planes have no
  transfer that could overlap compute, so Strategy 3 is priced by the
  cost model's stream schedule and not trained (EXPERIMENTS.md,
  "Strategy 3 on the trained planes").

Channels hold no run state, so one instance is safely pickled into
spawned worker processes.
"""

from __future__ import annotations

import numpy as np

from repro.core.compression import compress_fp16, decompress_fp16
from repro.core.config import CommConfig, TransmitMode

#: values per block of :func:`all_finite`'s scan
_BLOCK = 1 << 16

#: what asking for Q_ROTATE numerics is told, by :func:`channel_for`,
#: ``HCCMF`` and ``repro train``
Q_ROTATE_IS_PRICED_NOT_TRAINED = (
    "Q_ROTATE exists on the timing plane only: the cost model prices the "
    "rotation and nothing trains it numerically (run without ratings — "
    "repro train --timing-only — or see mf.dsgd for a numeric block rotation)"
)


def all_finite(values: np.ndarray) -> bool:
    """No NaN or inf in ``values``, scanned block by block.

    The scan behind :meth:`Channel.payload_ok`, and what the backends
    run over the P rows an epoch trained in place; the mask it builds
    stays block-sized whatever it is handed.
    """
    flat = values.reshape(-1)
    return all(
        np.isfinite(flat[lo : lo + _BLOCK]).all()
        for lo in range(0, flat.size, _BLOCK)
    )


class Channel:
    """Base transport: full-matrix FP32 every epoch (no strategy applied).

    Middlewares wrap an inner channel and override only the aspect
    their strategy changes; everything else delegates inward.
    """

    label = "full"

    def __init__(self, inner: "Channel | None" = None):
        self.inner = inner

    @property
    def wire_dtype(self) -> str:
        """NumPy dtype name of buffers on the wire.

        An IEEE float format that widens to FP32 exactly: the server's
        merge reads a push buffer as it crossed and lets the subtraction
        widen it (:func:`repro.core.server.merge_delta`), which equals
        :meth:`decode` for such a format and for no other.
        """
        return self.inner.wire_dtype if self.inner is not None else "float32"

    def encode(self, values: np.ndarray, out: np.ndarray) -> None:
        """FP32 payload -> wire buffer ``out`` (the sender's single copy)."""
        if self.inner is not None:
            self.inner.encode(values, out)
        else:
            np.copyto(out, values)

    def decode(self, wire: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Wire buffer -> FP32 payload (the receiver's single copy).

        The copy lands in ``out`` — epoch loops pass a buffer they
        allocated once — or in a fresh array when ``out`` is omitted.
        """
        if self.inner is not None:
            return self.inner.decode(wire, out)
        if out is None:
            return np.array(wire, dtype=np.float32, copy=True)
        np.copyto(out, wire)
        return out

    def payload_ok(self, received: np.ndarray) -> bool:
        """Is a payload — decoded, or still on the wire — sane to merge?

        The server validates *every* push before merging *any* of them
        (all-or-nothing epoch sync), so one garbage payload — a torn
        write from a dying worker, an injected corruption — can never
        leave the global Q half-merged.  The base check is finiteness
        (:func:`all_finite`); middlewares may narrow it further.
        """
        if self.inner is not None:
            return self.inner.payload_ok(received)
        return all_finite(received)

    @property
    def transmits_p(self) -> bool:
        """Does the recurring payload include the user matrix P?"""
        return self.inner.transmits_p if self.inner is not None else True

    def describe(self) -> str:
        """Stack description, outermost first: ``fp16(q-only(full))``."""
        if self.inner is not None:
            return f"{self.label}({self.inner.describe()})"
        return self.label

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.describe()}>"


class QOnlyChannel(Channel):
    """Strategy 1: only the recurring (Q-side) matrix travels each epoch.

    Row-grid exclusivity keeps local P rows conflict-free, so P stays
    where it is updated and is pushed exactly once, after training.
    """

    label = "q-only"

    def __init__(self, inner: Channel | None = None):
        super().__init__(inner if inner is not None else Channel())

    @property
    def transmits_p(self) -> bool:
        return False


class Fp16Channel(Channel):
    """Strategy 2: IEEE binary16 wire format (half the bytes).

    Compression happens on the sender's single copy and decompression
    on the receiver's, so the one-copy discipline is preserved; compute
    stays FP32 (the paper's "FP32 compute, FP16 wire" split).
    """

    label = "fp16"

    def __init__(self, inner: Channel | None = None):
        super().__init__(inner if inner is not None else Channel())

    @property
    def wire_dtype(self) -> str:
        return "float16"

    def encode(self, values: np.ndarray, out: np.ndarray) -> None:
        compress_fp16(values, out=out)

    def decode(self, wire: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        return decompress_fp16(wire, out=out)


class DoubleBufferChannel(Channel):
    """Strategy 3, asynchronous computing-transmission: a label only.

    It names the strategy in a stack's :meth:`describe` and changes no
    bit on the wire.  Strategy 3 hides PCIe copies under compute through
    copy engines; on the trained planes the server encodes the pull
    wire before the start barrier, workers read it only between the
    start and end barriers, and the merge and the next encode follow
    the end barrier, so no transfer can overlap another epoch's compute.
    The cost model prices the strategy (``CommConfig.streams``,
    :func:`repro.hardware.streams.pipeline_schedule`); nothing trains it.
    """

    label = "double-buffer"

    def __init__(self, inner: Channel | None = None):
        super().__init__(inner if inner is not None else Channel())


def channel_for(comm: CommConfig, m: int, n: int) -> Channel:
    """Build the middleware stack a :class:`CommConfig` describes.

    ``m``/``n`` resolve the AUTO transmit mode exactly as the trainers
    do.  Stacking order is fixed — payload selection innermost, then
    wire format, then the Strategy 3 label — so equal configs produce
    equal stacks.  Q_ROTATE is refused: it has no pull/push/sync stages
    to drive.
    """
    mode = comm.resolve_transmit(m, n)
    if mode is TransmitMode.Q_ROTATE:
        raise ValueError(Q_ROTATE_IS_PRICED_NOT_TRAINED)
    channel: Channel = Channel()
    if mode is TransmitMode.Q_ONLY:
        channel = QOnlyChannel(channel)
    if comm.fp16:
        channel = Fp16Channel(channel)
    if comm.streams > 1:
        channel = DoubleBufferChannel(channel)
    return channel
