"""Communication strategies as stackable channel middlewares (paper 3.4).

Each optimization from section 3.4 becomes one wrapper around a base
:class:`Channel`:

* :class:`QOnlyChannel` — Strategy 1, "transmit Q only": the recurring
  wire payload shrinks to the item matrix; P travels once, after the
  last epoch.
* :class:`Fp16Channel` — Strategy 2, FP16 wire format: payloads cross
  the wire as IEEE binary16 (via
  :func:`repro.core.compression.compress_fp16` /
  :func:`~repro.core.compression.decompress_fp16`), halving traffic.
* :class:`DoubleBufferChannel` — Strategy 3, asynchronous
  computing-transmission: the transport keeps ``depth`` buffers in
  flight so transfers overlap compute (the sim plane maps this onto the
  stream pipeline schedule; the process plane rotates pull buffers).

A channel stack serves **both planes** with the same object:

* the *sim* plane asks it for a :class:`~repro.core.comm.CommPlan`
  (:meth:`Channel.comm_plan`) and feeds that to
  :class:`~repro.core.comm.CommModel` for bytes-to-seconds accounting;
* the *real* planes use its wire codec (:meth:`Channel.encode` /
  :meth:`Channel.decode` + :attr:`Channel.wire_dtype`) and its payload
  check (:meth:`Channel.payload_ok`) over actual wires — plain arrays
  in process, :class:`~repro.parallel.shm.SharedArray` segments across
  processes — through :class:`~repro.core.server.ParameterServer` and
  :func:`~repro.engine.worker_proc.worker_epoch`.

Channels hold no run state, so one instance is safely pickled into
spawned worker processes; what a strategy does to the wire *format* is
decided in this file, and how many values each transmit mode moves in
:class:`repro.core.comm.WireTraffic`, which the ``traffic`` overrides
here call down into.
"""

from __future__ import annotations

import numpy as np

from repro.core.comm import CommPlan, WireTraffic, wire_itemsize
from repro.core.compression import compress_fp16, decompress_fp16
from repro.core.config import CommConfig, TransmitMode

#: values per block of :func:`all_finite`'s scan
_BLOCK = 1 << 16


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

    # -- wire format ----------------------------------------------------
    @property
    def wire_dtype(self) -> str:
        """NumPy dtype name of buffers on the wire.

        An IEEE float format that widens to FP32 exactly: the server's
        merge reads a push buffer as it crossed and lets the subtraction
        widen it (:func:`repro.core.server.merge_delta`), which equals
        :meth:`decode` for such a format and for no other.
        """
        return self.inner.wire_dtype if self.inner is not None else "float32"

    @property
    def wire_is_fp16(self) -> bool:
        return self.wire_dtype == "float16"

    @property
    def wire_itemsize(self) -> int:
        return wire_itemsize(self.wire_is_fp16)

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

    # -- traffic accounting ---------------------------------------------
    def traffic(self, m: int, n: int, k: int) -> WireTraffic:
        """Feature values on the wire for an ``m x n`` problem at rank k."""
        if self.inner is not None:
            return self.inner.traffic(m, n, k)
        return WireTraffic.of(TransmitMode.P_AND_Q, m, n, k)

    @property
    def transmits_p(self) -> bool:
        """Does the recurring payload include the user matrix P?"""
        return self.inner.transmits_p if self.inner is not None else True

    @property
    def depth(self) -> int:
        """Buffers kept in flight (1 = fully synchronous transport)."""
        return self.inner.depth if self.inner is not None else 1

    @property
    def streams(self) -> int:
        """Strategy-3 stream count the sim pipeline schedule should use."""
        return self.inner.streams if self.inner is not None else 1

    # -- sim-plane bridge -----------------------------------------------
    def comm_plan(self, spec, k: int) -> CommPlan:
        """This stack's per-epoch byte plan for :class:`CommModel`.

        ``spec`` is a :class:`~repro.data.datasets.DatasetSpec`; the
        grid-major orientation (big side = P rows) mirrors
        ``CommPlan.for_dataset``.
        """
        big, small = max(spec.m, spec.n), min(spec.m, spec.n)
        return CommPlan.from_traffic(self.traffic(big, small, k), self.wire_itemsize)

    # -- description -----------------------------------------------------
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

    def traffic(self, m: int, n: int, k: int) -> WireTraffic:
        return WireTraffic.of(TransmitMode.Q_ONLY, m, n, k)

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
    """Strategy 3: asynchronous computing-transmission via buffering.

    ``streams`` chunks each transfer so it pipelines against compute
    (what the sim plane's stream schedule models); the transport keeps
    two buffers in flight so the producer can fill one while the
    consumer still reads the other.
    """

    label = "double-buffer"

    def __init__(self, inner: Channel | None = None, streams: int = 2):
        if streams < 2:
            raise ValueError("DoubleBufferChannel needs streams >= 2")
        super().__init__(inner if inner is not None else Channel())
        self._streams = streams

    @property
    def depth(self) -> int:
        return 2

    @property
    def streams(self) -> int:
        return self._streams


class QRotateChannel(Channel):
    """Future-work mode: ring-rotated Q ownership (sim accounting only).

    Same gross bytes as Q-only, but the transfers are peer-to-peer hops
    that overlap rotation steps and ownership removes the server merge.
    The execution engine does not drive this mode — a rotation has no
    pull/push/sync stages, and both backends refuse the channel — so it
    only exists to keep the accounting in one place.
    """

    label = "q-rotate"

    def __init__(self, inner: Channel | None = None):
        super().__init__(inner if inner is not None else Channel())

    def traffic(self, m: int, n: int, k: int) -> WireTraffic:
        return WireTraffic.of(TransmitMode.Q_ROTATE, m, n, k)

    @property
    def transmits_p(self) -> bool:
        return False


def channel_for(comm: CommConfig, m: int, n: int) -> Channel:
    """Build the middleware stack a :class:`CommConfig` describes.

    ``m``/``n`` resolve the AUTO transmit mode exactly as the trainers
    do.  Stacking order is fixed — payload selection innermost, then
    wire format, then transport buffering — so equal configs produce
    equal stacks.
    """
    mode = comm.resolve_transmit(m, n)
    channel: Channel = Channel()
    if mode is TransmitMode.Q_ONLY:
        channel = QOnlyChannel(channel)
    elif mode is TransmitMode.Q_ROTATE:
        channel = QRotateChannel(channel)
    if comm.fp16:
        channel = Fp16Channel(channel)
    if comm.streams > 1:
        channel = DoubleBufferChannel(channel, streams=comm.streams)
    return channel
