"""The parameter server: global feature matrices and sync (paper 3.1/3.5).

The server owns the global P and Q.  Each epoch it deposits the
pull-side feature matrix into the shared pull buffer (one copy), and
after every worker push it merges the worker's local result into the
global matrix — the "Sync" thread of Figure 4.

Merging uses a weighted delta update:

    Q_global += w_i * (Q_i_local - Q_epoch_base)

where ``Q_epoch_base`` is the global Q snapshot the workers pulled.
This is the multiply-add merge the cost model charges three memory
operations for (Eq. 3) and it resolves the write-after-write races
row-grid partitioning cannot avoid on Q.  HCC-MF uses ``w_i = 1``:
row-grid workers train on *disjoint* samples, so their deltas are
distinct SGD steps that all apply (summing, not averaging — averaging
would under-apply the epoch's updates); fractional weights remain
available for entry-level partitions whose shards overlap.

With a row grid the P rows are worker-exclusive, so workers write them
in place ("transmit Q only", Strategy 1): the server never merges P.

:func:`merge_delta` is that merge, written once for both planes: the
in-process :class:`ParameterServer` and the process plane's server
(:class:`~repro.engine.backends.ProcessBackend`) call the same function
on their push buffers.
"""

from __future__ import annotations

import time

import numpy as np

from repro.core.comm import PullBuffer, PushBuffer
from repro.mf.model import MFModel


#: values per block of :func:`merge_delta`: three FP32 streams of
#: 256 KB each, so a merge of any k x n stays cache-resident
_MERGE_BLOCK = 1 << 16


def merge_scratch() -> np.ndarray:
    """The block buffer :func:`merge_delta` computes deltas in.

    A server allocates it once per run and hands it to every merge.
    """
    return np.empty(_MERGE_BLOCK, dtype=np.float32)


def merge_delta(
    Q: np.ndarray,
    wire: np.ndarray,
    q_base: np.ndarray,
    weight: float,
    scratch: np.ndarray,
) -> None:
    """``Q += weight * (wire - q_base)`` in place, one scratch block at a time.

    ``wire`` is a worker's push buffer as it crossed — FP32 or binary16.
    Widening binary16 is exact, and the subtraction does it while it
    reads, so decode and subtract are one pass into ``scratch`` and the
    add is the second: the three memory operations plus multiply-add
    per value that Eq. 3 charges, with no array beyond ``scratch``
    (1-D FP32; its length is the block size).  Validate the payload
    *before* calling: a merge is not undone.
    """
    if not Q.flags.c_contiguous:
        raise ValueError("Q must be C-contiguous to be merged in place")
    q_flat, wire_flat, base_flat = Q.reshape(-1), wire.reshape(-1), q_base.reshape(-1)
    w = np.float32(weight)
    for lo in range(0, q_flat.size, len(scratch)):
        hi = min(lo + len(scratch), q_flat.size)
        delta = scratch[: hi - lo]
        np.subtract(wire_flat[lo:hi], base_flat[lo:hi], out=delta)
        if weight != 1.0:
            np.multiply(delta, w, out=delta)
        np.add(q_flat[lo:hi], delta, out=q_flat[lo:hi])


class ParameterServer:
    """Numeric server for the in-process executor."""

    def __init__(
        self,
        model: MFModel,
        n_workers: int,
        fp16_wire: bool = False,
        metrics=None,
        channel=None,
    ):
        if n_workers <= 0:
            raise ValueError("need at least one worker")
        self.model = model
        self.n_workers = n_workers
        #: optional repro.engine channel stack (duck-typed — core never
        #: imports repro.engine); it owns the wire codec when present
        self.channel = channel
        self.fp16_wire = (
            bool(channel.wire_is_fp16) if channel is not None else fp16_wire
        )
        self.pull_buffer = PullBuffer(
            model.Q.shape, fp16=self.fp16_wire, channel=channel
        )
        self.push_buffers = [
            PushBuffer(model.Q.shape, fp16=self.fp16_wire, worker_id=i,
                       channel=channel)
            for i in range(n_workers)
        ]
        # allocated once: the epoch base and the merge's block buffer
        # are rewritten in place every epoch
        self._q_base = np.empty(model.Q.shape, dtype=np.float32)
        self._merge_scratch = merge_scratch()
        self.sync_count = 0
        self.epochs_started = 0
        #: optional repro.obs MetricsRegistry (duck-typed — core never
        #: imports repro.obs; None keeps every path untimed)
        self.metrics = metrics
        #: perf_counter interval of the most recent merge (metrics only);
        #: lets an orchestrator place the SYNC span on its timeline
        self.last_merge_interval: tuple[float, float] | None = None

    # ------------------------------------------------------------------
    def begin_epoch(self) -> None:
        """Publish Q to the pull buffer (one copy) and snapshot the base.

        The merge base is decoded *off the wire* — the exact (possibly
        quantized) matrix workers will pull — so wire-format error on
        the pull side cancels out of the delta merge.
        """
        self.pull_buffer.deposit(self.model.Q)
        self.pull_buffer.epoch_base(out=self._q_base)
        self.epochs_started += 1

    def pull(
        self, worker: int | None = None, out: np.ndarray | None = None
    ) -> np.ndarray:
        """A worker's pull: the epoch-base global Q (FP32), into ``out``.

        When the wire is FP16 the returned matrix has gone through the
        compress/decompress round-trip, exactly what a worker would see.
        ``worker`` attributes the read when the buffer is instrumented
        (see :func:`repro.analysis.race.attach_to_server`); ``out`` is
        the worker's local Q when it keeps one across epochs (a fresh
        array otherwise).
        """
        if not self.epochs_started:
            raise RuntimeError("pull before begin_epoch")
        out = self.pull_buffer.read(worker=worker, out=out)
        if self.metrics is not None:
            # wire-accurate accounting: the buffer's footprint is what
            # actually crossed, so FP16 stacks report half the bytes
            self.metrics.counter(
                "bytes_pulled_total", "bytes pulled per worker"
            ).inc(
                self.pull_buffer.nbytes,
                worker=f"worker-{worker}" if worker is not None else "all",
            )
        return out

    def push(self, worker_id: int, q_local: np.ndarray) -> None:
        """A worker's push: deposit into its own push buffer (one copy)."""
        if not self.epochs_started:
            raise RuntimeError("push before begin_epoch")
        if not (0 <= worker_id < self.n_workers):
            raise IndexError(f"worker_id {worker_id} out of range")
        buf = self.push_buffers[worker_id]
        buf.deposit(q_local)
        if self.metrics is not None:
            self.metrics.counter(
                "bytes_pushed_total", "bytes pushed per worker"
            ).inc(buf.nbytes, worker=f"worker-{worker_id}")

    def sync(self, worker_id: int, weight: float = 1.0) -> None:
        """The server's merge of one worker's pushed result."""
        if not self.epochs_started:
            raise RuntimeError("sync before begin_epoch")
        if not (0.0 <= weight <= 1.0):
            raise ValueError("weight must be in [0, 1]")
        if not (0 <= worker_id < self.n_workers):
            raise IndexError(f"worker_id {worker_id} out of range")
        wire = self.push_buffers[worker_id].consume()
        t0 = time.perf_counter() if self.metrics is not None else 0.0
        merge_delta(self.model.Q, wire, self._q_base, weight, self._merge_scratch)
        self.sync_count += 1
        if self.metrics is not None:
            t1 = time.perf_counter()
            self.last_merge_interval = (t0, t1)
            self.metrics.histogram(
                "merge_seconds", "server delta-merge time per sync"
            ).observe(t1 - t0)

    def push_and_sync(self, worker_id: int, q_local: np.ndarray, weight: float) -> None:
        """A worker's push followed immediately by the server's merge.

        The engine drives :meth:`push` and :meth:`sync` as separate
        pipeline stages; this combined form serves callers that want
        the classic interleaved step.
        """
        if not self.epochs_started:
            raise RuntimeError("push before begin_epoch")
        if not (0.0 <= weight <= 1.0):
            raise ValueError("weight must be in [0, 1]")
        self.push(worker_id, q_local)
        self.sync(worker_id, weight)

    # ------------------------------------------------------------------
    @property
    def q_base(self) -> np.ndarray:
        if not self.epochs_started:
            raise RuntimeError("no epoch in progress")
        return self._q_base
