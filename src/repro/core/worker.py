"""Worker runtime: one processor's asynchronous SGD task (paper 3.5).

Each worker owns a row-grid assignment of the rating matrix.  Per
epoch it pulls the global Q, trains asynchronously on its local data
(updating its exclusive P rows *in place* in the global P — the row
grid guarantees no other worker touches them), and pushes its local Q
back for the server's merge.

The update semantics differ by processor class, matching the paper's
task kernels:

* CPU workers run the FPSGD-style kernel: moderate batches with
  atomic-accumulation conflict handling (an FPSGD block scheduler never
  lets two threads share a feature row, which atomic accumulation
  dominates);
* GPU workers run the CuMF-style kernel: large thread-wave batches with
  lock-free last-write-wins conflicts, over block-sorted data.
"""

from __future__ import annotations

import time

import numpy as np

from repro.data.grid import GridAssignment, block_sort
from repro.data.ratings import RatingMatrix
from repro.hardware.processor import Processor
from repro.mf.kernels import ConflictPolicy, sgd_batch_update, sgd_shard_epoch
from repro.mf.model import MFModel


class WorkerRuntime:
    """Numeric executor for one worker's assignment."""

    def __init__(
        self,
        worker_id: int,
        processor: Processor,
        assignment: GridAssignment,
        ratings: RatingMatrix,
        batch_size: int = 4096,
        seed: int = 0,
        metrics=None,
    ):
        self.worker_id = worker_id
        self.processor = processor
        self.assignment = assignment
        # block sorting by row: the cache-locality preprocessing the
        # authors added to CuMF_SGD; harmless for the CPU kernel.
        self.data = block_sort(ratings, assignment)
        self.batch_size = batch_size
        self.rng = np.random.default_rng(seed + worker_id)
        self.policy = (
            ConflictPolicy.LAST_WRITE if processor.is_gpu else ConflictPolicy.ATOMIC
        )
        self.updates_applied = 0
        #: optional repro.obs MetricsRegistry (duck-typed; this module
        #: never imports repro.obs so the numeric plane stays light)
        self.metrics = metrics

    @property
    def nnz(self) -> int:
        return self.data.nnz

    def run_epoch(
        self,
        p_global: np.ndarray,
        q_local: np.ndarray,
        lr: float,
        reg: float,
    ) -> tuple[np.ndarray, float]:
        """Train one epoch on the local shard.

        ``p_global`` is the shared user matrix — this worker only ever
        touches its exclusive rows, so in-place updates are safe.
        ``q_local`` is the worker's pulled copy of Q, updated locally
        and returned for the push.  Returns ``(q_local, mean_sq_err)``.
        """
        if p_global.dtype != np.float32 or q_local.dtype != np.float32:
            raise TypeError("feature matrices must be float32")
        if self.data.nnz == 0:
            return q_local, 0.0
        # MFModel wraps without copying: both arrays are already
        # C-contiguous float32, so P updates land in the shared matrix.
        model = MFModel(p_global, q_local)
        if model.P is not p_global:  # pragma: no cover - contiguity guard
            raise RuntimeError("P was copied; in-place row updates would be lost")

        t0 = time.perf_counter() if self.metrics is not None else 0.0
        data = self.data
        mse = sgd_shard_epoch(
            model, data.rows, data.cols, data.vals, lr, reg,
            self.batch_size, self.policy, self.rng,
        )
        self.updates_applied += data.nnz
        if self.metrics is not None:
            worker = f"worker-{self.worker_id}"
            self.metrics.counter("updates_total", "SGD updates applied").inc(
                self.data.nnz, worker=worker
            )
            self.metrics.histogram(
                "worker_epoch_seconds", "wall-clock of one worker epoch"
            ).observe(time.perf_counter() - t0, worker=worker)
        return model.Q, mse

    # ------------------------------------------------------------------
    # ring-rotation mode (TransmitMode.Q_ROTATE, the future-work fix)
    # ------------------------------------------------------------------
    def prepare_column_blocks(self, edges: np.ndarray) -> None:
        """Index the shard's entries by Q column block for rotation steps."""
        edges = np.asarray(edges, dtype=np.int64)
        if len(edges) < 2 or edges[0] != 0:
            raise ValueError("edges must start at 0 and define >= 1 block")
        cols = self.data.cols
        self._block_entries = [
            np.flatnonzero((cols >= lo) & (cols < hi))
            for lo, hi in zip(edges, edges[1:])
        ]

    def run_rotation_step(self, model: MFModel, block: int, lr: float, reg: float) -> float:
        """Train this worker's entries whose columns lie in one owned block.

        Column-block ownership is disjoint across workers within a
        rotation step, so updating the *global* Q in place is race-free
        — no pull/push/sync needed (the whole point of Q_ROTATE).
        """
        if not hasattr(self, "_block_entries"):
            raise RuntimeError("prepare_column_blocks() first")
        idx = self._block_entries[block]
        if len(idx) == 0:
            return 0.0
        idx = idx[self.rng.permutation(len(idx))]
        total_sq = 0.0
        # the one batch loop outside sgd_shard_epoch: a rotation step
        # walks a column block's entries, not the shard (sim-only)
        for lo in range(0, len(idx), self.batch_size):
            sel = idx[lo : lo + self.batch_size]
            mse = sgd_batch_update(
                model,
                self.data.rows[sel],
                self.data.cols[sel],
                self.data.vals[sel],
                lr,
                reg,
                self.policy,
            )
            total_sq += mse * len(sel)
            self.updates_applied += len(sel)
        return total_sq / len(idx)
