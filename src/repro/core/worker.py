"""Worker runtime: what one sim-plane worker trains with (paper 3.5).

Each worker owns a row-grid assignment of the rating matrix.  Per
epoch it pulls the global Q, trains asynchronously on its local data
(updating its exclusive P rows *in place* in the global P — the row
grid guarantees no other worker touches them), and pushes its local Q
back for the server's merge.  That epoch is
:func:`repro.engine.worker_proc.worker_epoch` on both planes; a
:class:`WorkerRuntime` holds what the sim plane hands it — the
block-sorted shard, the seed stream and the conflict policy.

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

import numpy as np

from repro.data.grid import GridAssignment, block_sort
from repro.data.ratings import RatingMatrix
from repro.hardware.processor import Processor
from repro.mf.kernels import ConflictPolicy, sgd_shard_epoch
from repro.mf.model import MFModel


class WorkerRuntime:
    """One sim-plane worker's shard, generator and conflict policy.

    ``assignment`` indexes ``ratings``, and the runtime block-sorts its
    own copy of those entries.  A caller that already holds the
    row-sorted store (``SimBackend``, from
    :func:`repro.data.grid.row_sorted_shards`) passes ``None`` and, as
    ``ratings``, its view of this worker's slice: the runtime trains on
    that view and copies nothing.
    """

    def __init__(
        self,
        worker_id: int,
        processor: Processor,
        assignment: GridAssignment | None,
        ratings: RatingMatrix,
        batch_size: int = 4096,
        seed: int = 0,
    ):
        self.worker_id = worker_id
        self.processor = processor
        self.assignment = assignment
        # block sorting by row: the cache-locality preprocessing the
        # authors added to CuMF_SGD; harmless for the CPU kernel.
        self.data = ratings if assignment is None else block_sort(ratings, assignment)
        self.batch_size = batch_size
        self.rng = np.random.default_rng(seed + worker_id)
        self.policy = (
            ConflictPolicy.LAST_WRITE if processor.is_gpu else ConflictPolicy.ATOMIC
        )
        self.updates_applied = 0

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
        """Train one epoch on the local shard: the compute step alone.

        No backend calls this — ``SimBackend`` runs ``worker_epoch``
        with this runtime's shard, generator and policy.  It is the
        entry the benchmark's ``core.worker.run_epoch_s_p50`` probe
        times, and goes when a ``[benchmark]`` PR retargets that probe.

        ``p_global`` is the shared user matrix — this worker only ever
        touches its exclusive rows, so in-place updates are safe.
        ``q_local`` is the worker's pulled copy of Q, updated locally
        and returned for the push.  Returns ``(q_local, mean_sq_err)``.
        """
        if p_global.dtype != np.float32 or q_local.dtype != np.float32:
            raise TypeError("feature matrices must be float32")
        # MFModel wraps without copying: both arrays are already
        # C-contiguous float32, so P updates land in the shared matrix.
        model = MFModel(p_global, q_local)
        if model.P is not p_global:  # pragma: no cover - contiguity guard
            raise RuntimeError("P was copied; in-place row updates would be lost")

        data = self.data
        mse = sgd_shard_epoch(
            model, data.rows, data.cols, data.vals, lr, reg,
            self.batch_size, self.policy, self.rng,
        )
        self.updates_applied += data.nnz
        return model.Q, mse
