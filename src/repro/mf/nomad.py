"""NOMAD baseline (Yun et al., VLDB 2014) — non-locking column passing.

NOMAD is asynchronous and lock-free: each *item column* (its q vector)
is owned by exactly one worker at a time.  A worker pops a column from
its queue, updates it against all of its local ratings for that column,
then passes the column to a randomly chosen worker.  Ownership makes
updates race-free without locks — at the price of continuous column
traffic.

The paper's critique (section 5): "a worker who finishes processing a
column will pass the column to other workers that will bring huge
communication overhead", and skewed rating distributions unbalance the
queues.  This implementation counts the column messages so the ablation
benchmark can put a number on that overhead, and exposes the queue
imbalance statistics.

A comparator, not part of HCC-MF: reached by
``benchmarks/bench_kernels.py`` (EXPERIMENTS.md, "Radix grouping": the
one solver that calls the kernel per (worker, column)) and by
``examples/baselines_comparison.py``.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from repro.data.grid import GridKind, partition_rows
from repro.data.ratings import RatingMatrix, stable_order
from repro.mf.kernels import ConflictPolicy, sgd_batch_update
from repro.mf.model import MFModel
from repro.mf.sgd import TrainHistory


class NOMAD:
    """Asynchronous decentralized MF via column ownership passing."""

    def __init__(
        self,
        k: int,
        workers: int = 4,
        lr: float = 0.005,
        reg: float = 0.01,
        seed: int = 0,
    ):
        if workers <= 0:
            raise ValueError("workers must be positive")
        if k <= 0:
            raise ValueError("k must be positive")
        self.k = k
        self.workers = workers
        self.lr = lr
        self.reg = reg
        self.seed = seed
        self.model: MFModel | None = None
        self.history = TrainHistory()
        self.column_messages = 0       # section 5's communication overhead
        self.queue_peaks: list[int] = []

    # ------------------------------------------------------------------
    def _worker_column_entries(self, ratings: RatingMatrix) -> list[dict[int, np.ndarray]]:
        """Per-worker: column -> indices of its local entries."""
        shards = partition_rows(ratings, [1.0 / self.workers] * self.workers, GridKind.ROW)
        out: list[dict[int, np.ndarray]] = []
        for shard in shards:
            cols = ratings.cols[shard.entries]
            order = stable_order(cols, ratings.n)
            sorted_cols = cols[order]
            sorted_entries = shard.entries[order]
            mapping: dict[int, np.ndarray] = {}
            if len(sorted_cols):
                starts = np.concatenate(([0], np.flatnonzero(np.diff(sorted_cols)) + 1))
                stops = np.concatenate((starts[1:], [len(sorted_cols)]))
                for a, b in zip(starts, stops):
                    mapping[int(sorted_cols[a])] = sorted_entries[a:b]
            out.append(mapping)
        return out

    def fit(
        self,
        ratings: RatingMatrix,
        epochs: int = 20,
        eval_data: RatingMatrix | None = None,
    ) -> MFModel:
        """One 'epoch' = every column circulated through every worker once."""
        eval_data = eval_data if eval_data is not None else ratings
        self.model = MFModel.init_for(ratings, self.k, seed=self.seed)
        rng = np.random.default_rng(self.seed)
        local = self._worker_column_entries(ratings)

        for _ in range(epochs):
            # columns start distributed round-robin (the diagonal init)
            queues: list[deque[int]] = [deque() for _ in range(self.workers)]
            for col in range(ratings.n):
                queues[col % self.workers].append(col)
            visits = np.zeros(ratings.n, dtype=np.int64)
            epoch_sq, count = 0.0, 0
            peak = 0

            active = sum(len(q) for q in queues)
            while active > 0:
                for w in range(self.workers):
                    if not queues[w]:
                        continue
                    col = queues[w].popleft()
                    entries = local[w].get(col)
                    if entries is not None and len(entries):
                        rows = ratings.rows[entries]
                        cols = ratings.cols[entries]
                        vals = ratings.vals[entries]
                        mse = sgd_batch_update(
                            self.model, rows, cols, vals, self.lr, self.reg,
                            policy=ConflictPolicy.ATOMIC,
                        )
                        epoch_sq += mse * len(entries)
                        count += len(entries)
                    visits[col] += 1
                    if visits[col] < self.workers:
                        # pass ownership to another worker (a message)
                        target = int(rng.integers(0, self.workers))
                        if target == w:
                            target = (target + 1) % self.workers
                        queues[target].append(col)
                        self.column_messages += 1
                peak = max(peak, max(len(q) for q in queues))
                active = sum(len(q) for q in queues)

            self.queue_peaks.append(peak)
            self.history.record(self.model.rmse(eval_data), epoch_sq / max(count, 1))
        return self.model

    # ------------------------------------------------------------------
    def message_bytes(self, epochs: int | None = None) -> int:
        """Wire bytes of column passing: one k-vector (FP32) per message."""
        msgs = self.column_messages
        return msgs * self.k * 4

    def queue_imbalance(self) -> float:
        """Peak queue length relative to the fair share n/workers."""
        if not self.queue_peaks or self.model is None:
            raise RuntimeError("fit() first")
        fair = self.model.n / self.workers
        return max(self.queue_peaks) / max(fair, 1.0)
