"""FPSGD baseline (Chin et al., TIST 2015) — the multi-core CPU method.

FPSGD partitions the rating matrix into a grid of at least
``(threads + 1) x (threads + 1)`` blocks.  Each thread repeatedly asks a
scheduler for a *free* block — one whose row band and column band are
not currently held by any other thread — and applies SGD to all its
entries.  Independence of concurrent blocks means no feature row is ever
shared between running threads, so no locking is needed on P or Q.

Our implementation reproduces the block grid and the free-block
scheduler exactly; "threads" execute their blocks in simulated rounds
(the scheduling constraint makes concurrent blocks disjoint, so the
numeric result is identical to a real threaded run).  The paper's
authors accelerated the update kernel with AVX/AVX512 (footnote 1);
here the vectorized NumPy kernel plays that role.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.data.ratings import RatingMatrix, stable_order
from repro.mf.kernels import ConflictPolicy, sgd_batch_update
from repro.mf.model import MFModel
from repro.mf.sgd import TrainHistory


@dataclass(frozen=True)
class Block:
    """One grid cell: a row band x column band of the rating matrix."""

    row_band: int
    col_band: int
    entries: np.ndarray

    @property
    def nnz(self) -> int:
        return int(len(self.entries))


class BlockGrid:
    """An ``nb x nb`` block decomposition of a rating matrix."""

    def __init__(self, ratings: RatingMatrix, nb: int):
        if nb <= 0:
            raise ValueError("block count must be positive")
        self.ratings = ratings
        self.nb = nb
        row_edges = np.linspace(0, ratings.m, nb + 1).astype(np.int64)
        col_edges = np.linspace(0, ratings.n, nb + 1).astype(np.int64)
        rb = np.clip(np.searchsorted(row_edges, ratings.rows, side="right") - 1, 0, nb - 1)
        cb = np.clip(np.searchsorted(col_edges, ratings.cols, side="right") - 1, 0, nb - 1)
        keys = rb * nb + cb
        order = stable_order(keys, nb * nb)
        sorted_keys = keys[order]
        starts = np.searchsorted(sorted_keys, np.arange(nb * nb), side="left")
        stops = np.searchsorted(sorted_keys, np.arange(nb * nb), side="right")
        self.blocks: list[Block] = [
            Block(i // nb, i % nb, order[starts[i]:stops[i]]) for i in range(nb * nb)
        ]

    def block(self, row_band: int, col_band: int) -> Block:
        return self.blocks[row_band * self.nb + col_band]

    def total_nnz(self) -> int:
        return sum(b.nnz for b in self.blocks)


class BlockScheduler:
    """FPSGD's free-block scheduler.

    A block is *free* when neither its row band nor its column band is
    locked by a running thread.  Among free, unprocessed blocks the
    scheduler prefers the least-processed ones (FPSGD's fairness rule),
    breaking ties randomly.
    """

    def __init__(self, grid: BlockGrid, rng: np.random.Generator):
        self.grid = grid
        self.rng = rng
        self.processed = np.zeros(grid.nb * grid.nb, dtype=np.int64)

    def epoch_rounds(self, threads: int) -> list[list[Block]]:
        """Schedule one epoch: every block processed exactly once.

        Returns a list of rounds; blocks within a round are pairwise
        independent (disjoint row and column bands), i.e. they could run
        on ``threads`` real threads concurrently.
        """
        nb = self.grid.nb
        remaining = set(range(nb * nb))
        rounds: list[list[Block]] = []
        while remaining:
            locked_rows: set[int] = set()
            locked_cols: set[int] = set()
            this_round: list[Block] = []
            # least-processed-first with random tie-break
            candidates = sorted(
                remaining,
                key=lambda i: (self.processed[i], self.rng.random()),
            )
            for idx in candidates:
                if len(this_round) >= threads:
                    break
                rb, cb = idx // nb, idx % nb
                if rb in locked_rows or cb in locked_cols:
                    continue
                locked_rows.add(rb)
                locked_cols.add(cb)
                this_round.append(self.grid.blocks[idx])
                remaining.discard(idx)
                self.processed[idx] += 1
            if not this_round:  # pragma: no cover - cannot happen: some block is always free
                raise RuntimeError("scheduler deadlock")
            rounds.append(this_round)
        return rounds


class FPSGD:
    """Fast Parallel SGD for shared-memory multi-core CPUs."""

    def __init__(
        self,
        k: int,
        threads: int = 4,
        lr: float = 0.005,
        reg: float = 0.01,
        batch_size: int = 4096,
        seed: int = 0,
    ):
        if threads <= 0:
            raise ValueError("threads must be positive")
        if k <= 0:
            raise ValueError("k must be positive")
        self.k = k
        self.threads = threads
        self.lr = lr
        self.reg = reg
        self.batch_size = batch_size
        self.seed = seed
        self.model: MFModel | None = None
        self.history = TrainHistory()

    def fit(
        self,
        ratings: RatingMatrix,
        epochs: int = 20,
        eval_data: RatingMatrix | None = None,
    ) -> MFModel:
        eval_data = eval_data if eval_data is not None else ratings
        self.model = MFModel.init_for(ratings, self.k, seed=self.seed)
        rng = np.random.default_rng(self.seed)
        nb = self.threads + 1
        grid = BlockGrid(ratings.shuffle(rng), nb)
        scheduler = BlockScheduler(grid, rng)
        for _ in range(epochs):
            epoch_sq, count = 0.0, 0
            for round_blocks in scheduler.epoch_rounds(self.threads):
                for block in round_blocks:
                    sub = grid.ratings.take(block.entries)
                    for rows, cols, vals in sub.batches(self.batch_size):
                        # blocks in a round are disjoint, so ATOMIC within a
                        # block is the exact FPSGD semantics
                        mse = sgd_batch_update(
                            self.model, rows, cols, vals, self.lr, self.reg,
                            policy=ConflictPolicy.ATOMIC,
                        )
                        epoch_sq += mse * len(rows)
                        count += len(rows)
            self.history.record(
                self.model.rmse(eval_data), epoch_sq / max(count, 1)
            )
        return self.model
