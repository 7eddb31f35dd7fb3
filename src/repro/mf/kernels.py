"""Vectorized SGD update kernels with explicit conflict policies.

One SGD step on a rating ``r_ij`` (paper Figure 1):

    e    = r_ij - p_i . q_j
    p_i += gamma * (e * q_j - lambda1 * p_i)
    q_j += gamma * (e * p_i - lambda2 * q_j)

A *batch* of samples is updated at once.  When two samples in a batch
share a user row or item column, real parallel hardware exhibits one of
two behaviours, which we expose as :class:`ConflictPolicy`:

* ``ATOMIC`` — both gradient contributions land (like atomic adds /
  Hogwild with element-wise atomics).  Implemented with ``np.add.at``.
* ``LAST_WRITE`` — one update overwrites the other (lost update), which
  is what CuMF_SGD's lock-free warps and HCC-MF's concurrent
  asynchronous streams do ("several asynchronous streams in a same
  worker may train the same row ... resulting in the coverage of the
  training results", paper section 4.2).

Hogwild! (Niu et al. 2011) proves both converge for sparse data; tests
verify the convergence and the lost-update semantics separately.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from repro.data.ratings import RatingMatrix, stable_order
from repro.mf.model import MFModel


class ConflictPolicy(enum.Enum):
    """How concurrent updates to the same feature row are resolved."""

    ATOMIC = "atomic"
    LAST_WRITE = "last_write"


@dataclass(frozen=True)
class BatchStats:
    """Collision statistics for one update batch."""

    size: int
    row_conflicts: int
    col_conflicts: int

    @property
    def conflict_fraction(self) -> float:
        if self.size == 0:
            return 0.0
        return (self.row_conflicts + self.col_conflicts) / (2.0 * self.size)


def conflict_stats(rows: np.ndarray, cols: np.ndarray) -> BatchStats:
    """Count batch entries whose row (column) appears more than once."""
    row_counts = np.bincount(rows)
    col_counts = np.bincount(cols)
    return BatchStats(
        size=len(rows),
        row_conflicts=int(row_counts[row_counts > 1].sum()),
        col_conflicts=int(col_counts[col_counts > 1].sum()),
    )


def _scatter_mean(idx: np.ndarray, bound: int, *pairs: "tuple[np.ndarray, np.ndarray]") -> None:
    """For each ``(target, updates)``: ``target[i] +=`` the mean of the
    ``updates`` rows whose ``idx`` is ``i``; ids lie in ``[0, bound)``.

    ``np.add.at`` is correct but unbuffered (one scattered write per
    element, ~20x slower here); grouping equal ids with
    :func:`stable_order` keeps everything in buffered vector ops.
    ``np.add.reduceat`` pays per group, so only ids that repeat go
    through it.  Float32 by a float32 count is, for counts up to 2**24,
    the float64 quotient rounded to float32, bit for bit.
    """
    if len(idx) == 0:
        return
    order = stable_order(idx, bound)
    ids = idx[order]
    edges = np.flatnonzero(np.concatenate(([True], ids[1:] != ids[:-1], [True])))
    starts, sizes = edges[:-1], edges[1:] - edges[:-1]
    alone = sizes == 1
    dup = ~alone
    single_ids, single_at = ids[starts[alone]], order[starts[alone]]
    dup_ids, dup_at = ids[starts[dup]], order[np.repeat(dup, sizes)]
    sizes = sizes[dup]
    dup_starts = np.cumsum(sizes) - sizes
    counts = np.repeat(sizes, sizes).astype(np.float32, copy=False)[:, None]
    for target, updates in pairs:
        target[single_ids] += updates[single_at].astype(np.float32, copy=False)
        if len(dup_ids):
            shares = (updates[dup_at] / counts).astype(np.float32, copy=False)
            target[dup_ids] += np.add.reduceat(shares, dup_starts, axis=0)


def sgd_batch_update(
    model: MFModel,
    rows: np.ndarray,
    cols: np.ndarray,
    vals: np.ndarray,
    lr: float,
    reg: float,
    policy: ConflictPolicy = ConflictPolicy.ATOMIC,
) -> float:
    """Apply one vectorized SGD step over a batch of samples.

    Returns the batch's mean squared error *before* the update (useful
    as a cheap running convergence signal).
    """
    P, Q = model.P, model.Q
    p = P[rows]                       # (b, k) gather
    q = Q[:, cols].T                  # (b, k) gather
    err = (vals - np.einsum("ij,ij->i", p, q)).astype(np.float32, copy=False)

    dp = lr * (err[:, None] * q - reg * p)
    dq = lr * (err[:, None] * p - reg * q)

    if policy is ConflictPolicy.ATOMIC:
        # A real Hogwild run interleaves reads and writes, so each
        # duplicate index sees a partially-updated vector.  Summing b
        # *stale* gradients would multiply the effective step size by the
        # duplicate count and diverge; averaging over intra-batch
        # duplicates is the convergent serializable approximation.
        _scatter_mean(rows, P.shape[0], (P, dp))
        _scatter_mean(cols, Q.shape[1], (Q.T, dq))
    elif policy is ConflictPolicy.LAST_WRITE:
        # duplicate indices: NumPy fancy assignment keeps the last
        # occurrence, exactly the lost-update behaviour of unsynchronized
        # concurrent writers.
        P[rows] = p + dp
        Q.T[cols] = q + dq
    else:  # pragma: no cover - exhaustive enum
        raise ValueError(f"unknown policy {policy}")

    # loss reduction deliberately widens: summing b float32 squares loses
    # precision, and the result never feeds back into the FP32 model
    # hcclint: disable=kernel-promotion
    return float(np.mean(np.square(err, dtype=np.float64))) if len(err) else 0.0


def sgd_shard_epoch(
    model: MFModel,
    rows: np.ndarray,
    cols: np.ndarray,
    vals: np.ndarray,
    lr: float,
    reg: float,
    batch_size: int = 4096,
    policy: ConflictPolicy = ConflictPolicy.ATOMIC,
    rng: np.random.Generator | None = None,
) -> float:
    """One pass over a shard's ``(rows, cols, vals)`` in mini-batches.

    The one loop that walks a whole shard: :func:`sgd_epoch` and both
    planes' workers (``WorkerRuntime.run_epoch``, ``worker_main``) call
    it with their own arrays, conflict policy and generator.  ``rng``
    draws one permutation per call and each batch gathers its samples
    in that order, so the shard is never copied whole; without ``rng``
    the batches are views in storage order.  Returns the mean squared
    error over the pass (pre-update errors, so it slightly lags the
    true post-epoch loss).
    """
    if batch_size <= 0:
        raise ValueError("batch_size must be positive")
    nnz = len(vals)
    if nnz == 0:
        return 0.0
    order = rng.permutation(nnz) if rng is not None else None
    total_sq = 0.0
    for lo in range(0, nnz, batch_size):
        hi = min(lo + batch_size, nnz)
        sel = slice(lo, hi) if order is None else order[lo:hi]
        mse = sgd_batch_update(
            model, rows[sel], cols[sel], vals[sel], lr, reg, policy
        )
        total_sq += mse * (hi - lo)
    return total_sq / nnz


def sgd_epoch(
    model: MFModel,
    ratings: RatingMatrix,
    lr: float,
    reg: float,
    batch_size: int = 4096,
    policy: ConflictPolicy = ConflictPolicy.ATOMIC,
    rng: np.random.Generator | None = None,
) -> float:
    """:func:`sgd_shard_epoch` over a whole :class:`RatingMatrix`."""
    return sgd_shard_epoch(
        model, ratings.rows, ratings.cols, ratings.vals,
        lr, reg, batch_size, policy, rng,
    )


def sgd_epoch_serial(
    model: MFModel,
    ratings: RatingMatrix,
    lr: float,
    reg: float,
) -> float:
    """Pure-Python serial SGD epoch: the exact sequential recurrence.

    This is the ground-truth semantics ("the standard SGD is a serial
    algorithm", paper 2.1).  O(nnz * k) Python-loop cost — use only on
    tiny matrices, e.g. to validate the vectorized kernels.
    """
    P, Q = model.P, model.Q
    total_sq = 0.0
    for i in range(ratings.nnz):
        r, c = int(ratings.rows[i]), int(ratings.cols[i])
        # validation-only serial recurrence (O(nnz*k) Python cost is the
        # documented price); the copies pin the pre-update p_i, q_j pair
        p = P[r].copy()  # hcclint: disable=hot-copy
        q = Q[:, c].copy()  # hcclint: disable=hot-copy
        err = float(ratings.vals[i] - p @ q)
        P[r] = p + lr * (err * q - reg * p)
        Q[:, c] = q + lr * (err * p - reg * q)
        total_sq += err * err
    return total_sq / max(ratings.nnz, 1)


def updates_per_epoch(ratings: RatingMatrix) -> int:
    """Number of SGD parameter updates in one epoch (= nnz).

    This is the numerator of the paper's "computing power" metric
    (Eq. 8): updates/s = nnz * epochs / cost_time.
    """
    return ratings.nnz
