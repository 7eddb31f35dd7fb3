"""ALS comparator — the other major MF solver family.

SGD's main competitor for matrix factorization is alternating least
squares (the cuMF project the paper builds on ships both cuMF_SGD and
cuMF_ALS).  ALS alternates closed-form ridge-regression solves: fix Q
and solve every user row exactly, then fix P and solve every item
column.  Each half-epoch is embarrassingly parallel and needs *no*
synchronization at all — at the price of O(k^2) memory traffic and an
O(k^3) solve per entity.

Including ALS lets the library answer the practical question the paper
leaves open: when is HCC-MF's SGD machinery (cost model, partition,
comm strategies) worth it versus just running ALS?  Short version: ALS
epochs cost ~k/3 times more compute per rating (Eq. 2's 16k bytes vs
ALS's ~4k^2+ per entity), so for the paper's k=128 SGD wins per epoch
while ALS wins per *iteration count* on ill-conditioned data.
"""

from __future__ import annotations

import numpy as np

from repro.data.ratings import RatingMatrix, stable_order
from repro.mf.model import MFModel
from repro.mf.sgd import TrainHistory


class ALS:
    """Alternating least squares with per-entity ridge solves."""

    def __init__(self, k: int, reg: float = 0.05, seed: int = 0):
        if k <= 0:
            raise ValueError("k must be positive")
        if reg < 0:
            raise ValueError("reg must be non-negative")
        self.k = k
        self.reg = reg
        self.seed = seed
        self.model: MFModel | None = None
        self.history = TrainHistory()

    # ------------------------------------------------------------------
    @staticmethod
    def _solve_side(
        fixed: np.ndarray,           # (k, count_other) — the fixed factor
        indices: np.ndarray,         # entity id per rating
        others: np.ndarray,          # other-side id per rating
        vals: np.ndarray,
        n_entities: int,
        k: int,
        reg: float,
    ) -> np.ndarray:
        """Solve every entity's ridge regression against the fixed side.

        Ratings are grouped by entity with one stable order; each group's
        normal equations ``(F F^T + reg*nnz_e*I) x = F r`` are solved
        exactly (the LIBMF/cuMF_ALS weighting of the penalty).
        """
        out = np.zeros((n_entities, k), dtype=np.float32)
        order = stable_order(indices, n_entities)
        sorted_idx = indices[order]
        sorted_other = others[order]
        sorted_vals = vals[order].astype(np.float64)
        if len(sorted_idx) == 0:
            return out
        starts = np.concatenate(([0], np.flatnonzero(np.diff(sorted_idx)) + 1))
        stops = np.concatenate((starts[1:], [len(sorted_idx)]))
        eye = np.eye(k)
        for a, b in zip(starts, stops):
            entity = int(sorted_idx[a])
            f = fixed[:, sorted_other[a:b]].astype(np.float64)  # (k, cnt)
            r = sorted_vals[a:b]
            gram = f @ f.T + reg * (b - a) * eye
            rhs = f @ r
            out[entity] = np.linalg.solve(gram, rhs).astype(np.float32)
        return out

    def fit(
        self,
        ratings: RatingMatrix,
        epochs: int = 10,
        eval_data: RatingMatrix | None = None,
    ) -> MFModel:
        eval_data = eval_data if eval_data is not None else ratings
        self.model = MFModel.init_for(ratings, self.k, seed=self.seed)
        for _ in range(epochs):
            # user step: fix Q, solve every P row
            self.model.P[...] = self._solve_side(
                self.model.Q, ratings.rows, ratings.cols, ratings.vals,
                ratings.m, self.k, self.reg,
            )
            # item step: fix P, solve every Q column
            q_rows = self._solve_side(
                self.model.P.T.copy(), ratings.cols, ratings.rows, ratings.vals,
                ratings.n, self.k, self.reg,
            )
            self.model.Q[...] = q_rows.T
            rmse = self.model.rmse(eval_data)
            self.history.record(rmse, rmse**2)
        return self.model


def als_flops_per_rating(k: int, avg_ratings_per_entity: float) -> float:
    """Approximate ALS cost per rating: Gram update + amortized solve.

    Each rating adds a rank-1 update to a k x k Gram matrix (~k^2 MACs);
    each entity's O(k^3) solve amortizes over its ratings.  Compare with
    SGD's ~7k FLOPs (the paper's per-update count) to see why large-k
    regimes favour SGD per epoch.
    """
    if k <= 0 or avg_ratings_per_entity <= 0:
        raise ValueError("k and avg_ratings_per_entity must be positive")
    return k * k + (k**3) / (3.0 * avg_ratings_per_entity)
