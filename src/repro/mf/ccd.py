"""CCD++ — cyclic coordinate descent MF (Yu et al., ICDM 2012).

The third major MF solver family next to SGD and ALS (LIBPMF's
algorithm; cuMF descends from this lineage too).  CCD++ sweeps the
latent dimensions one at a time: for feature f it peels u_f·v_f out of
the residual matrix, solves the two one-dimensional least-squares
problems in closed form (every user's scalar given v_f, then every
item's scalar given u_f), and folds the updated rank-1 term back in.

Per-rating work is O(1) per inner update — lighter than ALS's O(k²) —
while keeping closed-form stability; its weakness is the 2k residual
sweeps per outer iteration, which is why GPU implementations favour
SGD's single pass.  All updates here are vectorized with grouped
``bincount`` accumulations over the COO arrays.
"""

from __future__ import annotations

import numpy as np

from repro.data.ratings import RatingMatrix
from repro.mf.model import MFModel
from repro.mf.sgd import TrainHistory


class CCDPlusPlus:
    """Rank-1 cyclic coordinate descent for matrix factorization."""

    def __init__(self, k: int, reg: float = 0.05, inner_sweeps: int = 1, seed: int = 0):
        if k <= 0:
            raise ValueError("k must be positive")
        if reg < 0:
            raise ValueError("reg must be non-negative")
        if inner_sweeps <= 0:
            raise ValueError("inner_sweeps must be positive")
        self.k = k
        self.reg = reg
        self.inner_sweeps = inner_sweeps
        self.seed = seed
        self.model: MFModel | None = None
        self.history = TrainHistory()

    # ------------------------------------------------------------------
    @staticmethod
    def _solve_axis(
        residual_plus: np.ndarray,   # residual with the rank-1 term added back
        own_idx: np.ndarray,         # entity index per rating (the side solved)
        other_vals: np.ndarray,      # other side's feature value per rating
        n_entities: int,
        reg: float,
    ) -> np.ndarray:
        """Closed-form 1-D ridge per entity: sum(r*v) / (reg*cnt + sum(v^2))."""
        num = np.bincount(own_idx, weights=residual_plus * other_vals,
                          minlength=n_entities)
        den = np.bincount(own_idx, weights=other_vals * other_vals,
                          minlength=n_entities)
        cnt = np.bincount(own_idx, minlength=n_entities)
        den = den + reg * cnt
        out = np.zeros(n_entities)
        nz = den > 0
        out[nz] = num[nz] / den[nz]
        return out

    def fit(
        self,
        ratings: RatingMatrix,
        epochs: int = 10,
        eval_data: RatingMatrix | None = None,
    ) -> MFModel:
        eval_data = eval_data if eval_data is not None else ratings
        self.model = MFModel.init_for(ratings, self.k, seed=self.seed)
        rows, cols = ratings.rows, ratings.cols

        # residual r_ij = R_ij - p_i . q_j, maintained incrementally
        residual = self.model.residual(ratings).astype(np.float64)

        for _ in range(epochs):
            for f in range(self.k):
                u_f = self.model.P[:, f].astype(np.float64)
                v_f = self.model.Q[f, :].astype(np.float64)
                # peel the rank-1 term out of the residual
                residual_plus = residual + u_f[rows] * v_f[cols]
                for _sweep in range(self.inner_sweeps):
                    u_f = self._solve_axis(residual_plus, rows, v_f[cols],
                                           ratings.m, self.reg)
                    v_f = self._solve_axis(residual_plus, cols, u_f[rows],
                                           ratings.n, self.reg)
                # fold the updated term back in
                residual = residual_plus - u_f[rows] * v_f[cols]
                self.model.P[:, f] = u_f.astype(np.float32)
                self.model.Q[f, :] = v_f.astype(np.float32)
            rmse = float(np.sqrt(np.mean(residual**2)))
            # eval on the requested set (the residual gives train RMSE free)
            self.history.record(self.model.rmse(eval_data), rmse**2)
        return self.model


def fold_in_user(
    model: MFModel,
    item_ids: np.ndarray,
    ratings: np.ndarray,
    reg: float = 0.05,
) -> np.ndarray:
    """Fold a *new* user into a trained model: solve their p vector.

    The classic cold-start-by-ridge trick: with Q fixed, the new user's
    factor is the closed-form ridge solution against their few known
    ratings — no retraining.  Returns the (k,) factor; score the catalog
    with ``p_new @ model.Q``.
    """
    item_ids = np.asarray(item_ids, dtype=np.int64)
    ratings = np.asarray(ratings, dtype=np.float64)
    if len(item_ids) == 0:
        raise ValueError("need at least one rating to fold in")
    if len(item_ids) != len(ratings):
        raise ValueError("item_ids and ratings must align")
    if item_ids.min() < 0 or item_ids.max() >= model.n:
        raise IndexError("item id out of range")
    q = model.Q[:, item_ids].astype(np.float64)      # (k, r)
    gram = q @ q.T + reg * len(item_ids) * np.eye(model.k)
    rhs = q @ ratings
    return np.linalg.solve(gram, rhs).astype(np.float32)
