"""Biased matrix factorization: mu + b_u + b_i + p.q.

Production recommenders (the Netflix-prize lineage the paper's Figure 1
descends from) add a global mean and per-user/per-item bias terms to
the factor model:

    r_hat_ij = mu + b_i^user + b_j^item + p_i . q_j

Biases absorb the "this user rates harshly / this item is popular"
signal, letting the factors spend their capacity on interactions, which
usually buys a few RMSE points over plain MF.  The SGD updates extend
the Figure 1 recurrence with bias gradients and run through the same
vectorized machinery (including the duplicate-averaging trick).
"""

from __future__ import annotations

import numpy as np

from repro.data.ratings import RatingMatrix
from repro.mf.kernels import _scatter_mean
from repro.mf.model import MFModel
from repro.mf.sgd import TrainHistory


class BiasedMF:
    """SGD-trained biased matrix factorization."""

    def __init__(
        self,
        k: int,
        lr: float = 0.005,
        reg: float = 0.02,
        bias_reg: float | None = None,
        batch_size: int = 4096,
        seed: int = 0,
    ):
        if k <= 0:
            raise ValueError("k must be positive")
        if batch_size <= 0:
            raise ValueError("batch_size must be positive")
        self.k = k
        self.lr = lr
        self.reg = reg
        self.bias_reg = bias_reg if bias_reg is not None else reg
        self.batch_size = batch_size
        self.seed = seed
        self.model: MFModel | None = None
        self.mu: float = 0.0
        self.user_bias: np.ndarray | None = None
        self.item_bias: np.ndarray | None = None
        self.history = TrainHistory()

    # ------------------------------------------------------------------
    def predict(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        if self.model is None:
            raise RuntimeError("fit() first")
        interaction = self.model.predict(rows, cols)
        return self.mu + self.user_bias[rows] + self.item_bias[cols] + interaction

    def rmse(self, ratings: RatingMatrix) -> float:
        if self.model is None:
            raise RuntimeError("fit() first")
        # the interaction part through the model's blocked residual; the
        # bias terms are O(nnz) gathers
        err = self.model.residual(ratings) - (
            self.mu + self.user_bias[ratings.rows] + self.item_bias[ratings.cols]
        )
        return float(np.sqrt(np.mean(np.square(err, dtype=np.float64))))

    # ------------------------------------------------------------------
    def _batch_update(self, rows, cols, vals) -> None:
        P, Q = self.model.P, self.model.Q
        p = P[rows]
        q = Q[:, cols].T
        pred = (
            self.mu + self.user_bias[rows] + self.item_bias[cols]
            + np.einsum("ij,ij->i", p, q)
        )
        err = (vals - pred).astype(np.float32)

        lr, reg, breg = self.lr, self.reg, self.bias_reg
        dp = lr * (err[:, None] * q - reg * p)
        dq = lr * (err[:, None] * p - reg * q)
        dbu = lr * (err - breg * self.user_bias[rows])
        dbi = lr * (err - breg * self.item_bias[cols])

        # duplicate-averaged atomic accumulation, as in the plain kernel
        _scatter_mean(rows, P.shape[0], (P, dp), (self.user_bias[:, None], dbu[:, None]))
        _scatter_mean(cols, Q.shape[1], (Q.T, dq), (self.item_bias[:, None], dbi[:, None]))

    def fit(
        self,
        ratings: RatingMatrix,
        epochs: int = 20,
        eval_data: RatingMatrix | None = None,
    ) -> "BiasedMF":
        eval_data = eval_data if eval_data is not None else ratings
        self.mu = ratings.mean_rating()
        self.user_bias = np.zeros(ratings.m, dtype=np.float32)
        self.item_bias = np.zeros(ratings.n, dtype=np.float32)
        # interactions start near zero: biases explain the baseline
        rng = np.random.default_rng(self.seed)
        scale = 1.0 / np.sqrt(self.k)
        self.model = MFModel(
            (0.1 * scale * rng.standard_normal((ratings.m, self.k))).astype(np.float32),
            (0.1 * scale * rng.standard_normal((self.k, ratings.n))).astype(np.float32),
        )
        for _ in range(epochs):
            order = rng.permutation(ratings.nnz)
            data = ratings.take(order)
            for rows, cols, vals in data.batches(self.batch_size):
                self._batch_update(rows, cols, vals)
            self.history.record(self.rmse(eval_data), 0.0)
        return self
