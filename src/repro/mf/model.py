"""The factor model: user matrix P and item matrix Q (paper Figure 1).

``P`` is ``(m, k)`` and ``Q`` is ``(k, n)`` so that the predicted rating
matrix is ``P @ Q`` — the same orientation the paper draws.  Both are
``float32``, matching the FP32 training / FP16 transmission design of
section 3.4.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.data.ratings import RatingMatrix

#: coordinate pairs per block of the blocked passes (predict, residual):
#: the two factor gathers of one block are ``2 * 8192 * k`` floats, 4 MB
#: at k = 64, so a pass over any number of ratings keeps a cache-sized
#: working set instead of materialising ``P[rows]`` and ``Q[:, cols]``
_BLOCK = 8192

#: float64 values drawn per block by :meth:`MFModel.init` (512 KB)
_INIT_BLOCK = 1 << 16


def _scaled_normal(
    rng: np.random.Generator, shape: tuple[int, int], base: float
) -> np.ndarray:
    """``base * (1 + 0.1 * N(0, 1))`` as float32, drawn row block by row block.

    The generator fills a ``(rows, cols)`` request in row-major order
    from one stream, so drawing the rows in blocks yields the same
    values as drawing the whole matrix; only one block ever exists in
    float64.
    """
    out = np.empty(shape, dtype=np.float32)
    step = max(1, _INIT_BLOCK // max(1, shape[1]))
    for lo in range(0, shape[0], step):
        block = rng.standard_normal((min(step, shape[0] - lo), shape[1]))
        block *= 0.1
        block += 1.0
        block *= base
        out[lo : lo + step] = block
    return out


@dataclass
class MFModel:
    """Latent-factor model holding P (m x k) and Q (k x n)."""

    P: np.ndarray
    Q: np.ndarray

    def __post_init__(self) -> None:
        self.P = np.ascontiguousarray(self.P, dtype=np.float32)
        self.Q = np.ascontiguousarray(self.Q, dtype=np.float32)
        if self.P.ndim != 2 or self.Q.ndim != 2:
            raise ValueError("P and Q must be 2-D")
        if self.P.shape[1] != self.Q.shape[0]:
            raise ValueError(
                f"inner dimensions disagree: P is {self.P.shape}, Q is {self.Q.shape}"
            )

    # ------------------------------------------------------------------
    @property
    def m(self) -> int:
        return self.P.shape[0]

    @property
    def n(self) -> int:
        return self.Q.shape[1]

    @property
    def k(self) -> int:
        """Latent dimension: columns of P / rows of Q (Table 1)."""
        return self.P.shape[1]

    @property
    def feature_bytes(self) -> int:
        """Total FP32 footprint of the feature matrices, 4k(m+n)."""
        return self.P.nbytes + self.Q.nbytes

    # ------------------------------------------------------------------
    @classmethod
    def init(cls, m: int, n: int, k: int, mean_rating: float = 3.0, seed: int = 0) -> "MFModel":
        """Initialize so that initial predictions hover near the mean rating.

        Entries are ``sqrt(mean/k)`` plus small noise, the common MF
        initialization (used by cuMF and LIBMF): ``p . q ~ mean`` at
        epoch 0, which keeps early SGD steps well-scaled for any rating
        scale (Netflix 1-5 vs. Yahoo R1 0-100).
        """
        if k <= 0:
            raise ValueError("k must be positive")
        if mean_rating <= 0:
            raise ValueError("mean_rating must be positive")
        rng = np.random.default_rng(seed)
        base = np.sqrt(mean_rating / k)
        p = _scaled_normal(rng, (m, k), base)
        q = _scaled_normal(rng, (k, n), base)
        return cls(p, q)

    @classmethod
    def init_for(
        cls, ratings: RatingMatrix, k: int, seed: int = 0, mean: float | None = None
    ) -> "MFModel":
        """:meth:`init` at ``ratings``' shape and mean rating.

        ``mean`` stands for ``ratings.mean_rating()`` where the caller
        took it before reordering the ratings in place: a float32 sum
        depends on the order it runs in, and so would every initial bit.
        """
        if mean is None:
            mean = ratings.mean_rating()
        return cls.init(
            ratings.m, ratings.n, k, mean_rating=max(mean or 1.0, 1e-3), seed=seed
        )

    # ------------------------------------------------------------------
    def _predict_blocks(self, rows: np.ndarray, cols: np.ndarray):
        """Yield ``(slice, predictions)`` over ``_BLOCK``-sized runs of pairs.

        Each element of an ``einsum("ij,ji->i")`` is its own dot product,
        so a block's values carry the bits the same call over all pairs
        at once would give them.
        """
        for lo in range(0, len(rows), _BLOCK):
            block = slice(lo, lo + _BLOCK)
            yield block, np.einsum(
                "ij,ji->i", self.P[rows[block]], self.Q[:, cols[block]],
                optimize=True,
            )

    def predict(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """Predicted ratings for coordinate pairs: ``sum_k P[r,k] Q[k,c]``."""
        rows, cols = np.asarray(rows), np.asarray(cols)
        out = np.empty(len(rows), dtype=np.float32)
        for block, predicted in self._predict_blocks(rows, cols):
            out[block] = predicted
        return out

    def residual(self, ratings: RatingMatrix) -> np.ndarray:
        """Signed errors ``r_ij - p_i . q_j`` of the observed entries (float32).

        The vector :mod:`repro.mf.loss` reduces: nothing larger than
        this O(nnz) vector and one block of gathers is allocated.
        """
        err = np.empty(ratings.nnz, dtype=np.float32)
        for block, predicted in self._predict_blocks(ratings.rows, ratings.cols):
            np.subtract(ratings.vals[block], predicted, out=err[block])
        return err

    def predict_dense(self) -> np.ndarray:
        """Full predicted rating matrix R_p = P @ Q (small models only)."""
        return self.P @ self.Q

    def rmse(self, ratings: RatingMatrix) -> float:
        """Root mean square error over the observed entries.

        Reduced a block at a time — the float32 residual of one
        ``_BLOCK``, its squares summed in float64 — so an evaluate
        allocates nothing sized ``nnz``.
        """
        if ratings.nnz == 0:
            return 0.0
        total = 0.0
        for block, err in self._predict_blocks(ratings.rows, ratings.cols):
            np.subtract(ratings.vals[block], err, out=err)
            # metric reduction deliberately widens; never feeds the FP32 model
            total += float(np.square(err, dtype=np.float64).sum())  # hcclint: disable=kernel-promotion
        return float(np.sqrt(total / ratings.nnz))

    def copy(self) -> "MFModel":
        return MFModel(self.P.copy(), self.Q.copy())

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"MFModel(m={self.m}, n={self.n}, k={self.k})"
