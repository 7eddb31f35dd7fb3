"""Sparse rating-matrix container used throughout HCC-MF.

The rating matrix ``R`` (paper Figure 1) is stored in coordinate (COO)
form: three parallel arrays of row indices, column indices, and rating
values.  COO is the natural layout for SGD-based MF because one training
sample *is* one coordinate triple; the per-epoch shuffle (preprocessing
step 1 in Figure 4) is a permutation of the triple arrays, and a row-grid
partition (step 2) is a slice of them.

The container is deliberately immutable-by-convention: all transforms
(``shuffle``, ``sort_by_row``, ``select_rows`` ...) return new
``RatingMatrix`` instances sharing no index state with the original, so
workers can never alias each other's training order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Tuple

import numpy as np


def _as_index_array(a) -> np.ndarray:
    arr = np.ascontiguousarray(a, dtype=np.int64)
    if arr.ndim != 1:
        raise ValueError(f"index array must be 1-D, got shape {arr.shape}")
    return arr


def _as_value_array(a) -> np.ndarray:
    arr = np.ascontiguousarray(a, dtype=np.float32)
    if arr.ndim != 1:
        raise ValueError(f"value array must be 1-D, got shape {arr.shape}")
    return arr


_GATHER_BLOCK = 1 << 16


def stable_order(ids: np.ndarray, bound: int, order: np.ndarray | None = None) -> np.ndarray:
    """The permutation that stably sorts ``ids``, all in ``[0, bound)``.

    A least-significant-digit radix sort: one stable pass per 16 bits of
    ``bound - 1``, each NumPy's own counting sort over ``uint16`` keys,
    so the cost is linear in ``len(ids)`` where a comparison sort over
    ``int64`` is not.  Equal to ``np.argsort(ids, kind="stable")``, as
    any stable sort of the same keys is.  ``order`` is a permutation the
    entries are already in; ties keep it, which composes keys from the
    least significant up: ``stable_order(rows, m, stable_order(cols, n))``
    equals ``np.lexsort((cols, rows))``.

    Precondition: ``0 <= id < bound``.  It is not checked here — the
    kernel calls this once per batch — and an id outside it loses its
    high bits and lands in another id's group, silently.  Ids reach
    every caller checked: through :class:`RatingMatrix`, whose
    constructor rejects any other, or through
    ``engine.worker_proc.attached_shard``.
    """
    for shift in range(0, (int(bound) - 1).bit_length(), 16):
        digit = (ids >> shift if shift else ids).astype(np.uint16)
        if order is not None:
            digit = digit[order]
        step = np.argsort(digit, kind="stable")
        del digit
        if order is not None:
            # ``order[step]`` a block at a time into ``step`` itself: two
            # index-sized arrays alive, not three
            for lo in range(0, len(step), _GATHER_BLOCK):
                step[lo:lo + _GATHER_BLOCK] = order[step[lo:lo + _GATHER_BLOCK]]
        order = step
    return np.arange(len(ids)) if order is None else order


@dataclass(frozen=True)
class RatingMatrix:
    """A sparse rating matrix in COO form.

    Parameters
    ----------
    m, n:
        Number of rows (users) and columns (items).
    rows, cols:
        Per-entry row / column indices, ``int64``, length ``nnz``.
    vals:
        Per-entry rating values, ``float32``, length ``nnz``.
    """

    m: int
    n: int
    rows: np.ndarray = field(repr=False)
    cols: np.ndarray = field(repr=False)
    vals: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "rows", _as_index_array(self.rows))
        object.__setattr__(self, "cols", _as_index_array(self.cols))
        object.__setattr__(self, "vals", _as_value_array(self.vals))
        if not (len(self.rows) == len(self.cols) == len(self.vals)):
            raise ValueError(
                "rows, cols, vals must have equal length, got "
                f"{len(self.rows)}, {len(self.cols)}, {len(self.vals)}"
            )
        if self.m <= 0 or self.n <= 0:
            raise ValueError(f"matrix dimensions must be positive, got {self.m}x{self.n}")
        if len(self.rows) and (self.rows.min() < 0 or self.rows.max() >= self.m):
            raise ValueError("row index out of bounds")
        if len(self.cols) and (self.cols.min() < 0 or self.cols.max() >= self.n):
            raise ValueError("column index out of bounds")
        if len(self.vals) and not np.all(np.isfinite(self.vals)):
            raise ValueError("rating values must be finite")

    # ------------------------------------------------------------------
    # basic properties
    # ------------------------------------------------------------------
    @property
    def nnz(self) -> int:
        """Number of observed ratings."""
        return int(len(self.vals))

    @property
    def shape(self) -> Tuple[int, int]:
        return (self.m, self.n)

    @property
    def density(self) -> float:
        """Fraction of the m*n cells that are observed."""
        return self.nnz / float(self.m * self.n)

    @property
    def dims(self) -> int:
        """``m + n`` — the quantity that drives communication cost (Eq. 2)."""
        return self.m + self.n

    @property
    def reuse_ratio(self) -> float:
        """``nnz / (m + n)``: average reuse of a feature row per epoch.

        The paper (section 3.4) shows that when this ratio drops below
        ~1e3, communication and computation costs are of the same order.
        """
        return self.nnz / float(self.dims)

    def row_counts(self) -> np.ndarray:
        """Number of observed ratings per row (user activity)."""
        return np.bincount(self.rows, minlength=self.m)

    def col_counts(self) -> np.ndarray:
        """Number of observed ratings per column (item popularity)."""
        return np.bincount(self.cols, minlength=self.n)

    def mean_rating(self) -> float:
        return float(self.vals.mean()) if self.nnz else 0.0

    # ------------------------------------------------------------------
    # constructors / converters
    # ------------------------------------------------------------------
    @classmethod
    def from_dense(cls, dense, missing=0.0) -> "RatingMatrix":
        """Build from a dense array; cells equal to *missing* are absent."""
        dense = np.asarray(dense, dtype=np.float32)
        if dense.ndim != 2:
            raise ValueError("dense rating matrix must be 2-D")
        rows, cols = np.nonzero(dense != missing)
        return cls(dense.shape[0], dense.shape[1], rows, cols, dense[rows, cols])

    def to_dense(self) -> np.ndarray:
        out = np.zeros(self.shape, dtype=np.float32)
        out[self.rows, self.cols] = self.vals
        return out

    def transpose(self) -> "RatingMatrix":
        """Swap users and items (used to switch row grid <-> column grid)."""
        return RatingMatrix(self.n, self.m, self.cols.copy(), self.rows.copy(), self.vals.copy())

    # ------------------------------------------------------------------
    # transforms (all return new instances)
    # ------------------------------------------------------------------
    def shuffle(self, seed: int | np.random.Generator = 0) -> "RatingMatrix":
        """Random permutation of the entries (preprocessing step 1)."""
        rng = np.random.default_rng(seed)
        perm = rng.permutation(self.nnz)
        return self.take(perm)

    def sort_by_row(self) -> "RatingMatrix":
        """Stable sort by (row, col).

        This is the "block sorting by row" cache optimization the paper's
        authors retro-fitted onto CuMF_SGD (footnote 1, item iii).
        """
        return self.take(stable_order(self.rows, self.m, stable_order(self.cols, self.n)))

    def sort_by_col(self) -> "RatingMatrix":
        return self.take(stable_order(self.cols, self.n, stable_order(self.rows, self.m)))

    def take(self, idx: np.ndarray) -> "RatingMatrix":
        """Entry subset / reorder by index array (keeps m, n)."""
        idx = np.asarray(idx)
        return RatingMatrix(self.m, self.n, self.rows[idx], self.cols[idx], self.vals[idx])

    def select_rows(self, row_lo: int, row_hi: int) -> "RatingMatrix":
        """Entries whose row index lies in ``[row_lo, row_hi)``.

        Row indices are preserved (not re-based) so workers can address
        the global feature matrix P directly.
        """
        if not (0 <= row_lo <= row_hi <= self.m):
            raise ValueError(f"invalid row range [{row_lo}, {row_hi}) for m={self.m}")
        mask = (self.rows >= row_lo) & (self.rows < row_hi)
        return self.take(np.nonzero(mask)[0])

    def split(self, test_fraction: float = 0.1, seed: int = 0) -> Tuple["RatingMatrix", "RatingMatrix"]:
        """Random train/test split of the observed entries."""
        if not (0.0 <= test_fraction < 1.0):
            raise ValueError("test_fraction must be in [0, 1)")
        rng = np.random.default_rng(seed)
        perm = rng.permutation(self.nnz)
        n_test = int(round(self.nnz * test_fraction))
        return self.take(perm[n_test:]), self.take(perm[:n_test])

    def batches(self, batch_size: int) -> Iterator[Tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """Yield ``(rows, cols, vals)`` mini-batch views in storage order."""
        if batch_size <= 0:
            raise ValueError("batch_size must be positive")
        for start in range(0, self.nnz, batch_size):
            stop = min(start + batch_size, self.nnz)
            yield self.rows[start:stop], self.cols[start:stop], self.vals[start:stop]

    # ------------------------------------------------------------------
    def nbytes(self) -> int:
        """Storage footprint of the COO arrays in bytes."""
        return self.rows.nbytes + self.cols.nbytes + self.vals.nbytes

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"RatingMatrix(m={self.m}, n={self.n}, nnz={self.nnz}, "
            f"density={self.density:.3e})"
        )
