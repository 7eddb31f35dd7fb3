"""Row / column grid data partitioning (paper section 3.3).

The server's ``DataManager`` divides the rating matrix into groups of
whole rows (a *row grid*) or whole columns (a *column grid*), one group
per worker.  A row grid is chosen when the matrix has more rows than
columns — combined with the "transmit Q only" strategy this means local
P rows never conflict between workers.

The partition fractions ``x_i`` (how much of nnz each worker gets) come
from the DP0/DP1/DP2 strategies in :mod:`repro.core.partition`; this
module turns fractions into concrete row ranges whose *entry counts*
match the fractions as closely as whole-row boundaries allow.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.data.ratings import RatingMatrix, stable_order


class GridKind(enum.Enum):
    """Orientation of the data grid."""

    ROW = "row"
    COLUMN = "column"


def choose_grid(m: int, n: int) -> GridKind:
    """Row grid when the matrix has at least as many rows as columns."""
    return GridKind.ROW if m >= n else GridKind.COLUMN


@dataclass(frozen=True)
class GridAssignment:
    """One worker's slice of the rating matrix.

    ``lo``/``hi`` bound the assigned rows (or columns, for a column
    grid); ``entries`` indexes into the parent matrix's COO arrays.
    """

    worker: int
    kind: GridKind
    lo: int
    hi: int
    entries: np.ndarray

    @property
    def nnz(self) -> int:
        return int(len(self.entries))

    @property
    def span(self) -> int:
        return self.hi - self.lo

    def extract(self, ratings: RatingMatrix) -> RatingMatrix:
        """Materialize this assignment's entries as a RatingMatrix."""
        return ratings.take(self.entries)


def _fractions_to_boundaries(
    counts: np.ndarray, fractions: Sequence[float]
) -> tuple[list[tuple[int, int]], np.ndarray]:
    """Index ranges whose cumulative counts track the cumulative fractions,
    and those cumulative counts (``cum[i]`` entries lie below index ``i``)."""
    fr = np.asarray(fractions, dtype=np.float64)
    if len(fr) == 0:
        raise ValueError("need at least one worker fraction")
    if np.any(fr < 0):
        raise ValueError("fractions must be non-negative")
    total = fr.sum()
    if total <= 0:
        raise ValueError("fractions must sum to a positive value")
    fr = fr / total

    cum_counts = np.concatenate([[0], np.cumsum(counts)])
    total_nnz = cum_counts[-1]
    targets = np.cumsum(fr)[:-1] * total_nnz
    # boundary rows where the cumulative nnz first reaches each target
    cuts = np.searchsorted(cum_counts, targets, side="left")
    cuts = np.clip(cuts, 0, len(counts))
    bounds = [0, *cuts.tolist(), len(counts)]
    # enforce monotonicity (degenerate fractions can produce equal cuts)
    for i in range(1, len(bounds)):
        bounds[i] = max(bounds[i], bounds[i - 1])
    return [(bounds[i], bounds[i + 1]) for i in range(len(fr))], cum_counts


def partition_rows(
    ratings: RatingMatrix,
    fractions: Sequence[float],
    kind: GridKind | None = None,
) -> list[GridAssignment]:
    """Partition into per-worker whole-row (or whole-column) groups.

    Each worker ``i`` receives a contiguous range of rows whose total
    entry count approximates ``fractions[i] * nnz``.  Returns one
    :class:`GridAssignment` per worker (possibly with zero entries if a
    fraction is tiny).
    """
    if kind is None:
        kind = choose_grid(ratings.m, ratings.n)
    if kind is GridKind.ROW:
        axis_idx = ratings.rows
        axis_len = ratings.m
    else:
        axis_idx = ratings.cols
        axis_len = ratings.n

    counts = np.bincount(axis_idx, minlength=axis_len)
    ranges, first_entry = _fractions_to_boundaries(counts, fractions)
    order = stable_order(axis_idx, axis_len)
    return [
        GridAssignment(
            worker=worker, kind=kind, lo=int(lo), hi=int(hi),
            entries=order[first_entry[lo]:first_entry[hi]],
        )
        for worker, (lo, hi) in enumerate(ranges)
    ]


def row_sorted_shards(
    ratings: RatingMatrix,
    fractions: Sequence[float],
    out: "tuple[np.ndarray, np.ndarray, np.ndarray] | None" = None,
) -> tuple[RatingMatrix, np.ndarray, list[tuple[int, int]]]:
    """The row grid as one row-sorted store: what a backend trains on.

    Returns ``(store, offsets, p_rows)``.  ``store`` holds every rating
    ordered by (row, col), ties in ``ratings``' own order; worker ``i``'s
    shard is its slice ``[offsets[i], offsets[i + 1])`` and ``p_rows[i]``
    the ``[lo, hi)`` rows of P that shard rates — shard by shard the
    bytes of ``partition_rows(ratings, fractions, GridKind.ROW)`` →
    ``extract`` → ``sort_by_row`` (paper footnote 1), from one stable
    radix order over all entries instead of a sort per step.

    With ``out`` — three arrays of at least ``nnz`` elements, typed as
    ``rows`` / ``cols`` / ``vals`` — the store is written into them, one
    column temporary at a time, and ``store`` is a matrix of views onto
    them.  They may be ``ratings``' own arrays: the sort is then in
    place, and ``ratings`` must not be read afterwards.
    """
    counts = np.bincount(ratings.rows, minlength=ratings.m)
    p_rows, first_entry = _fractions_to_boundaries(counts, fractions)
    offsets = first_entry[[lo for lo, _ in p_rows] + [ratings.m]]
    order = stable_order(ratings.rows, ratings.m, stable_order(ratings.cols, ratings.n))
    if out is None:
        return ratings.take(order), offsets, p_rows
    views = [dest[: ratings.nnz] for dest in out]
    for column, view in zip((ratings.rows, ratings.cols, ratings.vals), views):
        view[:] = column[order]
    return RatingMatrix(ratings.m, ratings.n, *views), offsets, p_rows


def partition_entries(ratings: RatingMatrix, fractions: Sequence[float]) -> list[GridAssignment]:
    """Partition raw entries (ignoring row structure).

    This is the "crude and direct" partition used in the paper's
    motivation experiments (section 2.3): workers may share rows, which
    is why the server must synchronize (WAW races).  Entries are taken
    in storage order, so shuffle first for an unbiased split.
    """
    fr = np.asarray(fractions, dtype=np.float64)
    if np.any(fr < 0) or fr.sum() <= 0:
        raise ValueError("fractions must be non-negative and sum > 0")
    fr = fr / fr.sum()
    cuts = np.concatenate([[0], np.round(np.cumsum(fr) * ratings.nnz).astype(np.int64)])
    cuts[-1] = ratings.nnz
    out = []
    for worker in range(len(fr)):
        idx = np.arange(cuts[worker], cuts[worker + 1])
        out.append(
            GridAssignment(worker=worker, kind=GridKind.ROW, lo=0, hi=ratings.m, entries=idx)
        )
    return out


def block_sort(ratings: RatingMatrix, assignment: GridAssignment) -> RatingMatrix:
    """Extract an assignment's data and sort it by row for cache locality.

    Mirrors the "block sorting by row" modification the authors added to
    CuMF_SGD's ``grid_problem`` (paper footnote 1): consecutive updates
    touch nearby P rows, improving hit rate.
    """
    sub = assignment.extract(ratings)
    return sub.sort_by_row() if assignment.kind is GridKind.ROW else sub.sort_by_col()


def coverage_check(ratings: RatingMatrix, assignments: Sequence[GridAssignment]) -> bool:
    """True iff the assignments cover every entry exactly once."""
    seen = np.concatenate([a.entries for a in assignments]) if assignments else np.empty(0, dtype=np.int64)
    if len(seen) != ratings.nnz:
        return False
    return bool(np.array_equal(np.sort(seen), np.arange(ratings.nnz)))
