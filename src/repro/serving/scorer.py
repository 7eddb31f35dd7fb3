"""Batched top-k scoring over a store snapshot (vectorized P·Qᵀ).

CuMF_SGD's observation (PAPERS.md) carries straight over to inference:
the throughput shape of MF is one dense matmul, so a *batch* of users
scores as ``P[users] @ Q`` — one BLAS call for the whole request —
followed by a per-row selection.  The scorer adds the filtering real
recommenders need:

* **exclude-seen** masks (a :class:`SeenIndex` built from the training
  ratings, or any ``user -> item ids`` mapping);
* **allow-list candidates** (score only a given item subset, e.g. the
  retrieval stage's output);
* **per-request k** (one ``k`` per user in the batch, or one for all).

Ordering is fully deterministic: items are ranked by descending score
with ties broken by ascending item id, which is exactly the
``lexsort((item, -score))`` brute-force oracle the property tests
replay.  Every batch is served from **one** snapshot — the scorer grabs
``store.snapshot()`` exactly once per call, so a hot-swap midway
through a batch can never mix factors from two models; the snapshot's
version is stamped on the result.

The optional FP16 path (``precision="fp16"``) scores against the
snapshot's wire-quantized factors — the same binary16 rounding the FP16
channel applies on the wire — while accumulating in FP32.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from repro.data.ratings import RatingMatrix, stable_order
from repro.serving.store import ModelStore

#: scoring precisions: fp32 = raw snapshot factors; fp16 = wire-quantized
PRECISIONS = ("fp32", "fp16")


class SeenIndex:
    """Per-user seen-item lookup for exclude-seen filtering (CSR-style)."""

    def __init__(self, indptr: np.ndarray, items: np.ndarray, m: int):
        self._indptr = indptr
        self._items = items
        self.m = m

    @classmethod
    def from_ratings(cls, ratings: RatingMatrix) -> "SeenIndex":
        """Index every observed (user, item) pair of a rating matrix."""
        items = ratings.cols[stable_order(ratings.rows, ratings.m)]
        indptr = np.zeros(ratings.m + 1, dtype=np.int64)
        np.cumsum(np.bincount(ratings.rows, minlength=ratings.m), out=indptr[1:])
        return cls(indptr, items, ratings.m)

    def items_for(self, user: int) -> np.ndarray:
        """Item ids the user has already rated (unsorted, possibly empty)."""
        if not 0 <= user < self.m:
            return np.empty(0, dtype=np.int64)
        return self._items[self._indptr[user]:self._indptr[user + 1]]


@dataclass(frozen=True)
class TopKResult:
    """One batch's recommendations, all served from a single snapshot."""

    users: np.ndarray           # (B,) user ids as queried
    items: list[np.ndarray]     # per-user item ids, best first
    scores: list[np.ndarray]    # per-user FP32 scores, aligned with items
    version: int                # snapshot version that served the batch
    ks: tuple[int, ...]         # requested k per user

    def __len__(self) -> int:
        return len(self.users)


def _seen_items(exclude, user: int) -> np.ndarray:
    if hasattr(exclude, "items_for"):
        return np.asarray(exclude.items_for(user), dtype=np.int64)
    seen = exclude.get(user)
    if seen is None:
        return np.empty(0, dtype=np.int64)
    return np.asarray(seen, dtype=np.int64)


def _select_row(scores: np.ndarray, allowed: np.ndarray, k: int) -> np.ndarray:
    """Indices of the top-k allowed entries: score desc, index asc.

    Exact under ties: strictly-above-threshold entries are ordered by
    ``lexsort((index, -score))``; remaining slots fill with threshold
    entries in ascending index order — precisely the truncation of the
    full brute-force ordering, without sorting all of ``scores``.
    """
    idx = np.flatnonzero(allowed)
    if k <= 0 or idx.size == 0:
        return np.empty(0, dtype=np.int64)
    vals = scores[idx]
    if k >= idx.size:
        return idx[np.lexsort((idx, -vals))]
    kth = np.partition(vals, vals.size - k)[vals.size - k]
    above = vals > kth
    top = idx[above]
    top = top[np.lexsort((top, -vals[above]))]
    need = k - top.size
    if need > 0:
        top = np.concatenate([top, idx[vals == kth][:need]])
    return top


class Scorer:
    """Answers batched top-k queries against a :class:`ModelStore`."""

    def __init__(self, store: ModelStore, *, precision: str = "fp32"):
        if precision not in PRECISIONS:
            raise ValueError(f"precision must be one of {PRECISIONS}")
        self.store = store
        self.precision = precision

    def top_k(
        self,
        users: Sequence[int] | np.ndarray,
        k: int | Sequence[int],
        *,
        exclude: "SeenIndex | Mapping[int, Sequence[int]] | None" = None,
        candidates: Sequence[int] | np.ndarray | None = None,
    ) -> TopKResult:
        """Top-k items per user, filtered, from one consistent snapshot.

        ``k`` may be a single int or one per user; a user with fewer
        allowed candidates than ``k`` gets a short (possibly empty)
        list rather than padding.  ``candidates`` restricts scoring to
        an allow-list of item ids (deduplicated); ``exclude`` removes
        already-seen items per user.
        """
        snap = self.store.snapshot()   # the one consistency point
        P, Q = snap.quantized() if self.precision == "fp16" else (snap.P, snap.Q)

        users = np.asarray(users, dtype=np.int64).ravel()
        if users.size == 0:
            return TopKResult(users, [], [], snap.version, ())
        if users.min() < 0 or users.max() >= snap.m:
            raise ValueError(
                f"user id out of range for snapshot v{snap.version} "
                f"({snap.m} users)"
            )
        ks = np.broadcast_to(np.asarray(k, dtype=np.int64), users.shape)
        if ks.min() < 0:
            raise ValueError("k must be non-negative")

        if candidates is not None:
            cand = np.unique(np.asarray(candidates, dtype=np.int64))
            if cand.size and (cand[0] < 0 or cand[-1] >= snap.n):
                raise ValueError(
                    f"candidate item id out of range for snapshot "
                    f"v{snap.version} ({snap.n} items)"
                )
            scores = P[users] @ Q[:, cand]
        else:
            cand = None
            scores = P[users] @ Q

        allowed = np.ones(scores.shape, dtype=bool)
        # an empty item axis (empty allow-list) has nothing to exclude,
        # and the searchsorted clamp below cannot index an empty cand
        if exclude is not None and scores.shape[1] > 0:
            for i, user in enumerate(users):
                seen = _seen_items(exclude, int(user))
                if seen.size == 0:
                    continue
                if cand is not None:
                    # positions of seen items inside the sorted allow-list
                    pos = np.searchsorted(cand, seen)
                    pos = pos[(pos < cand.size) & (cand[np.minimum(pos, cand.size - 1)] == seen)]
                    allowed[i, pos] = False
                else:
                    allowed[i, seen[(seen >= 0) & (seen < snap.n)]] = False

        items: list[np.ndarray] = []
        out_scores: list[np.ndarray] = []
        for i in range(users.size):
            sel = _select_row(scores[i], allowed[i], int(ks[i]))
            items.append(cand[sel] if cand is not None else sel)
            out_scores.append(scores[i][sel])
        return TopKResult(users, items, out_scores, snap.version,
                          tuple(int(x) for x in ks))
