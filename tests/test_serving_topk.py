"""Property tier: batched top-k equals the brute-force oracle.

The scorer's contract is a pure function of the snapshot and the
request: rank by descending score, break ties by ascending item id —
exactly ``np.lexsort((item, -score))`` of the dense score row, truncated
to k, after removing excluded items and restricting to candidates.
The Hypothesis sweep replays that oracle against randomized models
(integer-valued factors, so score ties actually happen), batch shapes,
per-request ks, exclusion masks, and candidate allow-lists.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.ratings import RatingMatrix
from repro.serving.scorer import Scorer, SeenIndex
from repro.serving.store import ModelSnapshot, ModelStore


def store_for(P, Q, version: int = 1) -> ModelStore:
    """An in-memory store serving exactly these factors."""
    P = np.array(P, dtype=np.float32)
    Q = np.array(Q, dtype=np.float32)
    P.flags.writeable = False
    Q.flags.writeable = False
    store = ModelStore()
    store._snapshot = ModelSnapshot(
        P=P, Q=Q, version=version, epoch=0, path="<memory>"
    )
    return store


def oracle_top_k(P, Q, user, k, seen, cand):
    """Brute force: full argsort of the masked score row."""
    n = Q.shape[1]
    ids = np.arange(n, dtype=np.int64) if cand is None else cand
    scores = (P[user] @ Q).astype(np.float32)[ids]
    allowed = np.ones(ids.size, dtype=bool)
    if seen is not None and seen.size:
        allowed &= ~np.isin(ids, seen)
    idx = np.flatnonzero(allowed)
    order = np.lexsort((ids[idx], -scores[idx]))
    chosen = idx[order][: max(int(k), 0)]
    return ids[chosen], scores[chosen]


@st.composite
def topk_cases(draw):
    m = draw(st.integers(1, 8))
    n = draw(st.integers(1, 12))
    kdim = draw(st.integers(1, 3))
    # small integer factors force frequent exact score ties
    cell = st.integers(-2, 2)
    P = np.array(
        draw(st.lists(cell, min_size=m * kdim, max_size=m * kdim)),
        dtype=np.float32,
    ).reshape(m, kdim)
    Q = np.array(
        draw(st.lists(cell, min_size=kdim * n, max_size=kdim * n)),
        dtype=np.float32,
    ).reshape(kdim, n)
    batch = draw(st.integers(1, 5))
    users = draw(
        st.lists(st.integers(0, m - 1), min_size=batch, max_size=batch)
    )
    if draw(st.booleans()):
        k = draw(st.integers(0, n + 2))
    else:
        k = draw(st.lists(st.integers(0, n + 2), min_size=batch, max_size=batch))
    exclude = None
    if draw(st.booleans()):
        exclude = {
            u: draw(st.lists(st.integers(0, n - 1), max_size=n))
            for u in set(users)
            if draw(st.booleans())
        }
    candidates = None
    if draw(st.booleans()):
        # duplicates and arbitrary order on purpose: the scorer dedupes
        candidates = draw(st.lists(st.integers(0, n - 1), max_size=2 * n))
    return P, Q, users, k, exclude, candidates


def _seen_array(exclude, user):
    if exclude is None or user not in exclude:
        return np.empty(0, dtype=np.int64)
    return np.asarray(exclude[user], dtype=np.int64)


@settings(max_examples=120, deadline=None, derandomize=True)
@given(topk_cases())
def test_matches_bruteforce_oracle(case):
    P, Q, users, k, exclude, candidates = case
    store = store_for(P, Q)
    result = Scorer(store).top_k(users, k, exclude=exclude, candidates=candidates)

    cand = (
        None
        if candidates is None
        else np.unique(np.asarray(candidates, dtype=np.int64))
    )
    ks = k if isinstance(k, list) else [k] * len(users)
    assert result.version == 1
    assert result.ks == tuple(ks)
    assert len(result) == len(users)
    for i, (user, ki) in enumerate(zip(users, ks)):
        want_items, want_scores = oracle_top_k(
            P, Q, user, ki, _seen_array(exclude, user), cand
        )
        np.testing.assert_array_equal(result.items[i], want_items)
        np.testing.assert_array_equal(result.scores[i], want_scores)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(topk_cases())
def test_fp16_path_matches_oracle_on_quantized_factors(case):
    P, Q, users, k, exclude, candidates = case
    # fractional values so binary16 rounding actually changes something
    P = (P / 3.0).astype(np.float32)
    Q = (Q / 3.0).astype(np.float32)
    store = store_for(P, Q)
    Pq, Qq = store.snapshot().quantized()
    result = Scorer(store, precision="fp16").top_k(
        users, k, exclude=exclude, candidates=candidates
    )

    cand = (
        None
        if candidates is None
        else np.unique(np.asarray(candidates, dtype=np.int64))
    )
    ks = k if isinstance(k, list) else [k] * len(users)
    for i, (user, ki) in enumerate(zip(users, ks)):
        want_items, want_scores = oracle_top_k(
            Pq, Qq, user, ki, _seen_array(exclude, user), cand
        )
        np.testing.assert_array_equal(result.items[i], want_items)
        np.testing.assert_array_equal(result.scores[i], want_scores)


class TestDeterministicTieBreaking:
    def test_constant_scores_rank_by_ascending_item_id(self):
        store = store_for(np.ones((2, 2)), np.ones((2, 6)))
        result = Scorer(store).top_k([0, 1], 4)
        for items in result.items:
            np.testing.assert_array_equal(items, [0, 1, 2, 3])

    def test_threshold_ties_fill_in_ascending_id(self):
        # scores: item0=5, items1..4=3, item5=1; k=3 must pick 0,1,2
        Q = np.array([[5.0, 3.0, 3.0, 3.0, 3.0, 1.0]], dtype=np.float32)
        store = store_for(np.ones((1, 1)), Q)
        result = Scorer(store).top_k([0], 3)
        np.testing.assert_array_equal(result.items[0], [0, 1, 2])

    def test_identical_calls_identical_results(self):
        rng = np.random.default_rng(7)
        store = store_for(rng.normal(size=(5, 3)), rng.normal(size=(3, 9)))
        a = Scorer(store).top_k([0, 2, 4], 5)
        b = Scorer(store).top_k([0, 2, 4], 5)
        for x, y in zip(a.items, b.items):
            np.testing.assert_array_equal(x, y)


class TestFilters:
    def test_empty_candidate_list_with_exclude_returns_empty(self):
        # regression: searchsorted clamp must not index an empty cand
        store = store_for(np.ones((2, 2)), np.ones((2, 4)))
        result = Scorer(store).top_k(
            [0, 1], 3, exclude={0: [1, 2]}, candidates=[]
        )
        for items in result.items:
            assert items.size == 0

    def test_exclude_seen_via_index(self, tiny_ratings):
        seen = SeenIndex.from_ratings(tiny_ratings)
        rng = np.random.default_rng(0)
        store = store_for(
            rng.normal(size=(tiny_ratings.m, 4)),
            rng.normal(size=(4, tiny_ratings.n)),
        )
        users = np.arange(tiny_ratings.m)
        result = Scorer(store).top_k(users, tiny_ratings.n, exclude=seen)
        for user, items in zip(users, result.items):
            rated = set(seen.items_for(int(user)).tolist())
            assert rated.isdisjoint(items.tolist())
            assert items.size == tiny_ratings.n - len(rated)

    def test_seen_index_matches_ratings(self, tiny_ratings):
        seen = SeenIndex.from_ratings(tiny_ratings)
        for user in range(tiny_ratings.m):
            want = sorted(
                tiny_ratings.cols[tiny_ratings.rows == user].tolist()
            )
            assert sorted(seen.items_for(user).tolist()) == want
        assert seen.items_for(-1).size == 0
        assert seen.items_for(tiny_ratings.m).size == 0

    def test_seen_index_keeps_input_order_and_int64(self):
        """Also across a radix digit: user 65 536's low 16 bits are user 0's."""
        rng = np.random.default_rng(3)
        m = 65_537
        rows = rng.permutation(np.concatenate([rng.integers(0, 4, 40), np.full(5, m - 1)]))
        cols = rng.integers(0, 9, rows.size)
        seen = SeenIndex.from_ratings(RatingMatrix(m, 9, rows, cols, np.ones(rows.size)))
        for user in (0, 1, 2, 3, 17, m - 1):
            got = seen.items_for(user)
            assert got.dtype == np.int64
            np.testing.assert_array_equal(got, cols[rows == user])

    def test_short_list_when_k_exceeds_allowed(self):
        store = store_for(np.ones((1, 2)), np.ones((2, 3)))
        result = Scorer(store).top_k([0], 10, candidates=[2, 0])
        np.testing.assert_array_equal(result.items[0], [0, 2])

    def test_per_request_k(self):
        store = store_for(np.ones((3, 2)), np.ones((2, 5)))
        result = Scorer(store).top_k([0, 1, 2], [1, 0, 3])
        assert [len(x) for x in result.items] == [1, 0, 3]
        assert result.ks == (1, 0, 3)


class TestValidation:
    def test_user_out_of_range(self):
        store = store_for(np.ones((2, 2)), np.ones((2, 3)))
        with pytest.raises(ValueError, match="user id out of range"):
            Scorer(store).top_k([2], 1)
        with pytest.raises(ValueError, match="user id out of range"):
            Scorer(store).top_k([-1], 1)

    def test_candidate_out_of_range(self):
        store = store_for(np.ones((2, 2)), np.ones((2, 3)))
        with pytest.raises(ValueError, match="candidate item id out of range"):
            Scorer(store).top_k([0], 1, candidates=[3])

    def test_negative_k(self):
        store = store_for(np.ones((2, 2)), np.ones((2, 3)))
        with pytest.raises(ValueError, match="non-negative"):
            Scorer(store).top_k([0], -1)

    def test_bad_precision(self):
        store = store_for(np.ones((2, 2)), np.ones((2, 3)))
        with pytest.raises(ValueError, match="precision"):
            Scorer(store, precision="fp64")

    def test_empty_batch(self):
        store = store_for(np.ones((2, 2)), np.ones((2, 3)))
        result = Scorer(store).top_k([], 5)
        assert len(result) == 0
        assert result.version == 1
