"""``stable_order``: the radix pass every grouping of ids goes through.

It must return what the comparison sorts it replaced returned — the
shard bytes, the pinned ``FACTORS`` and ``HISTORY`` tables all hang on
that — at every pass count, and it checks nothing itself, so what stands
between a bad id and it is pinned here too.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.ratings import RatingMatrix, stable_order
from repro.engine.worker_proc import attached_shard


@st.composite
def ids_and_bound(draw, max_len=300):
    """Ids with heavy duplicates under a bound on either side of a digit."""
    bound = draw(st.sampled_from([1, 2, 7, 300, 65_535, 65_536, 65_537, 2**20, 2**32 + 1]))
    distinct = draw(st.integers(1, 12))
    pool = draw(st.lists(st.integers(0, bound - 1), min_size=distinct, max_size=distinct))
    picks = draw(st.lists(st.integers(0, distinct - 1), max_size=max_len))
    return np.array([pool[i] for i in picks], dtype=np.int64), bound


class TestEqualsTheComparisonSorts:
    @given(ids_and_bound())
    @settings(max_examples=200, deadline=None)
    def test_one_key_is_stable_argsort(self, drawn):
        ids, bound = drawn
        got = stable_order(ids, bound)
        np.testing.assert_array_equal(got, np.argsort(ids, kind="stable"))
        assert got.dtype == np.intp

    @given(ids_and_bound(), ids_and_bound())
    @settings(max_examples=200, deadline=None)
    def test_two_keys_compose_to_lexsort(self, major, minor):
        size = min(len(major[0]), len(minor[0]))
        (r, m), (c, n) = (major[0][:size], major[1]), (minor[0][:size], minor[1])
        np.testing.assert_array_equal(
            stable_order(r, m, stable_order(c, n)), np.lexsort((c, r))
        )

    @pytest.mark.parametrize("bound", [1, 2, 65_535, 65_536, 65_537, 2**32 + 1])
    def test_every_pass_count(self, bound):
        """Ids that differ only in their top digit, next to ids that
        share it: one pass too few merges them, one too many is harmless
        but must still be stable."""
        top = bound - 1
        ids = np.array([top, 0, top // 2, top, 0, top >> 16, top & 0xFFFF, top] * 3)
        np.testing.assert_array_equal(
            stable_order(ids, bound), np.argsort(ids, kind="stable")
        )

    def test_blockwise_composition_past_one_block(self):
        """``order[step]`` is gathered a block at a time into ``step``."""
        rng = np.random.default_rng(0)
        size = 2 * 65_536 + 17
        r, c = rng.integers(0, 70_000, size), rng.integers(0, 50, size)
        np.testing.assert_array_equal(
            stable_order(r, 70_000, stable_order(c, 50)), np.lexsort((c, r))
        )

    def test_empty(self):
        for order in (None, np.empty(0, dtype=np.intp)):
            got = stable_order(np.empty(0, dtype=np.int64), 70_000, order)
            assert got.shape == (0,) and got.dtype == np.intp

    def test_all_equal_keeps_the_order_given(self):
        ids = np.full(9, 4)
        np.testing.assert_array_equal(stable_order(ids, 5), np.arange(9))
        given_order = np.arange(9)[::-1].copy()
        for bound in (1, 5, 70_000):      # zero, one and two passes
            np.testing.assert_array_equal(
                stable_order(np.zeros(9, dtype=np.int64), bound, given_order),
                given_order,
            )

    def test_int32_ids_and_inputs_left_alone(self):
        ids = np.array([70_000, 3, 70_000, 3, 65_536, 0], dtype=np.int32)
        order = np.array([5, 4, 3, 2, 1, 0])
        keep_ids, keep_order = ids.copy(), order.copy()
        np.testing.assert_array_equal(
            stable_order(ids, 70_001, order),
            order[np.argsort(ids[order], kind="stable")],
        )
        np.testing.assert_array_equal(ids, keep_ids)
        np.testing.assert_array_equal(order, keep_order)


class TestIdsArriveChecked:
    """A digit is the id's low bits: ``bound`` itself would sort as 0
    where ``lexsort`` would have put it last.  The primitive states the
    precondition; these callers are where it is enforced."""

    @pytest.mark.parametrize("bad", [-1, 65_537])
    def test_a_rating_matrix_cannot_hold_one(self, bad):
        with pytest.raises(ValueError, match="row index out of bounds"):
            RatingMatrix(65_537, 65_537, [0, bad], [0, 1], [1.0, 2.0])
        with pytest.raises(ValueError, match="column index out of bounds"):
            RatingMatrix(65_537, 65_537, [0, 1], [0, bad], [1.0, 2.0])

    @pytest.mark.parametrize("bad", [-1, 65_537])
    def test_a_worker_refuses_a_shard_that_does(self, bad):
        good = np.array([0, 1, 2], dtype=np.int64)
        vals = np.ones(3, dtype=np.float32)
        rows = np.sort(np.array([0, 1, bad], dtype=np.int64))
        with pytest.raises(ValueError, match="shard rows"):
            attached_shard((rows, good, vals), 0, 3, 65_537, 65_537)
        with pytest.raises(ValueError, match="shard columns"):
            attached_shard((good, np.array([0, bad, 2]), vals), 0, 3, 65_537, 65_537)
