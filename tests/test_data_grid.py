"""Unit tests for row/column grid partitioning."""

import numpy as np
import pytest

from repro.data.grid import (
    GridKind,
    block_sort,
    choose_grid,
    coverage_check,
    partition_entries,
    partition_rows,
    row_sorted_shards,
)
from repro.data.ratings import RatingMatrix


class TestChooseGrid:
    def test_row_when_tall(self):
        assert choose_grid(100, 10) is GridKind.ROW

    def test_column_when_wide(self):
        assert choose_grid(10, 100) is GridKind.COLUMN

    def test_row_on_square(self):
        assert choose_grid(10, 10) is GridKind.ROW


class TestPartitionRows:
    def test_covers_all_entries_once(self, small_ratings):
        parts = partition_rows(small_ratings, [0.25, 0.25, 0.5])
        assert coverage_check(small_ratings, parts)

    def test_fraction_targets_respected(self, medium_ratings):
        fr = [0.1, 0.2, 0.3, 0.4]
        parts = partition_rows(medium_ratings, fr)
        for f, p in zip(fr, parts):
            assert p.nnz == pytest.approx(f * medium_ratings.nnz, rel=0.1)

    def test_contiguous_disjoint_ranges(self, small_ratings):
        parts = partition_rows(small_ratings, [0.5, 0.5])
        assert parts[0].lo == 0
        assert parts[0].hi == parts[1].lo
        assert parts[1].hi == small_ratings.m

    def test_rows_stay_in_range(self, small_ratings):
        for p in partition_rows(small_ratings, [0.3, 0.7]):
            sub = p.extract(small_ratings)
            if sub.nnz:
                assert sub.rows.min() >= p.lo
                assert sub.rows.max() < p.hi

    def test_column_grid(self, small_ratings):
        parts = partition_rows(small_ratings, [0.5, 0.5], GridKind.COLUMN)
        assert coverage_check(small_ratings, parts)
        for p in parts:
            sub = p.extract(small_ratings)
            if sub.nnz:
                assert sub.cols.min() >= p.lo
                assert sub.cols.max() < p.hi

    def test_single_worker_gets_all(self, small_ratings):
        parts = partition_rows(small_ratings, [1.0])
        assert parts[0].nnz == small_ratings.nnz

    def test_unnormalized_fractions_ok(self, small_ratings):
        a = partition_rows(small_ratings, [1, 1])
        b = partition_rows(small_ratings, [0.5, 0.5])
        assert a[0].nnz == b[0].nnz

    def test_zero_fraction_worker(self, small_ratings):
        parts = partition_rows(small_ratings, [0.0, 1.0])
        assert parts[0].nnz == 0
        assert parts[1].nnz == small_ratings.nnz
        assert coverage_check(small_ratings, parts)

    def test_negative_fraction_rejected(self, small_ratings):
        with pytest.raises(ValueError, match="non-negative"):
            partition_rows(small_ratings, [-0.1, 1.1])

    def test_empty_fractions_rejected(self, small_ratings):
        with pytest.raises(ValueError, match="at least one"):
            partition_rows(small_ratings, [])

    def test_more_workers_than_rows(self, tiny_ratings):
        parts = partition_rows(tiny_ratings, [1 / 8] * 8)
        assert coverage_check(tiny_ratings, parts)

    def test_exclusive_rows_across_workers(self, medium_ratings):
        """Row-grid exclusivity: no user row is shared between workers —
        the property "transmit Q only" relies on."""
        parts = partition_rows(medium_ratings, [0.3, 0.3, 0.4])
        row_sets = []
        for p in parts:
            sub = p.extract(medium_ratings)
            row_sets.append(set(np.unique(sub.rows).tolist()))
        assert not (row_sets[0] & row_sets[1])
        assert not (row_sets[0] & row_sets[2])
        assert not (row_sets[1] & row_sets[2])


class TestPartitionEntries:
    def test_covers_all(self, small_ratings):
        parts = partition_entries(small_ratings, [0.5, 0.5])
        assert coverage_check(small_ratings, parts)

    def test_exact_fraction_split(self, small_ratings):
        parts = partition_entries(small_ratings, [0.25, 0.75])
        assert parts[0].nnz == pytest.approx(small_ratings.nnz * 0.25, abs=1)

    def test_may_share_rows(self, medium_ratings):
        """The crude split shares rows across workers (why the server
        must synchronize against WAW races)."""
        data = medium_ratings.shuffle(0)
        parts = partition_entries(data, [0.5, 0.5])
        rows0 = set(np.unique(data.rows[parts[0].entries]).tolist())
        rows1 = set(np.unique(data.rows[parts[1].entries]).tolist())
        assert rows0 & rows1

    def test_bad_fractions(self, small_ratings):
        with pytest.raises(ValueError):
            partition_entries(small_ratings, [0.0, 0.0])


class TestBlockSort:
    def test_sorted_by_row(self, small_ratings):
        parts = partition_rows(small_ratings, [0.6, 0.4])
        sub = block_sort(small_ratings, parts[0])
        keys = sub.rows * sub.n + sub.cols
        assert np.all(np.diff(keys) >= 0)

    def test_preserves_content(self, small_ratings):
        parts = partition_rows(small_ratings, [0.6, 0.4])
        sub = block_sort(small_ratings, parts[1])
        raw = parts[1].extract(small_ratings)
        np.testing.assert_array_equal(np.sort(sub.vals), np.sort(raw.vals))

    def test_column_grid_sorts_by_col(self, small_ratings):
        parts = partition_rows(small_ratings, [1.0], GridKind.COLUMN)
        sub = block_sort(small_ratings, parts[0])
        keys = sub.cols * sub.m + sub.rows
        assert np.all(np.diff(keys) >= 0)


class TestRowSortedShards:
    """One sort gives what ``partition_rows`` -> ``extract`` ->
    ``sort_by_row`` gives shard by shard."""

    FRACTIONS = [[1.0], [0.5, 0.5], [0.7, 0.1, 0.2], [0.0, 1.0], [1e-9, 0.5, 0.5]]

    @staticmethod
    def reference(ratings, fractions):
        parts = partition_rows(ratings, fractions, GridKind.ROW)
        return parts, [block_sort(ratings, a) for a in parts]

    @pytest.mark.parametrize("fractions", FRACTIONS)
    def test_equals_the_per_shard_path(self, medium_ratings, fractions):
        data = medium_ratings.shuffle(5)
        parts, shards = self.reference(data, fractions)
        store, offsets, p_rows = row_sorted_shards(data, fractions)
        assert offsets.tolist() == np.cumsum([0] + [a.nnz for a in parts]).tolist()
        assert p_rows == [(a.lo, a.hi) for a in parts]
        for want, lo, hi in zip(shards, offsets, offsets[1:]):
            np.testing.assert_array_equal(store.rows[lo:hi], want.rows)
            np.testing.assert_array_equal(store.cols[lo:hi], want.cols)
            np.testing.assert_array_equal(store.vals[lo:hi], want.vals)
        assert (store.m, store.n) == (data.m, data.n)

    def test_ties_keep_the_order_they_came_in(self):
        """Two ratings of one cell stay in input order: the sort is stable."""
        data = RatingMatrix(4, 3, [2, 0, 2, 2, 0], [1, 2, 1, 0, 2], [5, 1, 4, 3, 2])
        store, offsets, p_rows = row_sorted_shards(data, [0.4, 0.6])
        assert store.rows.tolist() == [0, 0, 2, 2, 2]
        assert store.cols.tolist() == [2, 2, 0, 1, 1]
        assert store.vals.tolist() == [1, 2, 3, 5, 4]
        assert offsets.tolist() == [0, 2, 5] and p_rows == [(0, 1), (1, 4)]

    def test_ties_across_a_radix_digit(self):
        """The same five ratings with row 2 moved to 65 536, whose low 16
        bits are row 0's: one radix pass too few would merge the rows."""
        top = 65_536
        data = RatingMatrix(top + 1, 3, [top, 0, top, top, 0], [1, 2, 1, 0, 2], [5, 1, 4, 3, 2])
        store, offsets, p_rows = row_sorted_shards(data, [0.4, 0.6])
        assert store.rows.tolist() == [0, 0, top, top, top]
        assert store.cols.tolist() == [2, 2, 0, 1, 1]
        assert store.vals.tolist() == [1, 2, 3, 5, 4]
        assert offsets.tolist() == [0, 2, 5] and p_rows == [(0, 1), (1, top + 1)]
        parts = partition_rows(data, [0.4, 0.6])
        assert [a.entries.tolist() for a in parts] == [[1, 4], [0, 2, 3]]

    def test_out_may_be_the_input_itself(self, medium_ratings):
        """The process plane's call: sorted in place over longer arrays."""
        data = medium_ratings.shuffle(5)
        want, want_offsets, want_rows = row_sorted_shards(data, [0.3, 0.7])
        out = [
            np.concatenate([column, column[:3]])
            for column in (data.rows, data.cols, data.vals)
        ]
        tails = [column[-3:].copy() for column in out]
        in_place = RatingMatrix(data.m, data.n, *(a[: data.nnz] for a in out))
        store, offsets, p_rows = row_sorted_shards(in_place, [0.3, 0.7], out=out)
        assert offsets.tolist() == want_offsets.tolist() and p_rows == want_rows
        for got, ref, dest, tail in zip(
            (store.rows, store.cols, store.vals),
            (want.rows, want.cols, want.vals), out, tails,
        ):
            np.testing.assert_array_equal(got, ref)
            assert np.shares_memory(got, dest)
            np.testing.assert_array_equal(dest[-3:], tail)    # beyond nnz: untouched

    def test_no_ratings(self):
        empty = RatingMatrix(5, 4, [], [], [])
        store, offsets, p_rows = row_sorted_shards(empty, [0.5, 0.5])
        assert store.nnz == 0 and offsets.tolist() == [0, 0, 0]
        assert p_rows[0][0] == 0 and p_rows[-1][1] == 5


class TestCoverageCheck:
    def test_detects_missing(self, small_ratings):
        parts = partition_rows(small_ratings, [0.5, 0.5])
        broken = [parts[0]]
        assert not coverage_check(small_ratings, broken)

    def test_detects_duplicates(self, small_ratings):
        parts = partition_rows(small_ratings, [0.5, 0.5])
        assert not coverage_check(small_ratings, [parts[0], parts[0], parts[1]])
