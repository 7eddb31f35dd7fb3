"""Unit tests for the RatingMatrix container."""

import numpy as np
import pytest

from repro.data.ratings import RatingMatrix


class TestConstruction:
    def test_basic(self):
        r = RatingMatrix(3, 4, [0, 1, 2], [1, 2, 3], [1.0, 2.0, 3.0])
        assert r.shape == (3, 4)
        assert r.nnz == 3

    def test_dtypes_normalized(self):
        r = RatingMatrix(3, 4, [0, 1], [1, 2], [1, 2])
        assert r.rows.dtype == np.int64
        assert r.cols.dtype == np.int64
        assert r.vals.dtype == np.float32

    def test_empty_entries_allowed(self):
        r = RatingMatrix(3, 4, [], [], [])
        assert r.nnz == 0
        assert r.mean_rating() == 0.0

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="equal length"):
            RatingMatrix(3, 4, [0, 1], [1], [1.0, 2.0])

    def test_row_out_of_bounds_rejected(self):
        with pytest.raises(ValueError, match="row index"):
            RatingMatrix(3, 4, [3], [0], [1.0])

    def test_col_out_of_bounds_rejected(self):
        with pytest.raises(ValueError, match="column index"):
            RatingMatrix(3, 4, [0], [4], [1.0])

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError, match="row index"):
            RatingMatrix(3, 4, [-1], [0], [1.0])

    def test_nan_value_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            RatingMatrix(3, 4, [0], [0], [float("nan")])

    def test_nonpositive_dims_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            RatingMatrix(0, 4, [], [], [])

    def test_2d_index_array_rejected(self):
        with pytest.raises(ValueError, match="1-D"):
            RatingMatrix(3, 4, [[0], [1]], [1, 2], [1.0, 2.0])


class TestProperties:
    def test_density(self, tiny_ratings):
        assert tiny_ratings.density == pytest.approx(15 / 30)

    def test_dims_and_reuse(self, tiny_ratings):
        assert tiny_ratings.dims == 11
        assert tiny_ratings.reuse_ratio == pytest.approx(15 / 11)

    def test_row_counts(self, tiny_ratings):
        counts = tiny_ratings.row_counts()
        assert counts.sum() == tiny_ratings.nnz
        assert len(counts) == tiny_ratings.m
        assert counts[0] == 3  # row 0 has entries at cols 0, 2, 4

    def test_col_counts(self, tiny_ratings):
        counts = tiny_ratings.col_counts()
        assert counts.sum() == tiny_ratings.nnz
        assert counts[0] == 4  # col 0: rows 0, 1, 3, 4

    def test_mean_rating(self, tiny_ratings):
        assert tiny_ratings.mean_rating() == pytest.approx(
            float(tiny_ratings.vals.mean())
        )

    def test_nbytes_counts_all_arrays(self, tiny_ratings):
        expected = 15 * (8 + 8 + 4)
        assert tiny_ratings.nbytes() == expected


class TestConverters:
    def test_dense_roundtrip(self, tiny_ratings):
        dense = tiny_ratings.to_dense()
        back = RatingMatrix.from_dense(dense)
        assert back.nnz == tiny_ratings.nnz
        np.testing.assert_array_equal(back.to_dense(), dense)

    def test_from_dense_2d_required(self):
        with pytest.raises(ValueError, match="2-D"):
            RatingMatrix.from_dense(np.ones(3))

    def test_transpose_swaps(self, tiny_ratings):
        t = tiny_ratings.transpose()
        assert t.shape == (tiny_ratings.n, tiny_ratings.m)
        np.testing.assert_array_equal(t.to_dense(), tiny_ratings.to_dense().T)


class TestTransforms:
    def test_shuffle_preserves_multiset(self, tiny_ratings):
        s = tiny_ratings.shuffle(seed=1)
        assert s.nnz == tiny_ratings.nnz
        np.testing.assert_array_equal(s.to_dense(), tiny_ratings.to_dense())

    def test_shuffle_changes_order(self, small_ratings):
        s = small_ratings.shuffle(seed=1)
        assert not np.array_equal(s.rows, small_ratings.rows)

    def test_shuffle_deterministic(self, small_ratings):
        a = small_ratings.shuffle(seed=9)
        b = small_ratings.shuffle(seed=9)
        np.testing.assert_array_equal(a.rows, b.rows)
        np.testing.assert_array_equal(a.vals, b.vals)

    def test_sort_by_row(self, small_ratings):
        s = small_ratings.shuffle(0).sort_by_row()
        keys = s.rows * s.n + s.cols
        assert np.all(np.diff(keys) >= 0)

    def test_sort_by_col(self, small_ratings):
        s = small_ratings.shuffle(0).sort_by_col()
        keys = s.cols * s.m + s.rows
        assert np.all(np.diff(keys) >= 0)

    def test_select_rows(self, tiny_ratings):
        sub = tiny_ratings.select_rows(1, 4)
        assert sub.m == tiny_ratings.m  # indices preserved, not re-based
        assert np.all((sub.rows >= 1) & (sub.rows < 4))
        assert sub.nnz == 8

    def test_select_rows_empty_range(self, tiny_ratings):
        sub = tiny_ratings.select_rows(2, 2)
        assert sub.nnz == 0

    def test_select_rows_bad_range(self, tiny_ratings):
        with pytest.raises(ValueError, match="invalid row range"):
            tiny_ratings.select_rows(4, 2)

    def test_take_subset(self, tiny_ratings):
        sub = tiny_ratings.take(np.array([0, 2, 4]))
        assert sub.nnz == 3
        assert sub.shape == tiny_ratings.shape

    def test_split_partitions_entries(self, small_ratings):
        train, test = small_ratings.split(test_fraction=0.2, seed=0)
        assert train.nnz + test.nnz == small_ratings.nnz
        assert test.nnz == pytest.approx(0.2 * small_ratings.nnz, rel=0.05)

    def test_split_disjoint(self, tiny_ratings):
        train, test = tiny_ratings.split(test_fraction=0.25, seed=1)
        train_keys = set(zip(train.rows.tolist(), train.cols.tolist()))
        test_keys = set(zip(test.rows.tolist(), test.cols.tolist()))
        assert not train_keys & test_keys

    def test_split_invalid_fraction(self, tiny_ratings):
        with pytest.raises(ValueError):
            tiny_ratings.split(test_fraction=1.0)

    def test_batches_cover_everything(self, tiny_ratings):
        seen = 0
        for rows, cols, vals in tiny_ratings.batches(5):
            assert len(rows) == len(cols) == len(vals)
            assert len(rows) <= 5
            seen += len(rows)
        assert seen == tiny_ratings.nnz

    def test_batches_bad_size(self, tiny_ratings):
        with pytest.raises(ValueError):
            list(tiny_ratings.batches(0))
