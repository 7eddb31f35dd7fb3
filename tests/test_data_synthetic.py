"""Unit tests for synthetic dataset generation."""

import numpy as np
import pytest

from repro.data.ratings import RatingMatrix, flat_keys
from repro.data.synthetic import (
    SyntheticConfig,
    extend_uniform,
    generate_low_rank,
    sample_sparsity_pattern,
)


class TestConfig:
    def test_valid(self):
        cfg = SyntheticConfig(m=10, n=8, nnz=30)
        assert cfg.rank == 8

    def test_nnz_over_capacity(self):
        with pytest.raises(ValueError, match="capacity"):
            SyntheticConfig(m=3, n=3, nnz=10)

    def test_bad_rating_range(self):
        with pytest.raises(ValueError, match="rating_max"):
            SyntheticConfig(m=3, n=3, nnz=5, rating_min=5, rating_max=1)

    def test_nonpositive_rank(self):
        with pytest.raises(ValueError, match="rank"):
            SyntheticConfig(m=3, n=3, nnz=5, rank=0)


class TestSparsityPattern:
    def test_exact_count_and_unique(self, rng):
        rows, cols = sample_sparsity_pattern(50, 40, 300, rng)
        assert len(rows) == len(cols) == 300
        keys = rows * 40 + cols
        assert len(np.unique(keys)) == 300

    def test_bounds(self, rng):
        rows, cols = sample_sparsity_pattern(20, 30, 100, rng, row_skew=1.0, col_skew=1.0)
        assert rows.min() >= 0 and rows.max() < 20
        assert cols.min() >= 0 and cols.max() < 30

    def test_dense_regime(self, rng):
        rows, cols = sample_sparsity_pattern(5, 5, 24, rng)
        keys = rows * 5 + cols
        assert len(np.unique(keys)) == 24

    def test_full_matrix(self, rng):
        rows, cols = sample_sparsity_pattern(4, 4, 16, rng)
        assert len(rows) == 16

    def test_over_capacity(self, rng):
        with pytest.raises(ValueError):
            sample_sparsity_pattern(3, 3, 10, rng)

    def test_skew_concentrates_traffic(self, rng):
        _, cols_flat = sample_sparsity_pattern(300, 300, 3000, rng, col_skew=0.0)
        _, cols_skew = sample_sparsity_pattern(300, 300, 3000, rng, col_skew=1.2)
        top_flat = np.sort(np.bincount(cols_flat, minlength=300))[-10:].sum()
        top_skew = np.sort(np.bincount(cols_skew, minlength=300))[-10:].sum()
        assert top_skew > top_flat


class TestLowRankGeneration:
    def test_shape_and_scale(self):
        cfg = SyntheticConfig(m=60, n=50, nnz=400, rating_min=1, rating_max=5)
        r = generate_low_rank(cfg, seed=0)
        assert r.shape == (60, 50)
        assert r.nnz == 400
        assert r.vals.min() >= 1.0
        assert r.vals.max() <= 5.0

    def test_quantization(self):
        cfg = SyntheticConfig(m=40, n=40, nnz=200, rating_step=0.5)
        r = generate_low_rank(cfg, seed=1)
        steps = (r.vals / 0.5) - np.round(r.vals / 0.5)
        np.testing.assert_allclose(steps, 0.0, atol=1e-5)

    def test_no_quantization(self):
        cfg = SyntheticConfig(m=40, n=40, nnz=300, rating_step=0.0)
        r = generate_low_rank(cfg, seed=1)
        frac = r.vals - np.round(r.vals)
        assert np.any(np.abs(frac) > 1e-4)

    def test_deterministic(self):
        cfg = SyntheticConfig(m=30, n=30, nnz=150)
        a = generate_low_rank(cfg, seed=7)
        b = generate_low_rank(cfg, seed=7)
        np.testing.assert_array_equal(a.vals, b.vals)
        np.testing.assert_array_equal(a.rows, b.rows)

    def test_seed_changes_data(self):
        cfg = SyntheticConfig(m=30, n=30, nnz=150)
        a = generate_low_rank(cfg, seed=7)
        b = generate_low_rank(cfg, seed=8)
        assert not np.array_equal(a.rows, b.rows)

    def test_low_rank_structure_learnable(self):
        """The generated data should be approximable by low-rank factors:
        the best rank-r SVD of the dense completion explains most of the
        observed variance."""
        cfg = SyntheticConfig(m=40, n=30, nnz=900, rank=4, noise=0.02)
        r = generate_low_rank(cfg, seed=3)
        dense = r.to_dense()
        u, s, vt = np.linalg.svd(dense, full_matrices=False)
        energy = (s[:6] ** 2).sum() / (s**2).sum()
        assert energy > 0.85


class TestExtendUniform:
    def test_grows_to_target(self, tiny_ratings):
        out = extend_uniform(tiny_ratings, 20, seed=0)
        assert out.nnz == 20
        assert out.shape == tiny_ratings.shape

    def test_keeps_existing_entries(self, tiny_ratings):
        out = extend_uniform(tiny_ratings, 20, seed=0)
        old = set(zip(tiny_ratings.rows.tolist(), tiny_ratings.cols.tolist()))
        new = set(zip(out.rows.tolist(), out.cols.tolist()))
        assert old <= new

    def test_no_duplicates(self, tiny_ratings):
        out = extend_uniform(tiny_ratings, 25, seed=1)
        keys = out.rows * out.n + out.cols
        assert len(np.unique(keys)) == out.nnz

    def test_cell_keys_past_int32(self):
        """60 k x 60 k is 3.6e9 cells.  The base holds cells the extension
        draws first (same seed, same first batch), all with keys past
        2**31: keys computed in int32 wrap, miss them, and add them twice."""
        m = n = 60_000
        need, seed = 2_000, 3
        draw = np.random.default_rng(seed)
        batch = int(need * 1.5) + 16
        r, c = draw.integers(0, m, batch), draw.integers(0, n, batch)
        late = r * n + c > 2**31
        base = RatingMatrix(m, n, r[late][:300], c[late][:300], np.ones(300))
        out = extend_uniform(base, base.nnz + need, seed=seed)
        keys = flat_keys(out.rows, out.cols, n)
        assert len(np.unique(keys)) == out.nnz == base.nnz + need
        np.testing.assert_array_equal(out.rows[: base.nnz], base.rows)
        np.testing.assert_array_equal(out.cols[: base.nnz], base.cols)

    def test_noop_at_current_size(self, tiny_ratings):
        assert extend_uniform(tiny_ratings, tiny_ratings.nnz) is tiny_ratings

    def test_shrink_rejected(self, tiny_ratings):
        with pytest.raises(ValueError, match="smaller"):
            extend_uniform(tiny_ratings, 5)

    def test_new_values_within_observed_range(self, tiny_ratings):
        out = extend_uniform(tiny_ratings, 24, seed=2)
        assert out.vals.min() >= tiny_ratings.vals.min() - 1e-6
        assert out.vals.max() <= tiny_ratings.vals.max() + 1e-6
