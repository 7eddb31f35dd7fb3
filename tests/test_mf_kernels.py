"""Unit tests for the vectorized SGD kernels and conflict policies."""

import numpy as np
import pytest

from repro.data.ratings import RatingMatrix
from repro.mf.kernels import (
    ConflictPolicy,
    conflict_stats,
    sgd_batch_update,
    sgd_epoch,
    sgd_epoch_serial,
    updates_per_epoch,
)
from repro.mf.loss import per_entry_errors, regularized_loss, rmse
from repro.mf.model import MFModel


def _single_sample_reference(P, Q, r, c, val, lr, reg):
    """The textbook SGD update for one sample (paper Figure 1)."""
    p = P[r].copy()
    q = Q[:, c].copy()
    err = val - p @ q
    P[r] = p + lr * (err * q - reg * p)
    Q[:, c] = q + lr * (err * p - reg * q)
    return err


class TestSingleSample:
    @pytest.mark.parametrize("policy", list(ConflictPolicy))
    def test_matches_reference_update(self, policy):
        """With one sample there are no conflicts: every policy must apply
        the exact Figure 1 update."""
        model = MFModel.init(4, 4, 3, seed=0)
        ref_p, ref_q = model.P.copy(), model.Q.copy()
        err = _single_sample_reference(ref_p, ref_q, 1, 2, 4.5, 0.01, 0.05)
        mse = sgd_batch_update(
            model, np.array([1]), np.array([2]), np.array([4.5], dtype=np.float32),
            lr=0.01, reg=0.05, policy=policy,
        )
        np.testing.assert_allclose(model.P, ref_p, rtol=1e-5)
        np.testing.assert_allclose(model.Q, ref_q, rtol=1e-5)
        assert mse == pytest.approx(err * err, rel=1e-4)

    def test_untouched_rows_unchanged(self):
        model = MFModel.init(5, 5, 3, seed=0)
        before = model.P.copy()
        sgd_batch_update(
            model, np.array([2]), np.array([3]), np.array([1.0], dtype=np.float32),
            lr=0.01, reg=0.0,
        )
        np.testing.assert_array_equal(model.P[0], before[0])
        np.testing.assert_array_equal(model.P[4], before[4])

    def test_empty_batch(self):
        model = MFModel.init(3, 3, 2, seed=0)
        before = model.P.copy()
        mse = sgd_batch_update(
            model, np.array([], dtype=np.int64), np.array([], dtype=np.int64),
            np.array([], dtype=np.float32), lr=0.01, reg=0.0,
        )
        assert mse == 0.0
        np.testing.assert_array_equal(model.P, before)


class TestConflictPolicies:
    def test_last_write_loses_updates(self):
        """Two samples on the same column: LAST_WRITE keeps only one
        update — the lost-update semantics of the paper's async streams."""
        model = MFModel(
            np.ones((2, 2), dtype=np.float32), np.ones((2, 2), dtype=np.float32)
        )
        snapshot = model.copy()
        rows = np.array([0, 1])
        cols = np.array([0, 0])  # same item column
        vals = np.array([5.0, 1.0], dtype=np.float32)
        sgd_batch_update(model, rows, cols, vals, lr=0.1, reg=0.0,
                         policy=ConflictPolicy.LAST_WRITE)
        # the surviving q update must equal applying ONLY the second sample's
        # gradient to the stale snapshot
        p1, q0 = snapshot.P[1], snapshot.Q[:, 0]
        err1 = 1.0 - p1 @ q0
        expected_q = q0 + 0.1 * err1 * p1
        np.testing.assert_allclose(model.Q[:, 0], expected_q, rtol=1e-5)

    def test_atomic_averages_duplicates(self):
        """ATOMIC accumulates a mean of duplicate-index gradients, so a
        batch of identical samples equals a single-sample update."""
        m1 = MFModel.init(2, 2, 2, seed=1)
        m2 = m1.copy()
        rows = np.array([0, 0, 0, 0])
        cols = np.array([1, 1, 1, 1])
        vals = np.full(4, 4.0, dtype=np.float32)
        sgd_batch_update(m1, rows, cols, vals, 0.05, 0.0, ConflictPolicy.ATOMIC)
        sgd_batch_update(m2, rows[:1], cols[:1], vals[:1], 0.05, 0.0, ConflictPolicy.ATOMIC)
        np.testing.assert_allclose(m1.P, m2.P, rtol=1e-5)
        np.testing.assert_allclose(m1.Q, m2.Q, rtol=1e-5)

    def test_atomic_no_divergence_with_many_duplicates(self):
        """The step-size amplification bug: many duplicates in one batch
        must NOT blow up the parameters (regression test)."""
        model = MFModel.init(50, 3, 4, seed=0)  # only 3 items: heavy conflicts
        rng = np.random.default_rng(0)
        data = RatingMatrix(
            50, 3,
            rng.integers(0, 50, 3000),
            rng.integers(0, 3, 3000),
            rng.uniform(1, 5, 3000).astype(np.float32),
        )
        for _ in range(5):
            sgd_epoch(model, data, lr=0.05, reg=0.01, batch_size=1024, rng=rng)
        assert np.all(np.isfinite(model.P))
        assert np.all(np.isfinite(model.Q))
        assert np.abs(model.Q).max() < 100



def _scatter_add_before_radix(target, idx, updates):
    """``_scatter_add`` as it stood before ``stable_order``, verbatim."""
    if len(idx) == 0:
        return
    order = np.argsort(idx, kind="stable")
    sorted_idx = idx[order]
    starts = np.concatenate(([0], np.flatnonzero(np.diff(sorted_idx)) + 1))
    sums = np.add.reduceat(updates[order], starts, axis=0)
    target[sorted_idx[starts]] += sums


def _atomic_update_before_radix(model, rows, cols, vals, lr, reg):
    """``sgd_batch_update``'s ATOMIC branch as it stood before
    ``stable_order``, verbatim: two ``bincount`` passes over the factors'
    lengths, a float64 quotient, a comparison sort and a ``reduceat``
    over every group.  The reference the kernel must match bit for bit."""
    P, Q = model.P, model.Q
    p = P[rows]
    q = Q[:, cols].T
    err = (vals - np.einsum("ij,ij->i", p, q)).astype(np.float32, copy=False)
    dp = lr * (err[:, None] * q - reg * p)
    dq = lr * (err[:, None] * p - reg * q)
    row_counts = np.bincount(rows, minlength=P.shape[0])[rows]
    col_counts = np.bincount(cols, minlength=Q.shape[1])[cols]
    _scatter_add_before_radix(P, rows, (dp / row_counts[:, None]).astype(np.float32, copy=False))
    _scatter_add_before_radix(Q.T, cols, (dq / col_counts[:, None]).astype(np.float32, copy=False))
    return float(np.mean(np.square(err, dtype=np.float64))) if len(err) else 0.0


def _bits(a):
    return np.ascontiguousarray(a).view(np.uint32)


def _zipf_ids(rng, bound, size):
    return np.minimum(rng.zipf(1.2, size) - 1, bound - 1).astype(np.int64)


class TestAtomicBitIdentity:
    """Grouping by radix, float32 counts and the singleton bypass change
    how the ATOMIC step is computed, not one bit of what it computes."""

    M, N, K = 70_000, 900, 8       # row ids need two radix passes, columns one

    BATCHES = {
        "uniform": lambda rng, b: (rng.integers(0, 70_000, b), rng.integers(0, 900, b)),
        "zipf": lambda rng, b: (_zipf_ids(rng, 70_000, b), _zipf_ids(rng, 900, b)),
        "all_singletons": lambda rng, b: (
            rng.permutation(70_000)[:b], rng.permutation(900)[:b]
        ),
        "one_id": lambda rng, b: (np.full(b, 65_536), np.full(b, 7)),
    }

    @pytest.mark.parametrize("lr", [0.01, np.float64(0.01)], ids=["float", "np.float64"])
    @pytest.mark.parametrize("b", [0, 1, 600])
    @pytest.mark.parametrize("kind", list(BATCHES))
    def test_three_steps_match_the_old_branch(self, kind, b, lr):
        rng = np.random.default_rng(11)
        got, want = (MFModel.init(self.M, self.N, self.K, seed=2) for _ in range(2))
        for _ in range(3):
            rows, cols = self.BATCHES[kind](rng, b)
            vals = rng.uniform(1.0, 5.0, b).astype(np.float32)
            mse = sgd_batch_update(got, rows, cols, vals, lr, 0.02)
            assert mse == _atomic_update_before_radix(want, rows, cols, vals, lr, 0.02)
        np.testing.assert_array_equal(_bits(got.P), _bits(want.P))
        np.testing.assert_array_equal(_bits(got.Q), _bits(want.Q))

    def test_a_thousand_duplicates_of_one_column(self):
        """Counts far from a power of two, so the quotient is rounded."""
        rng = np.random.default_rng(5)
        got, want = (MFModel.init(300, 40, 16, seed=4) for _ in range(2))
        rows = rng.integers(0, 300, 4096)
        cols = np.where(rng.random(4096) < 0.26, 3, rng.integers(0, 40, 4096))
        assert np.bincount(cols)[3] > 1_000
        vals = rng.uniform(1.0, 5.0, 4096).astype(np.float32)
        sgd_batch_update(got, rows, cols, vals, 0.005, 0.01)
        _atomic_update_before_radix(want, rows, cols, vals, 0.005, 0.01)
        np.testing.assert_array_equal(_bits(got.P), _bits(want.P))
        np.testing.assert_array_equal(_bits(got.Q), _bits(want.Q))


class TestEpoch:
    def test_epoch_reduces_loss(self, small_ratings):
        model = MFModel.init_for(small_ratings, 8, seed=0)
        before = model.rmse(small_ratings)
        rng = np.random.default_rng(0)
        sgd_epoch(model, small_ratings, lr=0.01, reg=0.01, rng=rng)
        assert model.rmse(small_ratings) < before

    def test_epoch_returns_mean_sq_error(self, small_ratings):
        model = MFModel.init_for(small_ratings, 8, seed=0)
        mse = sgd_epoch(model, small_ratings, lr=0.01, reg=0.01)
        assert mse == pytest.approx(model.rmse(small_ratings) ** 2, rel=0.5)

    def test_epoch_empty_data(self):
        model = MFModel.init(3, 3, 2)
        assert sgd_epoch(model, RatingMatrix(3, 3, [], [], []), 0.01, 0.01) == 0.0

    def test_serial_epoch_matches_batchsize_one(self, tiny_ratings):
        """Vectorized epoch with batch_size=1 in storage order equals the
        serial reference exactly."""
        m1 = MFModel.init_for(tiny_ratings, 4, seed=2)
        m2 = m1.copy()
        sgd_epoch_serial(m1, tiny_ratings, lr=0.02, reg=0.01)
        sgd_epoch(m2, tiny_ratings, lr=0.02, reg=0.01, batch_size=1, rng=None)
        np.testing.assert_allclose(m1.P, m2.P, rtol=1e-4, atol=1e-6)
        np.testing.assert_allclose(m1.Q, m2.Q, rtol=1e-4, atol=1e-6)

    def test_updates_per_epoch(self, tiny_ratings):
        assert updates_per_epoch(tiny_ratings) == tiny_ratings.nnz


class TestConflictStats:
    def test_no_conflicts(self):
        s = conflict_stats(np.array([0, 1, 2]), np.array([0, 1, 2]))
        assert s.row_conflicts == 0
        assert s.col_conflicts == 0
        assert s.conflict_fraction == 0.0

    def test_all_same(self):
        s = conflict_stats(np.array([1, 1, 1]), np.array([2, 2, 2]))
        assert s.row_conflicts == 3
        assert s.col_conflicts == 3
        assert s.conflict_fraction == 1.0

    def test_mixed(self):
        s = conflict_stats(np.array([0, 0, 1]), np.array([0, 1, 2]))
        assert s.row_conflicts == 2
        assert s.col_conflicts == 0

    def test_empty_batch(self):
        none = np.array([], dtype=np.int64)
        s = conflict_stats(none, none)
        assert (s.size, s.row_conflicts, s.col_conflicts) == (0, 0, 0)
        assert s.conflict_fraction == 0.0


class TestLoss:
    def test_rmse_wrapper(self, tiny_ratings):
        model = MFModel.init_for(tiny_ratings, 4, seed=0)
        assert rmse(model, tiny_ratings) == pytest.approx(model.rmse(tiny_ratings))

    def test_regularized_loss_positive_and_grows_with_reg(self, tiny_ratings):
        model = MFModel.init_for(tiny_ratings, 4, seed=0)
        l0 = regularized_loss(model, tiny_ratings, reg_p=0.0)
        l1 = regularized_loss(model, tiny_ratings, reg_p=1.0)
        assert 0 <= l0 < l1

    def test_reg_split(self, tiny_ratings):
        model = MFModel.init_for(tiny_ratings, 4, seed=0)
        both = regularized_loss(model, tiny_ratings, reg_p=0.5, reg_q=0.5)
        assert both == pytest.approx(
            regularized_loss(model, tiny_ratings, reg_p=0.5, reg_q=0.0)
            + 0.5 * float(np.sum(np.square(model.Q, dtype=np.float64))),
            rel=1e-6,
        )

    def test_per_entry_errors(self, tiny_ratings):
        model = MFModel.init_for(tiny_ratings, 4, seed=0)
        errs = per_entry_errors(model, tiny_ratings)
        assert len(errs) == tiny_ratings.nnz
        assert np.sqrt(np.mean(errs**2)) == pytest.approx(model.rmse(tiny_ratings), rel=1e-5)
