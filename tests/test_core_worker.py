"""Unit tests for WorkerRuntime (the per-worker numeric executor)."""

import numpy as np
import pytest

from repro.core.worker import WorkerRuntime
from repro.data.grid import partition_rows
from repro.hardware.processor import Processor
from repro.hardware.specs import RTX_2080, XEON_6242
from repro.mf.kernels import ConflictPolicy
from repro.mf.model import MFModel


@pytest.fixture
def setup(small_ratings):
    data = small_ratings.shuffle(0)
    assignments = partition_rows(data, [0.5, 0.5])
    model = MFModel.init_for(data, 8, seed=0)
    return data, assignments, model


class TestPolicySelection:
    def test_cpu_gets_atomic(self, setup):
        data, assignments, _ = setup
        rt = WorkerRuntime(0, Processor(XEON_6242), assignments[0], data)
        assert rt.policy is ConflictPolicy.ATOMIC

    def test_gpu_gets_last_write(self, setup):
        data, assignments, _ = setup
        rt = WorkerRuntime(0, Processor(RTX_2080), assignments[0], data)
        assert rt.policy is ConflictPolicy.LAST_WRITE


class TestRunEpoch:
    def test_updates_exclusive_p_rows_in_place(self, setup):
        data, assignments, model = setup
        rt = WorkerRuntime(0, Processor(XEON_6242), assignments[0], data, seed=1)
        p_before = model.P.copy()
        q = model.Q.copy()
        rt.run_epoch(model.P, q, lr=0.01, reg=0.01)
        own_rows = np.unique(data.rows[assignments[0].entries])
        other = np.setdiff1d(np.arange(data.m), own_rows)
        # exclusive rows changed in place...
        assert not np.allclose(model.P[own_rows], p_before[own_rows])
        # ...but nobody else's rows were touched
        np.testing.assert_array_equal(model.P[other], p_before[other])

    def test_returns_updated_q(self, setup):
        data, assignments, model = setup
        rt = WorkerRuntime(0, Processor(XEON_6242), assignments[0], data, seed=1)
        q = model.Q.copy()
        q_new, mse = rt.run_epoch(model.P, q, lr=0.01, reg=0.01)
        assert mse > 0
        assert not np.allclose(q_new, model.Q)

    def test_sample_order_is_the_permuted_shard_in_batches(self, setup):
        """Per-batch indexing trains the batches ``take(order)`` would give."""
        from repro.mf.kernels import sgd_batch_update

        data, assignments, model = setup
        rt = WorkerRuntime(0, Processor(XEON_6242), assignments[0], data,
                           batch_size=512, seed=1)
        want = model.copy()
        shuffled = rt.data.take(np.random.default_rng(1).permutation(rt.nnz))
        for rows, cols, vals in shuffled.batches(512):
            sgd_batch_update(want, rows, cols, vals, 0.01, 0.01, rt.policy)
        q_new, _ = rt.run_epoch(model.P, model.Q.copy(), lr=0.01, reg=0.01)
        np.testing.assert_array_equal(q_new.view(np.uint32), want.Q.view(np.uint32))
        np.testing.assert_array_equal(model.P.view(np.uint32), want.P.view(np.uint32))

    def test_reduces_local_loss(self, setup):
        data, assignments, model = setup
        rt = WorkerRuntime(0, Processor(XEON_6242), assignments[0], data, seed=1)
        local = rt.data
        before = model.rmse(local)
        q = model.Q.copy()
        for _ in range(3):
            q, _ = rt.run_epoch(model.P, q, lr=0.01, reg=0.01)
        after = MFModel(model.P, q).rmse(local)
        assert after < before

    def test_counts_updates(self, setup):
        data, assignments, model = setup
        rt = WorkerRuntime(0, Processor(XEON_6242), assignments[0], data)
        rt.run_epoch(model.P, model.Q.copy(), 0.01, 0.01)
        assert rt.updates_applied == rt.nnz

    def test_empty_assignment(self, setup):
        data, _, model = setup
        empty = partition_rows(data, [0.0, 1.0])[0]
        rt = WorkerRuntime(0, Processor(XEON_6242), empty, data)
        q = model.Q.copy()
        q_out, mse = rt.run_epoch(model.P, q, 0.01, 0.01)
        assert mse == 0.0
        np.testing.assert_array_equal(q_out, q)

    def test_dtype_enforced(self, setup):
        data, assignments, model = setup
        rt = WorkerRuntime(0, Processor(XEON_6242), assignments[0], data)
        with pytest.raises(TypeError, match="float32"):
            rt.run_epoch(model.P.astype(np.float64), model.Q.copy(), 0.01, 0.01)

    def test_a_shard_handed_over_is_trained_on_as_given(self, setup):
        """No assignment: ``ratings`` is the worker's row-sorted shard
        already (SimBackend's view of its store) and is not copied."""
        data, assignments, _ = setup
        shard = assignments[0].extract(data).sort_by_row()
        rt = WorkerRuntime(0, Processor(XEON_6242), None, shard)
        assert rt.data is shard and rt.nnz == shard.nnz

    def test_data_block_sorted(self, setup):
        data, assignments, _ = setup
        rt = WorkerRuntime(0, Processor(RTX_2080), assignments[0], data)
        keys = rt.data.rows * rt.data.n + rt.data.cols
        assert np.all(np.diff(keys) >= 0)
