"""Unit tests for the parameter server's sync semantics."""

import numpy as np
import pytest

from repro.core.server import ParameterServer, column_set
from repro.engine.channels import Channel, DoubleBufferChannel, Fp16Channel
from repro.mf.model import MFModel


@pytest.fixture
def server():
    model = MFModel.init(6, 8, 4, seed=0)
    return ParameterServer(model, n_workers=2, channel=Channel())


def push_then_sync(server, worker_id, q_local):
    server.push(worker_id, q_local)
    server.sync(worker_id)


class TestLifecycle:
    def test_pull_requires_epoch(self, server):
        with pytest.raises(RuntimeError, match="begin_epoch"):
            server.pull_wire

    def test_push_requires_epoch(self, server):
        with pytest.raises(RuntimeError, match="begin_epoch"):
            server.push(0, server.model.Q.copy())
        with pytest.raises(RuntimeError, match="begin_epoch"):
            server.sync(0)

    def test_begin_epoch_publishes_snapshot(self, server):
        server.begin_epoch()
        pulled = server.channel.decode(server.pull_wire)
        np.testing.assert_array_equal(pulled, server.model.Q)

    def test_epoch_counter(self, server):
        server.begin_epoch()
        server.begin_epoch()
        assert server.epochs_started == 2

    def test_every_epoch_encodes_into_the_same_wire(self):
        """Strategy 3 included: the wire is rewritten only after the
        epoch before has merged, so one is all an epoch needs."""
        model = MFModel.init(6, 8, 4, seed=0)
        server = ParameterServer(model, 1, channel=DoubleBufferChannel())
        seen = []
        for _ in range(3):
            server.begin_epoch()
            seen.append(server.pull_wire)
            np.testing.assert_array_equal(server.pull_wire, model.Q)
            model.Q += 1.0
        assert seen[0] is seen[1] is seen[2]

    def test_serves_the_wires_it_is_given(self):
        model = MFModel.init(6, 8, 4, seed=0)
        pull, push = np.zeros((4, 8), np.float32), np.zeros((4, 8), np.float32)
        server = ParameterServer(model, 1, channel=Channel(), wires=(pull, [push]))
        server.begin_epoch()
        np.testing.assert_array_equal(pull, model.Q)
        server.push(0, model.Q + 1.0)
        np.testing.assert_array_equal(push, model.Q + 1.0)


class TestSync:
    def test_two_workers_merge_additively(self, server):
        server.begin_epoch()
        base = server.model.Q.copy()
        push_then_sync(server, 0, base + 1.0)
        push_then_sync(server, 1, base + 3.0)
        # deltas are both measured against the epoch base, and both apply
        np.testing.assert_allclose(server.model.Q, base + 1.0 + 3.0, rtol=1e-5)

    def test_unchanged_push_is_noop(self, server):
        server.begin_epoch()
        base = server.model.Q.copy()
        push_then_sync(server, 0, base.copy())
        np.testing.assert_allclose(server.model.Q, base, atol=1e-6)

    def test_every_push_is_scanned_before_any_merge(self, server):
        server.begin_epoch()
        base = server.model.Q.copy()
        server.push(0, base + 1.0)
        server.push(1, base + 1.0)
        assert server.first_bad_push() is None
        server.push_wires[1][2, 3] = np.nan
        assert server.first_bad_push() == 1
        np.testing.assert_array_equal(server.model.Q, base)

    def test_worker_id_bounds(self, server):
        server.begin_epoch()
        with pytest.raises(IndexError):
            push_then_sync(server, 5, server.model.Q.copy())

    def test_fp16_channel_roundtrip(self):
        model = MFModel.init(4, 4, 2, seed=1)
        server = ParameterServer(model, n_workers=1, channel=Fp16Channel())
        server.begin_epoch()
        pulled = server.channel.decode(server.pull_wire)
        # FP16 wire: small relative error against the true Q
        np.testing.assert_allclose(pulled, model.Q, rtol=1e-3)
        push_then_sync(server, 0, pulled + 0.5)
        np.testing.assert_allclose(model.Q, pulled + 0.5, rtol=2e-3, atol=2e-3)

    def test_needs_workers(self):
        with pytest.raises(ValueError):
            ParameterServer(MFModel.init(2, 2, 2), n_workers=0, channel=Channel())

    def test_q_base_guard(self):
        """The merge base is *this* epoch's encode of Q, not the one
        the epoch before left on the wire."""
        model = MFModel.init(6, 8, 4, seed=0)
        server = ParameterServer(model, 1, channel=DoubleBufferChannel())
        with pytest.raises(RuntimeError, match="begin_epoch"):
            server.pull_wire
        server.begin_epoch()
        model.Q += 1.0      # epoch 2 starts from another Q than epoch 1 encoded
        server.begin_epoch()
        base = model.Q.copy()
        np.testing.assert_array_equal(server.pull_wire, base)
        push_then_sync(server, 0, base + 0.5)
        np.testing.assert_array_equal(model.Q, base + 0.5)


class TestColumnSets:
    """A worker whose shard rates few columns moves only those."""

    COLS = np.array([1, 4, 6])

    @pytest.fixture
    def sparse(self):
        """Worker 0 carries columns 1, 4, 6 over a shared-size wire;
        worker 1 carries everything."""
        model = MFModel.init(6, 8, 4, seed=0)
        pull, push0, push1 = (np.zeros((4, 8), np.float32) for _ in range(3))
        wires = (pull, [push0, push1])
        server = ParameterServer(
            model, 2, channel=Channel(), wires=wires, columns=[self.COLS, None]
        )
        server.begin_epoch()
        return server

    def test_column_set_is_the_sorted_rated_ids_or_all(self):
        np.testing.assert_array_equal(column_set(np.array([6, 1, 6, 4]), 8), self.COLS)
        assert column_set(np.array([0, 1, 2, 3, 4]), 8) is None     # more than half
        assert column_set(np.array([0, 1, 2, 3]), 8) is not None    # exactly half
        assert column_set(np.array([], dtype=np.int64), 8).size == 0

    def test_push_lands_packed_in_the_front_of_the_wire(self, sparse):
        q_local = np.arange(12, dtype=np.float32).reshape(4, 3)
        sparse.push(0, q_local)
        np.testing.assert_array_equal(sparse.push_wires[0].reshape(-1)[:12], q_local.reshape(-1))
        np.testing.assert_array_equal(sparse.pushed(0), q_local)
        with pytest.raises(ValueError, match="shape mismatch"):
            sparse.push(0, sparse.model.Q)

    def test_sync_adds_the_delta_into_its_columns_only(self, sparse):
        base = sparse.model.Q.copy()
        sparse.push(0, base[:, self.COLS] + 2.0)
        sparse.sync(0)
        want = base.copy()
        want[:, self.COLS] += 2.0
        np.testing.assert_allclose(sparse.model.Q, want, rtol=1e-6)
        others = np.setdiff1d(np.arange(8), self.COLS)
        np.testing.assert_array_equal(sparse.model.Q[:, others], base[:, others])

    def test_scan_reads_the_prefix_and_not_the_tail(self, sparse):
        sparse.push(0, sparse.model.Q[:, self.COLS])
        sparse.push(1, sparse.model.Q)
        sparse.push_wires[0].reshape(-1)[12:] = np.nan     # never written, never read
        assert sparse.first_bad_push() is None
        sparse.pushed(0)[3, 2] = np.inf
        assert sparse.first_bad_push() == 0

    def test_private_push_wires_are_sized_by_the_column_set(self):
        model = MFModel.init(6, 8, 4, seed=0)
        empty = np.array([], dtype=np.int64)
        server = ParameterServer(
            model, 3, channel=Fp16Channel(), columns=[self.COLS, None, empty]
        )
        assert [w.shape for w in server.push_wires] == [(4, 3), (4, 8), (4, 0)]
        server.begin_epoch()
        base = model.Q.copy()
        # a worker with no ratings: empty view, no-op scan and merge
        server.push(2, np.empty((4, 0), np.float32))
        server.push(0, server.channel.decode(server.pull_wire)[:, self.COLS])
        server.push(1, server.channel.decode(server.pull_wire))
        assert server.first_bad_push() is None
        for wid in range(3):
            server.sync(wid)
        np.testing.assert_array_equal(model.Q, base)

    def test_needs_one_column_set_per_worker(self):
        with pytest.raises(ValueError, match="per worker"):
            ParameterServer(MFModel.init(2, 2, 2), 2, channel=Channel(), columns=[None])
