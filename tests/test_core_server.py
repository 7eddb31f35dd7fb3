"""Unit tests for the parameter server's sync semantics."""

import numpy as np
import pytest

from repro.core.server import ParameterServer
from repro.engine.channels import Channel, DoubleBufferChannel, Fp16Channel
from repro.mf.model import MFModel


@pytest.fixture
def server():
    model = MFModel.init(6, 8, 4, seed=0)
    return ParameterServer(model, n_workers=2, channel=Channel())


def push_then_sync(server, worker_id, q_local, weight):
    server.push(worker_id, q_local)
    server.sync(worker_id, weight)


class TestLifecycle:
    def test_pull_requires_epoch(self, server):
        with pytest.raises(RuntimeError, match="begin_epoch"):
            server.pull_wire

    def test_push_requires_epoch(self, server):
        with pytest.raises(RuntimeError, match="begin_epoch"):
            server.push(0, server.model.Q.copy())
        with pytest.raises(RuntimeError, match="begin_epoch"):
            server.sync(0, 0.5)

    def test_begin_epoch_publishes_snapshot(self, server):
        server.begin_epoch()
        pulled = server.channel.decode(server.pull_wire)
        np.testing.assert_array_equal(pulled, server.model.Q)

    def test_epoch_counter(self, server):
        server.begin_epoch()
        server.begin_epoch()
        assert server.epochs_started == 2

    def test_epochs_rotate_over_the_pull_wires(self):
        model = MFModel.init(6, 8, 4, seed=0)
        server = ParameterServer(model, 1, channel=DoubleBufferChannel())
        assert len(server.pull_wires) == 2
        seen = []
        for _ in range(3):
            server.begin_epoch()
            seen.append(server.pull_wire)
            np.testing.assert_array_equal(server.pull_wire, model.Q)
            model.Q += 1.0
        assert seen[0] is server.pull_wires[0] is seen[2]
        assert seen[1] is server.pull_wires[1]

    def test_serves_the_wires_it_is_given(self):
        model = MFModel.init(6, 8, 4, seed=0)
        pull, push = np.zeros((4, 8), np.float32), np.zeros((4, 8), np.float32)
        server = ParameterServer(model, 1, channel=Channel(), wires=([pull], [push]))
        server.begin_epoch()
        np.testing.assert_array_equal(pull, model.Q)
        server.push(0, model.Q + 1.0)
        np.testing.assert_array_equal(push, model.Q + 1.0)


class TestSync:
    def test_weighted_delta_merge(self, server):
        server.begin_epoch()
        base = server.model.Q.copy()
        delta = np.ones_like(base)
        push_then_sync(server, 0, base + delta, weight=0.25)
        np.testing.assert_allclose(server.model.Q, base + 0.25, rtol=1e-6)

    def test_two_workers_merge_additively(self, server):
        server.begin_epoch()
        base = server.model.Q.copy()
        push_then_sync(server, 0, base + 1.0, weight=0.5)
        push_then_sync(server, 1, base + 3.0, weight=0.5)
        # deltas are both measured against the epoch base
        np.testing.assert_allclose(server.model.Q, base + 0.5 + 1.5, rtol=1e-5)

    def test_unchanged_push_is_noop(self, server):
        server.begin_epoch()
        base = server.model.Q.copy()
        push_then_sync(server, 0, base.copy(), weight=1.0)
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

    def test_weight_bounds(self, server):
        server.begin_epoch()
        with pytest.raises(ValueError):
            push_then_sync(server, 0, server.model.Q.copy(), 1.5)

    def test_worker_id_bounds(self, server):
        server.begin_epoch()
        with pytest.raises(IndexError):
            push_then_sync(server, 5, server.model.Q.copy(), 0.5)

    def test_fp16_channel_roundtrip(self):
        model = MFModel.init(4, 4, 2, seed=1)
        server = ParameterServer(model, n_workers=1, channel=Fp16Channel())
        server.begin_epoch()
        pulled = server.channel.decode(server.pull_wire)
        # FP16 wire: small relative error against the true Q
        np.testing.assert_allclose(pulled, model.Q, rtol=1e-3)
        push_then_sync(server, 0, pulled + 0.5, weight=1.0)
        np.testing.assert_allclose(model.Q, pulled + 0.5, rtol=2e-3, atol=2e-3)

    def test_needs_workers(self):
        with pytest.raises(ValueError):
            ParameterServer(MFModel.init(2, 2, 2), n_workers=0, channel=Channel())

    def test_q_base_guard(self):
        """The merge base is *this* epoch's pull wire, not the other one
        of the rotation, which still holds the epoch before."""
        model = MFModel.init(6, 8, 4, seed=0)
        server = ParameterServer(model, 1, channel=DoubleBufferChannel())
        with pytest.raises(RuntimeError, match="begin_epoch"):
            server.pull_wire
        server.begin_epoch()
        model.Q += 1.0      # epoch 2 starts from another Q than wire 0 holds
        server.begin_epoch()
        base = model.Q.copy()
        np.testing.assert_array_equal(server.pull_wire, base)
        push_then_sync(server, 0, base + 0.5, weight=1.0)
        np.testing.assert_array_equal(model.Q, base + 0.5)
