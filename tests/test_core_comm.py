"""Unit tests for the COMM module: traffic plans, backends, wires."""

import numpy as np
import pytest

from repro.core.comm import (
    COMM_P_BANDWIDTH_FACTOR,
    CommModel,
    CommPlan,
)
from repro.core.config import CommBackendKind, CommConfig, TransmitMode
from repro.core.server import ParameterServer
from repro.data.datasets import NETFLIX, YAHOO_R1
from repro.engine.channels import Channel, Fp16Channel
from repro.hardware.specs import PCIE3_X16
from repro.mf.model import MFModel


class TestCommPlan:
    def test_pq_mode_bytes(self):
        plan = CommPlan.for_dataset(
            NETFLIX, 128, CommConfig(transmit=TransmitMode.P_AND_Q)
        )
        expected = 4 * 128 * (NETFLIX.m + NETFLIX.n)
        assert plan.epoch_pull == expected
        assert plan.epoch_push == expected
        assert plan.final_push_extra == 0

    def test_q_only_bytes(self):
        plan = CommPlan.for_dataset(
            NETFLIX, 128, CommConfig(transmit=TransmitMode.Q_ONLY)
        )
        assert plan.epoch_pull == 4 * 128 * NETFLIX.n
        assert plan.final_push_extra == 4 * 128 * NETFLIX.m

    def test_fp16_halves(self):
        full = CommPlan.for_dataset(NETFLIX, 128, CommConfig())
        half = CommPlan.for_dataset(NETFLIX, 128, CommConfig(fp16=True))
        assert half.epoch_pull == full.epoch_pull // 2
        assert half.final_push_extra == full.final_push_extra // 2

    def test_q_only_reduction_matches_paper_netflix(self):
        """Strategy 1 cuts Netflix transmission by ~96.4% (m >> n)."""
        pq = CommPlan.for_dataset(NETFLIX, 128, CommConfig(transmit=TransmitMode.P_AND_Q))
        q = CommPlan.for_dataset(NETFLIX, 128, CommConfig(transmit=TransmitMode.Q_ONLY))
        reduction = 1 - q.epoch_pull / pq.epoch_pull
        assert reduction == pytest.approx(NETFLIX.m / (NETFLIX.m + NETFLIX.n), rel=1e-6)
        assert reduction > 0.96

    def test_q_only_lower_bound_half(self):
        """The proportion lower bound is 1/2, reached when m = n."""
        from repro.data.datasets import DatasetSpec

        square = DatasetSpec(name="sq", m=1000, n=1000, nnz=5000)
        pq = CommPlan.for_dataset(square, 16, CommConfig(transmit=TransmitMode.P_AND_Q))
        q = CommPlan.for_dataset(square, 16, CommConfig(transmit=TransmitMode.Q_ONLY))
        assert q.epoch_pull / pq.epoch_pull == pytest.approx(0.5)

    def test_sync_values_follow_mode(self):
        q = CommPlan.for_dataset(NETFLIX, 128, CommConfig())
        pq = CommPlan.for_dataset(NETFLIX, 128, CommConfig(transmit=TransmitMode.P_AND_Q))
        assert q.sync_values == 128 * NETFLIX.n
        assert pq.sync_values == 128 * (NETFLIX.m + NETFLIX.n)

    def test_total_bytes(self):
        plan = CommPlan.for_dataset(NETFLIX, 128, CommConfig())
        total = plan.total_bytes(epochs=20)
        assert total == 20 * (plan.epoch_pull + plan.epoch_push) + plan.final_push_extra

    def test_total_bytes_invalid(self):
        plan = CommPlan.for_dataset(NETFLIX, 128, CommConfig())
        with pytest.raises(ValueError):
            plan.total_bytes(0)

    def test_invalid_k(self):
        with pytest.raises(ValueError):
            CommPlan.for_dataset(NETFLIX, 0, CommConfig())


class TestCommModel:
    def test_comm_uses_raw_bus(self):
        model = CommModel(CommBackendKind.COMM)
        assert model.transfer_time(PCIE3_X16, 1e9) == pytest.approx(
            PCIE3_X16.transfer_time(1e9)
        )

    def test_comm_p_slowdown(self):
        fast = CommModel(CommBackendKind.COMM)
        slow = CommModel(CommBackendKind.COMM_P)
        nbytes = 500e6
        ratio = slow.transfer_time(PCIE3_X16, nbytes) / fast.transfer_time(PCIE3_X16, nbytes)
        # Table 5 measures COMM-P ~6.6-7.2x slower
        assert 6.0 < ratio < 7.5

    def test_zero_bytes_free(self):
        assert CommModel(CommBackendKind.COMM_P).transfer_time(PCIE3_X16, 0) == 0.0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            CommModel().transfer_time(PCIE3_X16, -5)

    def test_pull_push_symmetric(self):
        model = CommModel()
        plan = CommPlan.for_dataset(YAHOO_R1, 128, CommConfig())
        assert model.pull_time(PCIE3_X16, plan) == model.push_time(PCIE3_X16, plan)


def server_over(q: np.ndarray, channel) -> ParameterServer:
    """A one-worker server whose global Q is ``q``, mid-epoch."""
    model = MFModel(np.ones((3, q.shape[0]), dtype=np.float32), q)
    server = ParameterServer(model, 1, channel=channel)
    server.begin_epoch()
    return server


class TestBuffers:
    """The pull and push wires, through the server that owns them."""

    def test_pull_roundtrip_fp32(self):
        data = np.arange(24, dtype=np.float32).reshape(4, 6)
        server = server_over(data, Channel())
        np.testing.assert_array_equal(server.channel.decode(server.pull_wire), data)

    def test_pull_fp16_roundtrip_close(self):
        data = np.linspace(0.1, 2.0, 24, dtype=np.float32).reshape(4, 6)
        server = server_over(data, Fp16Channel())
        np.testing.assert_allclose(
            server.channel.decode(server.pull_wire), data, rtol=1e-3
        )

    def test_pull_fp16_half_footprint(self):
        q = np.zeros((10, 10), dtype=np.float32)
        full, half = server_over(q, Channel()), server_over(q, Fp16Channel())
        assert half.pull_wire.nbytes == full.pull_wire.nbytes // 2
        assert half.push_wires[0].nbytes == full.push_wires[0].nbytes // 2

    def test_shape_mismatch_rejected(self):
        server = server_over(np.zeros((2, 2), dtype=np.float32), Channel())
        with pytest.raises(ValueError, match="shape"):
            server.push(0, np.zeros((3, 3), dtype=np.float32))

    def test_push_consume_zero_copy_fp32(self):
        server = server_over(np.zeros((3, 3), dtype=np.float32), Channel())
        server.push(0, np.ones((3, 3), dtype=np.float32))
        # the merge reads the push wire itself: no staging copy
        np.testing.assert_array_equal(server.push_wires[0], 1.0)
        server.sync(0)
        np.testing.assert_array_equal(server.model.Q, 1.0)

    def test_push_fp16_consumed_on_the_wire(self):
        # the sync merge widens binary16 as it subtracts, so consumption
        # is zero-copy for an FP16 wire too
        server = server_over(np.zeros((2, 2), dtype=np.float32), Fp16Channel())
        server.push(0, np.full((2, 2), 0.5, dtype=np.float32))
        wire = server.push_wires[0]
        assert wire.dtype == np.float16
        np.testing.assert_array_equal(wire, np.float16(0.5))
        server.sync(0)
        np.testing.assert_array_equal(server.model.Q, 0.5)
