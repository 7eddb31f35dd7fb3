"""Unit tests for the channel middlewares (repro.engine.channels)."""

import numpy as np
import pytest

from repro.core.comm import CommPlan, WireTraffic
from repro.core.config import CommConfig, TransmitMode
from repro.data.datasets import NETFLIX
from repro.engine.channels import (
    Q_ROTATE_IS_PRICED_NOT_TRAINED,
    Channel,
    DoubleBufferChannel,
    Fp16Channel,
    QOnlyChannel,
    channel_for,
)

M, N, K = 120, 40, 8


class TestWireTraffic:
    def test_rejects_negative_values(self):
        with pytest.raises(ValueError, match="non-negative"):
            WireTraffic(-1, 0, 0, 0)

    def test_frozen(self):
        t = WireTraffic(1, 2, 3, 4)
        with pytest.raises(AttributeError):
            t.pull_values = 9


    def test_auto_must_be_resolved_first(self):
        with pytest.raises(ValueError, match="not a resolved"):
            WireTraffic.of(TransmitMode.AUTO, M, N, K)


class TestTrafficAccounting:
    def test_base_channel_moves_both_matrices(self):
        t = WireTraffic.of(TransmitMode.P_AND_Q, M, N, K)
        assert t.pull_values == t.push_values == K * (M + N)
        assert t.final_push_values == 0
        assert t.sync_values == K * (M + N)

    def test_q_only_strategy1(self):
        t = WireTraffic.of(TransmitMode.Q_ONLY, M, N, K)
        assert t.pull_values == t.push_values == K * N
        assert t.final_push_values == K * M  # P, once after training
        assert t.sync_values == K * N

    def test_q_rotate_has_no_server_sync(self):
        t = WireTraffic.of(TransmitMode.Q_ROTATE, M, N, K)
        assert t.pull_values == t.push_values == K * N
        assert t.sync_values == 0
        assert t.final_push_values == K * (M + N)

    def test_fp16_halves_bytes_not_values(self):
        fp32 = CommPlan.for_dataset(NETFLIX, K, CommConfig())
        fp16 = CommPlan.for_dataset(NETFLIX, K, CommConfig(fp16=True))
        assert fp16.sync_values == fp32.sync_values
        assert fp16.epoch_pull == fp32.epoch_pull // 2
        assert fp16.epoch_push == fp32.epoch_push // 2
        assert fp16.final_push_extra == fp32.final_push_extra // 2


class TestWireFormat:
    def test_base_is_fp32(self):
        assert Channel().wire_dtype == "float32"

    def test_fp16_wrapper_changes_wire_dtype_only(self):
        ch = Fp16Channel(QOnlyChannel())
        assert ch.wire_dtype == "float16"
        assert not ch.transmits_p  # payload selection still delegates inward

    def test_fp32_codec_roundtrip_exact(self):
        ch = QOnlyChannel()
        values = np.random.default_rng(0).standard_normal((N, K)).astype(np.float32)
        wire = np.zeros_like(values, dtype=ch.wire_dtype)
        ch.encode(values, wire)
        out = ch.decode(wire)
        np.testing.assert_array_equal(out, values)
        assert out.dtype == np.float32
        assert out is not wire  # decode is the receiver's own copy

    def test_fp16_codec_roundtrip_within_half_precision(self):
        ch = Fp16Channel(QOnlyChannel())
        values = np.random.default_rng(1).standard_normal((N, K)).astype(np.float32)
        wire = np.zeros(values.shape, dtype=ch.wire_dtype)
        ch.encode(values, wire)
        out = ch.decode(wire)
        assert out.dtype == np.float32
        np.testing.assert_allclose(out, values, rtol=2e-3, atol=1e-4)


class TestStacking:
    def test_describe_reads_outermost_first(self):
        stack = DoubleBufferChannel(Fp16Channel(QOnlyChannel()))
        assert stack.describe() == "double-buffer(fp16(q-only(full)))"

    def test_channels_are_picklable(self):
        import pickle

        stack = DoubleBufferChannel(Fp16Channel(QOnlyChannel()))
        clone = pickle.loads(pickle.dumps(stack))
        assert clone.describe() == stack.describe()
        assert clone.wire_dtype == stack.wire_dtype


class TestChannelFor:
    def test_q_only_default(self):
        ch = channel_for(CommConfig(), NETFLIX.m, NETFLIX.n)
        assert ch.describe() == "q-only(full)"

    def test_full_stack(self):
        comm = CommConfig(transmit=TransmitMode.Q_ONLY, fp16=True, streams=2)
        ch = channel_for(comm, NETFLIX.m, NETFLIX.n)
        assert ch.describe() == "double-buffer(fp16(q-only(full)))"
        assert ch.wire_dtype == "float16" and not ch.transmits_p

    def test_q_rotate_is_refused(self):
        """Q_ROTATE has no pull/push/sync stages to drive: no stack is
        built for it, on either plane."""
        comm = CommConfig(transmit=TransmitMode.Q_ROTATE)
        with pytest.raises(ValueError) as err:
            channel_for(comm, NETFLIX.m, NETFLIX.n)
        assert str(err.value) == Q_ROTATE_IS_PRICED_NOT_TRAINED

    def test_pq_mode_is_bare_channel(self):
        ch = channel_for(CommConfig(transmit=TransmitMode.P_AND_Q), NETFLIX.m, NETFLIX.n)
        assert ch.transmits_p
        assert ch.describe() == "full"

    def test_equal_configs_produce_equal_stacks(self):
        a = channel_for(CommConfig(fp16=True), NETFLIX.m, NETFLIX.n)
        b = channel_for(CommConfig(fp16=True), NETFLIX.m, NETFLIX.n)
        assert a.describe() == b.describe()


class TestCommPlanBridge:
    """CommPlan.for_dataset prices the traffic table in bytes."""

    @pytest.mark.parametrize("transmit", [TransmitMode.P_AND_Q,
                                          TransmitMode.Q_ONLY,
                                          TransmitMode.Q_ROTATE])
    @pytest.mark.parametrize("fp16", [False, True])
    def test_bytes_match_closed_form(self, transmit, fp16):
        k = 16
        comm = CommConfig(transmit=transmit, fp16=fp16)
        plan = CommPlan.for_dataset(NETFLIX, k, comm)
        big, small = max(NETFLIX.m, NETFLIX.n), min(NETFLIX.m, NETFLIX.n)
        size = 2 if fp16 else 4
        if transmit is TransmitMode.P_AND_Q:
            assert plan.epoch_pull == k * (big + small) * size
            assert plan.final_push_extra == 0
        else:
            assert plan.epoch_pull == k * small * size
        if transmit is TransmitMode.Q_ONLY:
            assert plan.final_push_extra == k * big * size
            assert plan.sync_values == k * small
        if transmit is TransmitMode.Q_ROTATE:
            assert plan.sync_values == 0
