"""Unit tests for configuration types."""

import pytest

from repro.core.config import (
    CommBackendKind,
    CommConfig,
    HCCConfig,
    PartitionStrategy,
    TransmitMode,
)


class TestCommConfig:
    def test_defaults(self):
        c = CommConfig()
        assert c.transmit is TransmitMode.AUTO
        assert not c.fp16
        assert c.streams == 1
        assert c.backend is CommBackendKind.COMM
        assert not c.uses_async

    def test_streams_flag(self):
        assert CommConfig(streams=4).uses_async

    def test_invalid_streams(self):
        with pytest.raises(ValueError):
            CommConfig(streams=0)

    def test_auto_resolves_to_q_only(self):
        c = CommConfig()
        assert c.resolve_transmit(100, 10) is TransmitMode.Q_ONLY
        assert c.resolve_transmit(10, 100) is TransmitMode.Q_ONLY

    def test_explicit_mode_passthrough(self):
        c = CommConfig(transmit=TransmitMode.P_AND_Q)
        assert c.resolve_transmit(100, 10) is TransmitMode.P_AND_Q


class TestHCCConfig:
    def test_defaults_match_paper(self):
        c = HCCConfig()
        assert c.k == 128
        assert c.lambda_threshold == 10.0  # the paper's lambda
        assert c.partition is PartitionStrategy.AUTO

    def test_validation(self):
        with pytest.raises(ValueError):
            HCCConfig(k=0)
        with pytest.raises(ValueError):
            HCCConfig(epochs=0)
        with pytest.raises(ValueError):
            HCCConfig(lambda_threshold=0)
        with pytest.raises(ValueError):
            HCCConfig(batch_size=0)

    def test_with_comm_helper(self):
        c = HCCConfig().with_comm(fp16=True, streams=2)
        assert c.comm.fp16
        assert c.comm.streams == 2
        assert c.k == 128  # rest untouched

    def test_frozen(self):
        c = HCCConfig()
        with pytest.raises(AttributeError):
            c.k = 64

    def test_strategy_enum_values(self):
        assert PartitionStrategy("dp0") is PartitionStrategy.DP0
        assert PartitionStrategy("dp1") is PartitionStrategy.DP1
        assert PartitionStrategy("dp2") is PartitionStrategy.DP2
        assert PartitionStrategy("even") is PartitionStrategy.EVEN
        assert PartitionStrategy("auto") is PartitionStrategy.AUTO
