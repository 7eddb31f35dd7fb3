"""Integration tests for the process plane: EpochEngine over ProcessBackend.

These spawn real OS processes; sizes are kept small so the whole module
runs in a few seconds.
"""

import numpy as np
import pytest

from repro.core.partition import PartitionPlan
from repro.data.datasets import NETFLIX
from repro.engine.backends import ProcessBackend
from repro.engine.channels import QOnlyChannel
from repro.engine.pipeline import EngineResult, EpochEngine, StageEvent


@pytest.fixture(scope="module")
def data():
    return NETFLIX.scaled(6000).generate(seed=4)


def train(data, epochs, channel=None, partitions=None, telemetry=None, **backend):
    """One process-plane run: the engine call every test here drives."""
    return EpochEngine(
        ProcessBackend(data, **backend),
        channel=channel if channel is not None else QOnlyChannel(),
        partitions=partitions,
        telemetry=telemetry,
    ).run(epochs)


class TestProcessPlane:
    def test_converges_with_two_workers(self, data):
        res = train(data, 4, k=8, n_workers=2, lr=0.01, seed=0)
        assert len(res.rmse_history) == 4
        assert res.rmse_history[-1] < res.rmse_history[0]
        assert np.all(np.isfinite(res.model.P))

    def test_single_worker(self, data):
        res = train(data, 2, k=8, n_workers=1, lr=0.01, seed=0)
        assert res.rmse_history[-1] < res.rmse_history[0]

    def test_custom_fractions(self, data):
        res = train(
            data, 2, partitions=PartitionPlan("fixed", (0.3, 0.7)),
            k=8, n_workers=2, lr=0.01, seed=0,
        )
        assert res.plan.fractions == pytest.approx([0.3, 0.7])
        assert res.updates_applied == 2 * data.nnz
        assert res.elapsed_seconds > 0
        assert res.updates_per_second > 0

    def test_worker_failure_raises_cleanly(self, data):
        """Fault injection: a crashed worker must surface as a clear
        error, not a hang, and shared memory must be reclaimed (the
        next run succeeds)."""
        from repro.resilience.faults import FaultPlan

        with pytest.raises(RuntimeError, match="worker process failed"):
            train(data, 3, k=8, n_workers=2, lr=0.01, seed=0,
                  fault_plan=FaultPlan().kill(1, epoch=1))
        # recovery: a fresh run works
        res = train(data, 2, k=8, n_workers=2, lr=0.01, seed=0)
        assert len(res.rmse_history) == 2

    def test_validation(self, data):
        with pytest.raises(ValueError):
            ProcessBackend(data, n_workers=0)
        with pytest.raises(ValueError, match="backend runs 2 workers"):
            train(data, 1, partitions=PartitionPlan("fixed", (1.0,)), n_workers=2)
        with pytest.raises(ValueError):
            ProcessBackend(data, k=0)
        with pytest.raises(ValueError):
            train(data, 0)


class TestUpdatesPerSecond:
    def _result(self, elapsed: float) -> EngineResult:
        return EngineResult(
            backend="process", channel="q-only(full)", plan=None, epochs=1,
            stage_trace=(StageEvent(0, "compute", {"updates": (600, 400)}),),
            rmse_history=[1.0],
            elapsed_seconds=elapsed,
        )

    def test_normal_rate(self):
        assert self._result(2.0).updates_per_second == pytest.approx(500.0)

    def test_zero_elapsed_returns_zero_not_inf(self):
        """Regression: sub-clock-resolution runs used to report inf,
        which poisoned any mean/table built from the rate."""
        assert self._result(0.0).updates_per_second == 0.0
        assert self._result(-1e-9).updates_per_second == 0.0


class TestChannelStrategies:
    """Strategies 2/3 in the process plane: the channel stack drives
    the wire format, and the metrics registry proves the byte math."""

    @staticmethod
    def _wire_bytes(tel, name):
        return sum(s.value for s in tel.registry.samples() if s.name == name)

    def test_fp16_matches_fp32_with_half_the_wire_bytes(self, data):
        from repro.engine.channels import Fp16Channel
        from repro.obs.telemetry import Telemetry

        tel32, tel16 = Telemetry(), Telemetry()
        kw = dict(k=8, n_workers=2, lr=0.01, seed=0)
        fp32 = train(data, 3, channel=QOnlyChannel(), telemetry=tel32, **kw)
        fp16 = train(
            data, 3, channel=Fp16Channel(QOnlyChannel()), telemetry=tel16, **kw
        )
        # Strategy 2's claim: half-precision transmission, same accuracy
        assert fp16.rmse_history[-1] == pytest.approx(
            fp32.rmse_history[-1], rel=0.02
        )
        for name in ("bytes_pulled_total", "bytes_pushed_total"):
            full = self._wire_bytes(tel32, name)
            half = self._wire_bytes(tel16, name)
            assert full > 0
            assert half == pytest.approx(full / 2)

    def test_partition_plan_accepted(self, data):
        res = train(
            data, 2, partitions=PartitionPlan("dp0", (0.35, 0.65)),
            k=8, n_workers=2, lr=0.01, seed=0,
        )
        assert res.plan.fractions == pytest.approx([0.35, 0.65])
        assert res.rmse_history[-1] < res.rmse_history[0]

    def test_double_buffer_stack_runs(self, data):
        from repro.engine.channels import DoubleBufferChannel, Fp16Channel

        stack = DoubleBufferChannel(Fp16Channel(QOnlyChannel()))
        res = train(data, 2, channel=stack, k=8, n_workers=2, lr=0.01, seed=0)
        assert res.rmse_history[-1] < res.rmse_history[0]

    def test_config_selects_the_channel_stack(self, data):
        from repro.core.config import CommConfig, HCCConfig
        from repro.engine.channels import channel_for

        config = HCCConfig(comm=CommConfig(fp16=True))
        channel = channel_for(config.comm, data.m, data.n)
        assert channel.wire_dtype == "float16"
        assert channel.describe() == "fp16(q-only(full))"


class TestBarrierDiagnostics:
    """Rendezvous failures name the missing ranks, and the timeout is
    validated where it is configured."""

    def test_sync_error_names_the_missing_rank(self, data):
        from repro.engine.backends import WorkerSyncError
        from repro.resilience.faults import FaultPlan

        with pytest.raises(WorkerSyncError) as excinfo:
            train(data, 3, k=8, n_workers=2, lr=0.01, seed=0,
                  fault_plan=FaultPlan().kill(1, epoch=1))
        err = excinfo.value
        # worker-0's progress stamp races the broken barrier, so the
        # missing set may or may not include it — but the crashed rank
        # is always reported
        assert 1 in err.missing_ranks
        assert "worker-1" in str(err)
        assert err.epoch == 1

    def test_nonpositive_timeout_rejected(self, data):
        with pytest.raises(ValueError, match="barrier_timeout_s"):
            ProcessBackend(data, barrier_timeout_s=0.0)


class TestExecutorTelemetry:
    def test_disabled_telemetry_takes_zero_overhead_path(self, data, monkeypatch):
        """telemetry=None must never touch the span-ring machinery."""
        import repro.obs.spans as spans

        calls = []
        original = spans.SpanRing.create.__func__

        def tracking(cls, *args, **kwargs):
            calls.append(args)
            return original(cls, *args, **kwargs)

        monkeypatch.setattr(
            spans.SpanRing, "create", classmethod(tracking)
        )
        train(data, 2, k=8, n_workers=2, seed=0)
        assert calls == []

    def test_instrumented_run_matches_uninstrumented_numerics(self, data):
        """Telemetry must observe, not perturb: same seed, same RMSE."""
        from repro.obs.telemetry import Telemetry

        plain = train(data, 2, k=8, n_workers=2, seed=0)
        tel = Telemetry()
        traced = train(data, 2, telemetry=tel, k=8, n_workers=2, seed=0)
        assert traced.rmse_history == pytest.approx(plain.rmse_history)
        assert len(tel.timeline) > 0
