"""The epoch engine: partition plans, results, and backend parity.

The parity tests spawn real worker processes; sizes are kept small so
the module runs in a few seconds.
"""

import numpy as np
import pytest

from repro.core.config import CommConfig, TransmitMode
from repro.core.partition import PartitionPlan
from repro.data.datasets import NETFLIX
from repro.engine import (
    Channel,
    EngineResult,
    EpochEngine,
    ProcessBackend,
    QOnlyChannel,
    SimBackend,
    STAGES,
    StageEvent,
    channel_for,
)
from repro.experiments.platforms import workers_platform


@pytest.fixture(scope="module")
def data():
    return NETFLIX.scaled(5000).generate(seed=7)


class TestPartitionPlans:
    def test_no_plan_is_an_even_split(self, data):
        backend = SimBackend(workers_platform(3), ratings=data, k=4)
        result = EpochEngine(backend, channel=QOnlyChannel()).run(1)
        assert result.plan.fractions == pytest.approx((1 / 3, 1 / 3, 1 / 3))

    def test_the_plan_is_used_as_given(self, data):
        fixed = PartitionPlan("dp1", (0.25, 0.75))
        backend = SimBackend(workers_platform(2), ratings=data, k=4)
        result = EpochEngine(backend, channel=QOnlyChannel(), partitions=fixed).run(1)
        assert result.plan is fixed

    def test_fixed_plan_worker_count_must_match(self, data):
        backend = SimBackend(workers_platform(3), ratings=data, k=4)
        engine = EpochEngine(
            backend, channel=QOnlyChannel(),
            partitions=PartitionPlan("dp0", (0.5, 0.5)),
        )
        with pytest.raises(ValueError, match="2 fractions but the backend runs 3"):
            engine.run(1)


class TestEngineResult:
    def _result(self, trace):
        return EngineResult(
            backend="sim", channel="q-only(full)",
            plan=PartitionPlan("even", (1.0,)), epochs=2,
            stage_trace=tuple(trace), rmse_history=[1.0, 0.9],
        )

    def test_stage_sequence_and_updates(self):
        trace = [
            StageEvent(0, "pull", {"wire_bytes": 100}),
            StageEvent(0, "compute", {"updates": (40, 60)}),
            StageEvent(0, "push", {"wire_bytes": 80}),
            StageEvent(0, "sync"),
            StageEvent(1, "pull", {"wire_bytes": 100}),
            StageEvent(1, "compute", {"updates": (40, 60)}),
            StageEvent(1, "push", {"wire_bytes": 80}),
            StageEvent(1, "sync"),
        ]
        res = self._result(trace)
        assert res.stage_sequence() == [
            (e, s) for e in (0, 1) for s in STAGES
        ]
        assert res.epoch_updates() == {0: (40, 60), 1: (40, 60)}
        assert res.updates_applied == 200
        assert res.wire_bytes("pull") == 200
        assert res.wire_bytes("push") == 160

    def test_wire_bytes_only_for_transfer_stages(self):
        with pytest.raises(ValueError, match="pull and push"):
            self._result([]).wire_bytes("sync")


class TestEngineValidation:
    def test_epochs_must_be_positive(self, data):
        backend = ProcessBackend(data, k=4, n_workers=1)
        with pytest.raises(ValueError, match="epochs"):
            EpochEngine(backend, channel=QOnlyChannel()).run(0)


class TestProcessChannelGuards:
    def test_rejects_p_and_q_channel(self, data):
        engine = EpochEngine(ProcessBackend(data, k=4, n_workers=1),
                             channel=Channel())
        with pytest.raises(ValueError, match="Q-only channel"):
            engine.run(1)

    def test_rejects_q_rotate_channel(self, data):
        """The process plane gets its stack from ``channel_for``, which
        builds none for Q_ROTATE: no worker process is ever started."""
        comm = CommConfig(transmit=TransmitMode.Q_ROTATE)
        with pytest.raises(ValueError, match="timing plane only"):
            channel_for(comm, data.m, data.n)


class TestBackendParity:
    """The planes-unified gate: both backends run the same pipeline."""

    def _run(self, data, backend_kind, epochs=2):
        if backend_kind == "sim":
            backend = SimBackend(
                workers_platform(2), ratings=data, eval_data=data,
                k=8, lr=0.01, reg=0.02, batch_size=2048, seed=0,
            )
        else:
            backend = ProcessBackend(
                data, k=8, n_workers=2, lr=0.01, reg=0.02,
                batch_size=2048, seed=0,
            )
        return EpochEngine(backend, channel=QOnlyChannel()).run(epochs)

    def test_identical_stage_sequences(self, data):
        sim = self._run(data, "sim")
        proc = self._run(data, "process")
        assert sim.stage_sequence() == proc.stage_sequence()
        assert sim.stage_sequence() == [
            (e, s) for e in (0, 1) for s in STAGES
        ]

    def test_identical_update_counts(self, data):
        sim = self._run(data, "sim")
        proc = self._run(data, "process")
        assert sim.epoch_updates() == proc.epoch_updates()
        assert sim.updates_applied == data.nnz * 2

    def test_both_planes_converge(self, data):
        for kind in ("sim", "process"):
            res = self._run(data, kind, epochs=3)
            assert len(res.rmse_history) == 3
            assert res.rmse_history[-1] < res.rmse_history[0]
            assert np.all(np.isfinite(res.model.P))

    def test_result_records_the_configuration(self, data):
        res = self._run(data, "sim")
        assert res.backend == "sim"
        assert res.channel == "q-only(full)"
        assert res.plan.fractions == pytest.approx((0.5, 0.5))
