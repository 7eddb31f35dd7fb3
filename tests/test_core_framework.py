"""Unit and integration tests for the HCCMF framework."""

import numpy as np
import pytest

from repro.core.config import (
    CommConfig,
    HCCConfig,
    PartitionStrategy,
    TransmitMode,
)
from repro.core.cost_model import Regime
from repro.data.datasets import NETFLIX, YAHOO_R1
from repro.framework import HCCMF, _without_time_shared
from repro.hardware.timeline import Phase
from repro.hardware.topology import paper_workstation


@pytest.fixture
def platform():
    return paper_workstation(16)


@pytest.fixture
def numeric_run(platform, medium_ratings):
    cfg = HCCConfig(k=8, epochs=6, learning_rate=0.01, seed=1)
    hcc = HCCMF(platform, NETFLIX, cfg, ratings=medium_ratings)
    return hcc.train()


class TestTimingPlane:
    def test_train_without_ratings(self, platform):
        res = HCCMF(platform, NETFLIX, HCCConfig(k=128, epochs=20)).train()
        assert res.rmse_history == []
        assert res.model is None
        assert res.total_time > 0

    def test_total_time_composition(self, platform):
        res = HCCMF(platform, NETFLIX, HCCConfig(k=128, epochs=20)).train()
        assert res.total_time >= 20 * res.epoch_cost.total

    def test_final_p_push_included_only_for_q_only(self, platform):
        q = HCCMF(platform, NETFLIX, HCCConfig(k=128, epochs=20)).train()
        pq = HCCMF(
            platform, NETFLIX,
            HCCConfig(k=128, epochs=20,
                      comm=CommConfig(transmit=TransmitMode.P_AND_Q)),
        ).train()
        assert q.total_time > 20 * q.epoch_cost.total  # has the P epilogue
        assert pq.total_time == pytest.approx(20 * pq.epoch_cost.total)

    def test_phase_totals_structure(self, platform):
        res = HCCMF(platform, NETFLIX, HCCConfig(k=128, epochs=20)).train()
        assert len(res.phase_totals) == platform.n_workers
        for phases in res.phase_totals.values():
            assert set(phases) == {"pull", "computing", "push", "total"}
            assert phases["total"] >= phases["computing"]

    def test_power_and_utilization(self, platform):
        res = HCCMF(platform, NETFLIX, HCCConfig(k=128, epochs=20)).train()
        assert 0 < res.utilization < 1
        assert res.power == pytest.approx(
            NETFLIX.nnz * 20 / res.total_time, rel=1e-6
        )
        assert sum(res.worker_powers.values()) == pytest.approx(res.power, rel=1e-6)

    def test_timeline_has_sync_lane(self, platform):
        res = HCCMF(platform, NETFLIX, HCCConfig(k=128, epochs=3)).train()
        assert "server" in res.timeline.workers()
        assert res.timeline.phase_total(Phase.SYNC) > 0

    def test_time_axis_monotone(self, platform):
        res = HCCMF(platform, NETFLIX, HCCConfig(k=128, epochs=5)).train()
        axis = res.time_axis()
        assert len(axis) == 5
        assert all(b > a for a, b in zip(axis, axis[1:]))

    def test_time_axis_tracks_timeline_spans(self, platform):
        """The axis is derived from per-epoch span ends, not a uniform
        total/epochs smear, and Strategy 1's once-at-the-end P push
        lands on the final epoch only."""
        res = HCCMF(platform, NETFLIX, HCCConfig(k=128, epochs=3)).train()
        span_ends: dict[int, float] = {}
        for span in res.timeline.spans:
            span_ends[span.epoch] = max(span_ends.get(span.epoch, 0.0), span.end)
        axis = res.time_axis()
        assert axis[0] == pytest.approx(span_ends[0])
        assert axis[1] == pytest.approx(span_ends[1])
        epilogue = res.total_time - 3 * res.epoch_cost.total
        assert epilogue > 0  # Q-only mode has the final P push
        assert axis[2] == pytest.approx(span_ends[2] + epilogue)

    def test_time_axis_extends_beyond_rendered_window(self, platform):
        """Epochs past the timeline's rendered window continue at the
        analytic steady-state epoch cost."""
        res = HCCMF(platform, NETFLIX, HCCConfig(k=128, epochs=5)).train()
        rendered = max(span.epoch for span in res.timeline.spans)
        assert rendered == 2  # the timeline renders a 3-epoch window
        axis = res.time_axis()
        steady = res.epoch_cost.total
        assert axis[3] - axis[2] == pytest.approx(steady)
        epilogue = res.total_time - 5 * steady
        assert axis[4] - axis[3] == pytest.approx(steady + epilogue)

    def test_streams_drop_special_worker(self, platform):
        hcc = HCCMF(platform, YAHOO_R1, HCCConfig(k=128, comm=CommConfig(streams=4)))
        assert hcc.platform.n_workers == platform.n_workers - 1
        assert all(w.time_share == 1.0 for w in hcc.platform.workers)

    def test_regime_reported(self, platform):
        netflix = HCCMF(platform, NETFLIX, HCCConfig(k=128, epochs=5)).train()
        r1 = HCCMF(platform, YAHOO_R1, HCCConfig(k=128, epochs=5)).train()
        assert netflix.regime is Regime.COMPUTE_BOUND
        assert r1.regime is Regime.SYNC_BOUND

    def test_epochs_override(self, platform):
        hcc = HCCMF(platform, NETFLIX, HCCConfig(k=128, epochs=20))
        res = hcc.train(epochs=5)
        assert res.epochs == 5

    def test_invalid_epochs(self, platform):
        with pytest.raises(ValueError):
            HCCMF(platform, NETFLIX, HCCConfig(k=128)).train(epochs=0)


class TestNumericPlane:
    def test_converges(self, numeric_run):
        r = numeric_run.rmse_history
        assert len(r) == 6
        assert r[-1] < r[0]

    def test_model_returned(self, numeric_run):
        assert numeric_run.model is not None
        assert numeric_run.final_rmse == numeric_run.rmse_history[-1]

    def test_final_rmse_guard(self, platform):
        res = HCCMF(platform, NETFLIX, HCCConfig(k=128, epochs=2)).train()
        with pytest.raises(ValueError):
            res.final_rmse

    def test_deterministic(self, platform, medium_ratings):
        cfg = HCCConfig(k=8, epochs=3, learning_rate=0.01, seed=7)
        a = HCCMF(platform, NETFLIX, cfg, ratings=medium_ratings).train()
        b = HCCMF(platform, NETFLIX, cfg, ratings=medium_ratings).train()
        assert a.rmse_history == b.rmse_history

    def test_fp16_channel_still_converges(self, platform, medium_ratings):
        cfg = HCCConfig(k=8, epochs=6, learning_rate=0.01, seed=1,
                        comm=CommConfig(fp16=True))
        res = HCCMF(platform, NETFLIX, cfg, ratings=medium_ratings).train()
        assert res.rmse_history[-1] < res.rmse_history[0]

    def test_fp16_close_to_fp32(self, platform, medium_ratings):
        """Strategy 2's claim: FP16 transmission does not hurt accuracy."""
        base = HCCConfig(k=8, epochs=6, learning_rate=0.01, seed=1)
        fp32 = HCCMF(platform, NETFLIX, base, ratings=medium_ratings).train()
        fp16 = HCCMF(platform, NETFLIX, base.with_comm(fp16=True),
                     ratings=medium_ratings).train()
        assert fp16.final_rmse == pytest.approx(fp32.final_rmse, abs=0.02)

    def test_eval_data(self, platform, medium_ratings):
        train, test = medium_ratings.split(0.2, seed=0)
        cfg = HCCConfig(k=8, epochs=4, learning_rate=0.01, seed=1)
        res = HCCMF(platform, NETFLIX, cfg, ratings=train).train(eval_data=test)
        assert len(res.rmse_history) == 4

    def test_column_major_data_transposed(self, platform):
        """A wide (m < n) rating matrix must be handled via transposition."""
        from repro.data.datasets import DatasetSpec

        wide_spec = DatasetSpec(name="wide", m=120, n=3000, nnz=9000)
        wide = wide_spec.generate(seed=0)
        assert wide.m < wide.n
        cfg = HCCConfig(k=8, epochs=3, learning_rate=0.01, seed=0)
        res = HCCMF(platform, wide_spec, cfg, ratings=wide).train()
        assert res.rmse_history[-1] < res.rmse_history[0]


class TestPartitionIntegration:
    def test_plan_strategy_respected(self, platform):
        for strat, expect in [
            (PartitionStrategy.EVEN, "even"),
            (PartitionStrategy.DP0, "dp0"),
            (PartitionStrategy.DP1, "dp1"),
            (PartitionStrategy.DP2, "dp2"),
        ]:
            hcc = HCCMF(platform, NETFLIX, HCCConfig(k=128, partition=strat))
            assert hcc.prepare().strategy == expect

    def test_auto_on_netflix_is_dp1(self, platform):
        hcc = HCCMF(platform, NETFLIX, HCCConfig(k=128))
        assert hcc.prepare().strategy == "dp1"

    def test_without_time_shared_helper(self, platform):
        filtered = _without_time_shared(platform)
        assert filtered.n_workers == platform.n_workers - 1
        for w in filtered.workers:
            assert filtered.bus(w) is platform.bus(w)


class TestSimPlaneTelemetry:
    def test_telemetry_collects_spans_and_metrics(self, platform, medium_ratings):
        from repro.obs.telemetry import Telemetry

        cfg = HCCConfig(k=8, epochs=3, learning_rate=0.01, seed=1)
        tel = Telemetry()
        HCCMF(platform, NETFLIX, cfg, ratings=medium_ratings).train(telemetry=tel)
        lanes = tel.timeline.workers()
        assert "server" in lanes
        worker_lanes = [w for w in lanes if w != "server"]
        assert worker_lanes  # one lane per simulated worker
        for worker in worker_lanes:
            totals = tel.timeline.phase_totals(worker)
            assert totals[Phase.PULL] > 0
            assert totals[Phase.COMPUTE] > 0
        assert tel.timeline.phase_total(Phase.SYNC, "server") > 0
        rmse = tel.registry.gauge("epoch_rmse")
        assert rmse.value(epoch=2) > 0

    def test_telemetry_does_not_change_numerics(self, platform, medium_ratings):
        from repro.obs.telemetry import Telemetry

        cfg = HCCConfig(k=8, epochs=3, learning_rate=0.01, seed=7)
        plain = HCCMF(platform, NETFLIX, cfg, ratings=medium_ratings).train()
        traced = HCCMF(platform, NETFLIX, cfg, ratings=medium_ratings).train(
            telemetry=Telemetry()
        )
        assert traced.rmse_history == plain.rmse_history
