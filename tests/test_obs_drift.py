"""Unit tests for the cost-model drift report."""

import math

import pytest

from repro.hardware.timeline import Phase, Timeline
from repro.obs.drift import (
    DriftReport,
    DriftRow,
    HostRunInfo,
    compare,
    host_predictions,
    measured_phase_means,
    predictions_from_epoch_cost,
)


@pytest.fixture
def timeline():
    tl = Timeline()
    # two epochs: pull 0.1s/epoch, compute 0.5s/epoch
    for e in range(2):
        base = e * 1.0
        tl.add("worker-0", Phase.PULL, base, base + 0.1, epoch=e)
        tl.add("worker-0", Phase.COMPUTE, base + 0.1, base + 0.6, epoch=e)
        tl.add("worker-0", Phase.BARRIER, base + 0.6, base + 0.7, epoch=e)
        tl.add("server", Phase.SYNC, base + 0.7, base + 0.8, epoch=e)
    return tl


class TestMeasuredPhaseMeans:
    def test_means_are_per_epoch(self, timeline):
        means = measured_phase_means(timeline, epochs=2)
        mean, count = means[("worker-0", "pull")]
        assert mean == pytest.approx(0.1)
        assert count == 2

    def test_epochs_must_be_positive(self, timeline):
        with pytest.raises(ValueError):
            measured_phase_means(timeline, epochs=0)


class TestCompare:
    def test_joins_measured_and_predicted(self, timeline):
        report = compare(
            timeline,
            {("worker-0", "pull"): 0.08, ("worker-0", "computing"): 0.5},
            epochs=2,
        )
        pull = report.row("worker-0", "pull")
        assert pull.measured == pytest.approx(0.1)
        assert pull.rel_error == pytest.approx(0.25)
        assert report.row("worker-0", "computing").rel_error == pytest.approx(0.0)

    def test_barrier_and_eval_excluded(self, timeline):
        report = compare(timeline, {}, epochs=2)
        phases = {r.phase for r in report.rows}
        assert "barrier" not in phases
        assert phases <= {"pull", "computing", "push", "sync"}

    def test_unpredicted_phase_has_nan_rel_error(self, timeline):
        report = compare(timeline, {}, epochs=2)
        assert math.isnan(report.row("server", "sync").rel_error)

    def test_predicted_but_unmeasured_phase_kept(self, timeline):
        report = compare(timeline, {("worker-9", "push"): 0.5}, epochs=2)
        row = report.row("worker-9", "push")
        assert row.measured == 0.0
        assert row.spans == 0

    def test_worst_abs_rel_error(self, timeline):
        report = compare(
            timeline,
            {("worker-0", "pull"): 0.05, ("worker-0", "computing"): 0.5},
            epochs=2,
        )
        assert report.worst_abs_rel_error == pytest.approx(1.0)

    def test_render_and_to_dict(self, timeline):
        report = compare(timeline, {("worker-0", "pull"): 0.1}, epochs=2)
        text = report.render()
        assert "cost-model drift report" in text
        assert "worker-0" in text
        payload = report.to_dict()
        assert payload["epochs"] == 2
        assert any(r["phase"] == "pull" for r in payload["rows"])

    def test_missing_row_raises(self, timeline):
        report = compare(timeline, {}, epochs=2)
        with pytest.raises(KeyError):
            report.row("nobody", "pull")


class TestHostPredictions:
    @pytest.fixture
    def host(self):
        return HostRunInfo(
            worker_names=("worker-0", "worker-1"),
            shard_nnz=(1000, 3000),
            shard_columns=(50, 50),
            k=16,
            m=100,
            n=50,
            epochs=2,
        )

    def test_eq2_eq3_shapes(self, host):
        preds = host_predictions(host, bandwidth_gbs=10.0, updates_per_second=1e6)
        q_bytes = 4 * 16 * 50
        copy_s = q_bytes / 10e9
        assert preds[("worker-0", "pull")] == pytest.approx(copy_s)
        assert preds[("worker-0", "push")] == pytest.approx(copy_s)
        # compute scales with shard nnz (Eq. 2)
        assert preds[("worker-1", "computing")] == pytest.approx(3000 / 1e6)
        # sync: three memory ops per worker (Eq. 3)
        assert preds[("server", "sync")] == pytest.approx(3 * q_bytes * 2 / 10e9)

    def test_wire_is_priced_by_each_workers_column_count(self, host):
        """A shard that rates 10 of the 50 columns moves a fifth of Q."""
        import dataclasses

        sparse = dataclasses.replace(host, shard_columns=(10, 50))
        preds = host_predictions(sparse, bandwidth_gbs=10.0, updates_per_second=1e6)
        dense = host_predictions(host, bandwidth_gbs=10.0, updates_per_second=1e6)
        for phase in ("pull", "push"):
            assert preds[("worker-0", phase)] == pytest.approx(4 * 16 * 10 / 10e9)
            assert preds[("worker-1", phase)] == dense[("worker-1", phase)]
        assert preds[("server", "sync")] == pytest.approx(3 * 4 * 16 * (10 + 50) / 10e9)

    def test_invalid_rates_rejected(self, host):
        with pytest.raises(ValueError):
            host_predictions(host, bandwidth_gbs=0, updates_per_second=1e6)
        with pytest.raises(ValueError):
            host_predictions(host, bandwidth_gbs=1.0, updates_per_second=0)


class TestEpochCostPredictions:
    def test_flattens_modeled_cost(self):
        from repro.core.config import HCCConfig
        from repro.framework import HCCMF
        from repro.data.datasets import NETFLIX
        from repro.hardware.topology import paper_workstation

        hcc = HCCMF(paper_workstation(16), NETFLIX, HCCConfig(k=64, epochs=1))
        hcc.prepare()
        cost = hcc.cost_model.epoch_cost(hcc.plan.fractions)
        preds = predictions_from_epoch_cost(cost)
        for wc in cost.workers:
            assert preds[(wc.name, "pull")] == pytest.approx(wc.pull)
            assert preds[(wc.name, "computing")] == pytest.approx(wc.compute)
        assert preds[("server", "sync")] == pytest.approx(
            cost.sync_time_each * len(cost.workers)
        )


class TestDriftRow:
    def test_rel_error_nan_when_unpredicted(self):
        row = DriftRow("w", "pull", predicted=0.0, measured=0.5, spans=1)
        assert math.isnan(row.rel_error)

    def test_empty_report_worst_is_nan(self):
        report = DriftReport(rows=(), epochs=1)
        assert math.isnan(report.worst_abs_rel_error)
        assert "drift report" in report.render()
