"""Unit tests for wall-clock partition tuning (Algorithm 1 for real)."""

import numpy as np
import pytest

from repro.parallel.tuning import MeasuredPartition, measure_partition


class TestMeasurePartition:
    def test_fractions_on_simplex(self, medium_ratings):
        mp = measure_partition(medium_ratings, 3, k=8, seed=0)
        fr = np.asarray(mp.plan.fractions)
        assert fr.sum() == pytest.approx(1.0)
        assert np.all(fr > 0)

    def test_near_uniform_on_homogeneous_host(self, medium_ratings):
        """All shards run on the same CPU, so no fraction should stray
        far from the fair share."""
        n = 4
        mp = measure_partition(medium_ratings, n, k=8, seed=0)
        for f in mp.plan.fractions:
            assert f == pytest.approx(1.0 / n, abs=0.15)

    def test_reports_measurements(self, medium_ratings):
        mp = measure_partition(medium_ratings, 2, k=8, seed=0)
        assert isinstance(mp, MeasuredPartition)
        assert len(mp.independent_times) == 2
        assert all(t > 0 for t in mp.independent_times)
        assert mp.calibration_seconds > 0

    def test_no_refine_is_dp0(self, medium_ratings):
        mp = measure_partition(medium_ratings, 2, k=8, refine=False, seed=0)
        assert mp.plan.strategy == "dp0"

    def test_refined_is_dp1(self, medium_ratings):
        mp = measure_partition(medium_ratings, 2, k=8, refine=True, seed=0)
        assert mp.plan.strategy == "dp1"

    def test_single_worker(self, medium_ratings):
        mp = measure_partition(medium_ratings, 1, k=8, seed=0)
        assert mp.plan.fractions == (1.0,)

    def test_feeds_shared_memory_trainer(self, medium_ratings):
        from repro.engine import EpochEngine, ProcessBackend, QOnlyChannel

        mp = measure_partition(medium_ratings, 2, k=8, seed=0)
        backend = ProcessBackend(medium_ratings, k=8, n_workers=2, lr=0.01, seed=0)
        res = EpochEngine(
            backend, channel=QOnlyChannel(), partitions=mp.plan
        ).run(2)
        assert res.rmse_history[-1] < res.rmse_history[0]

    def test_validation(self, medium_ratings):
        with pytest.raises(ValueError):
            measure_partition(medium_ratings, 0)
