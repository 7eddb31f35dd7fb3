"""Tests for the dynamic race/ownership detector.

Acceptance criteria from the issue: a deliberately overlapping
partition is reported as a P-row collision, and the real DP0/DP1/DP2
plans come out clean (paper 3.4, Strategy 1: "transmit Q only" is
correct only when P ownership is disjoint).
"""

import numpy as np
import pytest

from repro.analysis.race import (
    READ,
    WRITE,
    Access,
    RaceLog,
    check_row_ownership,
    inject_overlap,
    tracked_train,
)
from repro.core.partition import PartitionPlan, dp0, dp1, dp2
from repro.data.grid import GridKind, partition_rows
from repro.data.synthetic import SyntheticConfig, generate_low_rank

OWNERSHIP_KINDS = {"range-overlap", "duplicate-entries", "row-overlap"}


def make_ratings(m=120, n=60, nnz=1500, seed=0):
    cfg = SyntheticConfig(m=m, n=n, nnz=nnz, rating_step=0.5)
    return generate_low_rank(cfg, seed=seed).shuffle(seed)


def make_assignments(ratings, fractions=(0.5, 0.3, 0.2)):
    return partition_rows(ratings, list(fractions), kind=GridKind.ROW)


class TestVectorClocks:
    def test_same_epoch_cross_worker_is_concurrent(self):
        log = RaceLog(n_workers=2)
        a = log.record(actor=0, op=WRITE, target="P", lo=0, hi=10)
        b = log.record(actor=1, op=WRITE, target="P", lo=20, hi=30)
        assert a.concurrent_with(b)
        assert not a.happens_before(b)

    def test_epoch_barrier_orders_accesses(self):
        log = RaceLog(n_workers=2)
        a = log.record(actor=0, op=WRITE, target="P", lo=0, hi=10)
        log.advance_epoch()
        b = log.record(actor=1, op=WRITE, target="P", lo=0, hi=10)
        assert a.happens_before(b)
        assert not a.concurrent_with(b)

    def test_same_actor_is_ordered(self):
        log = RaceLog(n_workers=2)
        a = log.record(actor=0, op=WRITE, target="P", lo=0, hi=10)
        b = log.record(actor=0, op=WRITE, target="P", lo=0, hi=10)
        assert a.happens_before(b)

    def test_overlap_semantics(self):
        acc = Access(actor=0, epoch=0, op=WRITE, target="P",
                     lo=0, hi=10, clock=(1, 0))
        disjoint = Access(actor=1, epoch=0, op=WRITE, target="P",
                          lo=10, hi=20, clock=(0, 1))
        assert not acc.overlaps(disjoint)  # half-open: [0,10) vs [10,20)
        touching = Access(actor=1, epoch=0, op=WRITE, target="P",
                          lo=9, hi=20, clock=(0, 1))
        assert acc.overlaps(touching)

    def test_unknown_actor_rejected(self):
        log = RaceLog(n_workers=2)
        with pytest.raises(ValueError):
            log.record(actor=5, op=WRITE, target="P")


class TestRaceLog:
    def test_concurrent_overlapping_writes_flagged(self):
        log = RaceLog(n_workers=2)
        log.record(actor=0, op=WRITE, target="P", lo=0, hi=50)
        log.record(actor=1, op=WRITE, target="P", lo=40, hi=90)
        violations = log.p_row_conflicts()
        assert len(violations) == 1
        assert violations[0].kind == "p-row-overlap"
        assert "overlapping P rows" in violations[0].message

    def test_read_read_overlap_is_fine(self):
        log = RaceLog(n_workers=2)
        log.record(actor=0, op=READ, target="P", lo=0, hi=50)
        log.record(actor=1, op=READ, target="P", lo=0, hi=50)
        assert log.p_row_conflicts() == []

    def test_write_read_overlap_flagged(self):
        log = RaceLog(n_workers=2)
        log.record(actor=0, op=WRITE, target="P", lo=0, hi=50)
        log.record(actor=1, op=READ, target="P", lo=10, hi=20)
        assert len(log.p_row_conflicts()) == 1

    def test_cross_epoch_overlap_is_legal(self):
        """Repartitioning between epochs must not be flagged."""
        log = RaceLog(n_workers=2)
        log.record(actor=0, op=WRITE, target="P", lo=0, hi=50)
        log.advance_epoch()
        log.record(actor=1, op=WRITE, target="P", lo=0, hi=50)
        assert log.p_row_conflicts() == []

    def test_double_copy_flagged(self):
        """Paper 3.5: one pull deposit per epoch."""
        log = RaceLog(n_workers=2)
        server = log.server_actor
        log.record(actor=server, op=WRITE, target="pull")
        log.record(actor=server, op=WRITE, target="pull")
        kinds = [v.kind for v in log.copy_discipline_violations()]
        assert kinds == ["double-copy"]

    def test_one_copy_per_epoch_is_clean(self):
        log = RaceLog(n_workers=2)
        server = log.server_actor
        log.record(actor=server, op=WRITE, target="pull")
        log.advance_epoch()
        log.record(actor=server, op=WRITE, target="pull")
        assert log.copy_discipline_violations() == []

    def test_foreign_write_flagged(self):
        log = RaceLog(n_workers=2)
        log.record(actor=1, op=WRITE, target="push:0")
        kinds = [v.kind for v in log.copy_discipline_violations()]
        assert "foreign-write" in kinds

    def test_own_push_is_clean(self):
        log = RaceLog(n_workers=2)
        log.record(actor=0, op=WRITE, target="push:0")
        log.record(actor=1, op=WRITE, target="push:1")
        assert log.violations() == []


    def test_read_past_the_owners_deposit_flagged(self):
        """A worker with a column set fills a prefix of its push wire;
        a server that read further would merge last epoch's values."""
        log = RaceLog(n_workers=2)
        log.record(actor=0, op=WRITE, target="push:0", lo=0, hi=24)
        log.record(actor=log.server_actor, op=READ, target="push:0", lo=0, hi=24)
        assert log.violations() == []
        log.record(actor=log.server_actor, op=READ, target="push:0", lo=0, hi=32)
        assert [v.kind for v in log.violations()] == ["stale-read"]


class TestRowOwnership:
    def test_clean_partition_passes(self):
        ratings = make_ratings()
        assignments = make_assignments(ratings)
        assert check_row_ownership(assignments, ratings) == []

    def test_injected_overlap_detected(self):
        ratings = make_ratings()
        assignments = inject_overlap(make_assignments(ratings))
        violations = check_row_ownership(assignments, ratings)
        assert violations, "overlapping shards must be reported"
        kinds = {v.kind for v in violations}
        assert kinds <= OWNERSHIP_KINDS
        assert "row-overlap" in kinds  # the P-row collision itself
        msg = " ".join(v.message for v in violations)
        assert "0" in msg and "1" in msg  # names the colliding workers

    def test_span_overlap_without_ratings(self):
        ratings = make_ratings()
        assignments = inject_overlap(make_assignments(ratings))
        kinds = {v.kind for v in check_row_ownership(assignments)}
        assert "range-overlap" in kinds or "duplicate-entries" in kinds


class TestTrackedTrain:
    def test_clean_run_has_no_violations(self):
        ratings = make_ratings()
        assignments = make_assignments(ratings)
        report = tracked_train(ratings, assignments, epochs=2, label="clean")
        assert report.ok, report.render()
        assert len(report.rmse_history) == 2
        assert np.isfinite(report.rmse_history).all()
        assert report.n_events > 0
        assert "OK" in report.render()

    def test_sparse_shards_push_and_are_read_over_their_prefix_only(self):
        """Each third of a wide matrix rates well under half the columns:
        the tracked run is the column-set path, every push write and
        server read covers ``k * t_i`` values, and it still converges."""
        ratings = make_ratings(m=300, n=2000, nnz=1500)
        assignments = make_assignments(ratings)
        log = RaceLog(len(assignments))
        report = tracked_train(ratings, assignments, k=8, epochs=2, log=log)
        assert report.ok, report.render()
        assert report.rmse_history[-1] < report.rmse_history[0]
        for a in assignments:
            t = len(np.unique(ratings.cols[a.entries]))
            assert 0 < t < ratings.n // 2
            pushes = [e for e in log.events if e.target == f"push:{a.worker}"]
            assert {e.op for e in pushes} == {READ, WRITE}
            assert {(e.lo, e.hi) for e in pushes} == {(0, 8 * t)}

    def test_overlapping_plan_reports_p_row_collision(self):
        """The issue's core acceptance test: a deliberately overlapping
        partition is caught by the dynamic detector."""
        ratings = make_ratings()
        assignments = inject_overlap(make_assignments(ratings))
        report = tracked_train(ratings, assignments, epochs=1, label="corrupt")
        assert not report.ok
        kinds = {v.kind for v in report.violations}
        assert "p-row-overlap" in kinds
        assert "p-row-overlap" in report.render()

    def test_rmse_decreases(self):
        ratings = make_ratings(nnz=2500)
        assignments = make_assignments(ratings)
        report = tracked_train(ratings, assignments, epochs=3,
                               label="converge", seed=1)
        assert report.rmse_history[-1] < report.rmse_history[0]


class TestPartitionPlans:
    """DP0/DP1/DP2 plans all yield disjoint P ownership (paper Eq. 6/Alg. 1/Eq. 7)."""

    rates = [2.5, 1.5, 1.0]
    is_gpu = [True, False, False]

    @pytest.fixture()
    def ratings(self):
        return make_ratings(m=160, n=80, nnz=2000)

    def _measure(self, x):
        # modeled co-run interference: CPU workers run 25% slow
        return [
            r * xi * (1.0 if gpu else 1.25)
            for r, xi, gpu in zip(self.rates, x, self.is_gpu)
        ]

    def _check(self, plan, ratings):
        assert isinstance(plan, PartitionPlan)
        assignments = plan.materialize(ratings)
        assert check_row_ownership(assignments, ratings) == []
        report = tracked_train(ratings, assignments, epochs=1, label="plan")
        assert report.ok, report.render()

    def test_dp0_clean(self, ratings):
        self._check(dp0(self.rates), ratings)

    def test_dp1_clean(self, ratings):
        plan = dp1(dp0(self.rates), self._measure, self.is_gpu)
        self._check(plan, ratings)

    def test_dp2_clean(self, ratings):
        plan = dp2(dp1(dp0(self.rates), self._measure, self.is_gpu),
                   sync_time=0.05)
        self._check(plan, ratings)
