"""Unit tests for the resilience plane: faults, health, policy."""

import pickle

import pytest

from repro.core.config import RecoveryPolicy
from repro.core.partition import PartitionPlan, redistribute
from repro.resilience import (
    Fault,
    FaultPlan,
    HealthReport,
    RecoveryAction,
    ResilienceSummary,
    TrainingAborted,
    WorkerHealth,
    WorkerState,
    classify,
    decide,
)
from repro.resilience.faults import CORRUPT, DELAY, DROP, KILL, fault_at


class TestFaultPlan:
    def test_builders_accumulate(self):
        plan = (
            FaultPlan()
            .kill(1, epoch=2)
            .delay_barrier(0, epoch=3, seconds=1.5)
            .drop_payload(2, epoch=4)
            .corrupt_payload(0, epoch=5)
        )
        assert len(plan) == 4
        assert bool(plan)
        assert not FaultPlan()
        kinds = [f.kind for f in plan.faults]
        assert kinds == [KILL, DELAY, DROP, CORRUPT]

    def test_builders_return_new_plans(self):
        base = FaultPlan()
        extended = base.kill(0, epoch=0)
        assert len(base) == 0
        assert len(extended) == 1

    def test_for_rank_slices(self):
        plan = FaultPlan().kill(0, epoch=1).kill(1, epoch=2).drop_payload(0, epoch=3)
        assert [f.epoch for f in plan.for_rank(0)] == [1, 3]
        assert [f.epoch for f in plan.for_rank(1)] == [2]
        assert plan.for_rank(7) == ()

    def test_without_epochs_through_retires_fired_faults(self):
        plan = FaultPlan().kill(0, epoch=1).corrupt_payload(1, epoch=3)
        survived = plan.without_epochs_through(1)
        assert [f.epoch for f in survived.faults] == [3]
        assert len(plan.without_epochs_through(3)) == 0

    def test_remap_ranks_follows_survivors(self):
        plan = FaultPlan().kill(3, epoch=2).drop_payload(0, epoch=3)
        remapped = plan.remap_ranks({1}, n_workers=4)
        # survivors 0,2,3 compact to 0,1,2: rank 3 -> 2, rank 0 -> 0
        assert [(f.rank, f.epoch) for f in remapped.faults] == [(2, 2), (0, 3)]

    def test_remap_ranks_drops_dead_targets(self):
        plan = FaultPlan().kill(1, epoch=2).corrupt_payload(2, epoch=3)
        remapped = plan.remap_ranks({1}, n_workers=3)
        assert [(f.rank, f.kind) for f in remapped.faults] == [(1, CORRUPT)]

    def test_remap_ranks_drops_out_of_plan_targets(self):
        plan = FaultPlan().kill(5, epoch=2)
        assert len(plan.remap_ranks({0}, n_workers=3)) == 0

    def test_remap_ranks_two_deaths_sequence(self):
        # a 4-worker plan losing rank 1, then (old) rank 3: the pending
        # kill aimed at old rank 3 must land on new rank 2 after the
        # first remap, and the drop aimed at old rank 2 must follow its
        # worker to rank 1 through both renumberings
        plan = FaultPlan().kill(1, epoch=1).kill(3, epoch=2).drop_payload(2, epoch=3)
        after_first = plan.without_epochs_through(1).remap_ranks({1}, n_workers=4)
        assert [(f.rank, f.epoch) for f in after_first.faults] == [(2, 2), (1, 3)]
        after_second = after_first.without_epochs_through(2).remap_ranks(
            {2}, n_workers=3
        )
        assert [(f.rank, f.epoch) for f in after_second.faults] == [(1, 3)]

    def test_fault_at_lookup(self):
        faults = FaultPlan().kill(0, epoch=2).for_rank(0)
        assert fault_at(faults, KILL, 2) is not None
        assert fault_at(faults, KILL, 1) is None
        assert fault_at(faults, DROP, 2) is None

    def test_validation(self):
        with pytest.raises(ValueError):
            Fault("explode", rank=0, epoch=0)
        with pytest.raises(ValueError):
            Fault(KILL, rank=-1, epoch=0)
        with pytest.raises(ValueError):
            Fault(DELAY, rank=0, epoch=0, seconds=-1.0)
        with pytest.raises(ValueError):
            Fault(KILL, rank=0, epoch=0, seconds=2.0)  # seconds is DELAY-only
        with pytest.raises(ValueError):
            Fault(DROP, rank=0, epoch=0, hard=True)  # hard is KILL-only
        with pytest.raises(ValueError):
            Fault(DELAY, rank=0, epoch=0, seconds=1.0, point="middle")

    def test_plan_pickles_for_spawned_workers(self):
        plan = FaultPlan().kill(1, epoch=2, hard=True).delay_barrier(0, epoch=1, seconds=0.5)
        clone = pickle.loads(pickle.dumps(plan))
        assert clone == plan
        assert clone.for_rank(1)[0].hard


class TestClassify:
    def test_missing_alive_rank_is_straggling(self):
        report = classify(3, missing_ranks=(1,), exitcodes=[None, None, None])
        assert report.straggler_ranks == (1,)
        assert report.dead_ranks == ()
        assert report.healthy_ranks == (0, 2)
        assert not report.ok

    def test_nonzero_exit_is_dead_even_when_stamped(self):
        # a killed worker may have stamped before dying
        report = classify(2, missing_ranks=(), exitcodes=[None, -9])
        assert report.dead_ranks == (1,)

    def test_missing_clean_exit_is_dead(self):
        # exited before finishing its epochs: it will never arrive
        report = classify(2, missing_ranks=(0,), exitcodes=[0, None])
        assert report.dead_ranks == (0,)

    def test_all_arrived_alive_is_ok(self):
        report = classify(2, missing_ranks=(), exitcodes=[None, None])
        assert report.ok

    def test_exitcode_length_checked(self):
        with pytest.raises(ValueError):
            classify(3, missing_ranks=(), exitcodes=[None])

    def test_describe_names_states(self):
        report = classify(2, missing_ranks=(1,), exitcodes=[None, 13])
        text = report.describe()
        assert "worker-0: healthy" in text
        assert "worker-1: dead (exit 13)" in text


class TestRecoveryPolicy:
    def test_defaults_valid(self):
        policy = RecoveryPolicy()
        assert policy.max_retries == 2
        assert policy.redistribute

    def test_backoff_is_exponential(self):
        policy = RecoveryPolicy(backoff_base_s=0.1, backoff_factor=2.0)
        assert policy.backoff_s(0) == pytest.approx(0.1)
        assert policy.backoff_s(1) == pytest.approx(0.2)
        assert policy.backoff_s(3) == pytest.approx(0.8)

    def test_validation(self):
        with pytest.raises(ValueError):
            RecoveryPolicy(max_retries=-1)
        with pytest.raises(ValueError):
            RecoveryPolicy(backoff_factor=0.5)
        with pytest.raises(ValueError):
            RecoveryPolicy(min_workers=0)


class TestDecide:
    def _dead(self, rank, n):
        workers = tuple(
            WorkerHealth(r, WorkerState.DEAD if r == rank else WorkerState.HEALTHY,
                         1 if r == rank else None)
            for r in range(n)
        )
        return HealthReport(workers)

    def _stragglers(self, ranks, n):
        workers = tuple(
            WorkerHealth(
                r,
                WorkerState.STRAGGLING if r in ranks else WorkerState.HEALTHY,
            )
            for r in range(n)
        )
        return HealthReport(workers)

    def test_transient_failure_retries_until_budget(self):
        policy = RecoveryPolicy(max_retries=2)
        report = self._stragglers({1}, 3)
        assert decide(policy, report, 0, 3) is RecoveryAction.RETRY
        assert decide(policy, report, 1, 3) is RecoveryAction.RETRY
        assert decide(policy, report, 2, 3) is RecoveryAction.ABORT

    def test_death_redistributes_when_enough_survive(self):
        policy = RecoveryPolicy(min_workers=2)
        assert decide(policy, self._dead(0, 3), 0, 3) is RecoveryAction.REDISTRIBUTE
        assert decide(policy, self._dead(0, 2), 0, 2) is RecoveryAction.ABORT

    def test_death_aborts_when_redistribution_disabled(self):
        policy = RecoveryPolicy(redistribute=False)
        assert decide(policy, self._dead(1, 3), 0, 3) is RecoveryAction.ABORT

    def test_training_aborted_carries_context(self):
        err = TrainingAborted(4, "boom", checkpoint_path="run/ckpt")
        assert err.epoch == 4
        assert "epoch 4" in str(err)
        assert "run/ckpt" in str(err)
        bare = TrainingAborted(2, "boom")
        assert "no checkpoint path" in str(bare)


class TestRedistribute:
    def test_survivors_keep_relative_proportions(self):
        plan = PartitionPlan("dp1", (0.2, 0.3, 0.5))
        degraded = redistribute(plan, {2})
        assert degraded.n_workers == 2
        assert degraded.fractions[0] == pytest.approx(0.4)
        assert degraded.fractions[1] == pytest.approx(0.6)
        assert sum(degraded.fractions) == pytest.approx(1.0)
        assert degraded.strategy == "degraded"

    def test_predicted_times_scale_with_growth(self):
        plan = PartitionPlan("dp1", (0.5, 0.5), (1.0, 1.0))
        degraded = redistribute(plan, {1})
        # the survivor absorbs double the work at the same rate
        assert degraded.predicted_times[0] == pytest.approx(2.0)

    def test_no_dead_returns_same_plan(self):
        plan = PartitionPlan("dp0", (0.5, 0.5))
        assert redistribute(plan, set()) is plan

    def test_unknown_rank_rejected(self):
        with pytest.raises(ValueError, match="not in the plan"):
            redistribute(PartitionPlan("dp0", (0.5, 0.5)), {5})

    def test_no_survivors_rejected(self):
        with pytest.raises(ValueError, match="no surviving"):
            redistribute(PartitionPlan("dp0", (1.0,)), {0})


class TestResilienceSummary:
    def test_clean_until_a_failure_lands(self):
        summary = ResilienceSummary()
        assert summary.clean
        summary.failures.append("epoch 1: WorkerSyncError -> retry")
        assert not summary.clean

    def test_describe_mentions_resume(self):
        summary = ResilienceSummary(retries=1, resumed_from_epoch=3)
        text = summary.describe()
        assert "retries=1" in text
        assert "resumed_from=3" in text
