"""The chaos-parity harness: same faults, both planes, same story.

Three layers of enforcement:

* cross-plane parity on a couple of named scenarios (slow: the process
  plane spawns real workers) — the full matrix is ``repro chaos-parity``;
* the whole default matrix sim-side, checking expected outcomes and
  the single-plane safety invariants;
* a seeded randomized regression sweep (~50 scenarios, sim-only,
  fast).  Every failure message carries the scenario's ``describe()``,
  which includes the reproducing seed.
"""

import numpy as np
import pytest

from repro.core.cost_model import Regime, TimeCostModel
from repro.core.partition import PartitionPlan
from repro.data.datasets import NETFLIX
from repro.engine.backends import SimBackend
from repro.engine.channels import QOnlyChannel
from repro.engine.pipeline import EpochEngine
from repro.hardware.topology import paper_workstation
from repro.core.partition import redistribute
from repro.testing import (
    ChaosScenario,
    check_invariants,
    check_parity,
    default_matrix,
    generate_scenarios,
    parity_platform,
    run_scenario,
)


def _by_name(name: str) -> ChaosScenario:
    (scenario,) = [s for s in default_matrix(0) if s.name == name]
    return scenario


class TestCrossPlaneParity:
    def test_kill_soft_parity(self):
        scenario = _by_name("kill-soft")
        sim = run_scenario(scenario, "sim")
        process = run_scenario(scenario, "process")
        report = check_parity(sim, process)
        assert report.ok, report.describe()
        # the contract actually bit on something: a redistribution
        assert any("redistribute" in str(d) for d in sim.decisions)

    def test_two_deaths_remap_parity(self):
        """Both planes renumber survivors identically: the second kill,
        aimed at an old rank, fires on the remapped worker in each."""
        scenario = _by_name("two-deaths-remap")
        sim = run_scenario(scenario, "sim")
        process = run_scenario(scenario, "process")
        report = check_parity(sim, process)
        assert report.ok, report.describe()
        assert len(sim.decisions) == 2
        assert sim.final_workers == process.final_workers == 2

    def test_abort_parity(self):
        scenario = _by_name("abort-checkpointed")
        sim = run_scenario(scenario, "sim")
        process = run_scenario(scenario, "process")
        report = check_parity(sim, process)
        assert report.ok, report.describe()
        assert sim.aborted and process.aborted
        assert sim.checkpoint_written and process.checkpoint_written


class TestDefaultMatrixSim:
    @pytest.mark.parametrize(
        "scenario", default_matrix(0), ids=lambda s: s.name
    )
    def test_sim_outcome_and_invariants(self, scenario):
        outcome = run_scenario(scenario, "sim")
        problems = check_invariants(scenario, outcome)
        assert not problems, f"{problems} ({scenario.describe()})"
        assert outcome.aborted == scenario.expect_abort, scenario.describe()
        if not scenario.expect_abort:
            assert len(outcome.rmse_history) == scenario.epochs

    def test_matrix_covers_every_fault_kind(self):
        kinds = {
            f.kind for s in default_matrix(0) for f in s.fault_plan.faults
        }
        assert kinds == {"kill", "delay", "drop", "corrupt"}

    def test_sim_runs_are_deterministic(self):
        scenario = _by_name("kill-soft")
        a = run_scenario(scenario, "sim")
        b = run_scenario(scenario, "sim")
        assert a.rmse_history == b.rmse_history
        assert a.decisions == b.decisions

    def test_degraded_epochs_are_priced_over_the_survivors(self):
        """Each synced epoch adds its plan's analytic cost to the sim
        clock: before the kill over all three workers, and after the
        redistribution over the two survivors and their fractions."""
        scenario = _by_name("kill-soft")
        (kill,) = scenario.fault_plan.faults
        platform = parity_platform(scenario.n_workers)
        cost_model = TimeCostModel(
            platform, NETFLIX.scaled(scenario.data_nnz), k=scenario.k
        )
        data = NETFLIX.scaled(scenario.data_nnz).generate(seed=scenario.seed)
        backend = SimBackend(
            platform, data.shuffle(scenario.seed), k=scenario.k,
            lr=scenario.lr, seed=scenario.seed, cost_model=cost_model,
            fault_plan=scenario.fault_plan,
            barrier_timeout_s=scenario.barrier_timeout_s,
        )
        result = EpochEngine(
            backend, channel=QOnlyChannel(), recovery=scenario.recovery
        ).run(scenario.epochs)
        assert [d[2] for d in result.resilience.decisions] == ["redistribute"]
        survivors = [w for r, w in enumerate(platform.workers) if r != kill.rank]
        healthy = cost_model.epoch_cost(result.plan.fractions).total
        degraded = cost_model.epoch_cost(
            result.final_plan.fractions, workers=survivors
        ).total
        assert result.final_plan.n_workers == len(survivors) == 2
        assert degraded != healthy
        assert backend.sim_seconds == pytest.approx(
            kill.epoch * healthy + (scenario.epochs - kill.epoch) * degraded
        )


class TestRandomizedSweep:
    def test_fifty_scenarios_hold_invariants(self):
        scenarios = generate_scenarios(seed=0, count=50)
        assert len(scenarios) == 50
        for scenario in scenarios:
            outcome = run_scenario(scenario, "sim")
            problems = check_invariants(scenario, outcome)
            assert not problems, (
                f"{problems} — reproduce with: {scenario.describe()}"
            )

    def test_generator_is_deterministic(self):
        assert generate_scenarios(7, 10) == generate_scenarios(7, 10)

    def test_generator_varies_with_seed(self):
        a = [s.fault_plan.describe() for s in generate_scenarios(1, 10)]
        b = [s.fault_plan.describe() for s in generate_scenarios(2, 10)]
        assert a != b

    def test_generated_faults_fit_their_scenarios(self):
        for s in generate_scenarios(3, 30):
            for f in s.fault_plan.faults:
                assert f.rank < s.n_workers
                assert f.epoch < s.epochs


class TestScenarioValidation:
    def test_fault_rank_must_fit(self):
        from repro.core.config import RecoveryPolicy
        from repro.resilience import FaultPlan

        with pytest.raises(ValueError, match="outside"):
            ChaosScenario(
                name="bad", seed=0, n_workers=2, epochs=2,
                fault_plan=FaultPlan().kill(5, epoch=1),
                recovery=RecoveryPolicy(),
            )

    def test_run_scenario_rejects_unknown_plane(self):
        with pytest.raises(ValueError, match="plane"):
            run_scenario(_by_name("kill-soft"), "quantum")


class TestDegradedCostProperties:
    """Satellite properties over the analytic failure path (Eq. 1-5)."""

    @pytest.fixture
    def model(self):
        return TimeCostModel(paper_workstation(16), NETFLIX, k=128)

    def test_kills_never_cheapen_compute_bound_epochs(self, model):
        """Monotonicity, seeded-random kill sets: in the compute-bound
        regime the degraded epoch always costs at least the healthy one.
        (Scoped to compute-bound on purpose — sync-bound epochs can get
        cheaper with fewer workers, as fewer merges shrink T_sync.)"""
        rng = np.random.default_rng(0)
        n = model.platform.n_workers
        from repro.core.config import PartitionStrategy

        fractions = model.derive_partition(PartitionStrategy.DP1).fractions
        healthy = model.epoch_cost(fractions)
        assert healthy.regime is Regime.COMPUTE_BOUND
        for trial in range(25):
            n_dead = int(rng.integers(1, n - 1))
            dead = set(map(int, rng.choice(n, size=n_dead, replace=False)))
            degraded = model.degraded_epoch_cost(fractions, dead)
            assert degraded.regime is Regime.COMPUTE_BOUND, (trial, dead)
            assert degraded.total >= healthy.total - 1e-12, (
                f"trial {trial}: killing {sorted(dead)} cheapened the "
                f"epoch {healthy.total:.6f} -> {degraded.total:.6f} "
                f"(reproduce: default_rng(0), trial {trial})"
            )

    def test_redistributed_fractions_sum_to_one(self):
        rng = np.random.default_rng(1)
        for trial in range(50):
            n = int(rng.integers(2, 9))
            raw = rng.random(n) + 0.05
            fractions = tuple(float(f) for f in raw / raw.sum())
            plan = PartitionPlan("dp1", fractions)
            n_dead = int(rng.integers(1, n))
            dead = set(map(int, rng.choice(n, size=n_dead, replace=False)))
            degraded = redistribute(plan, dead)
            assert abs(sum(degraded.fractions) - 1.0) <= 1e-9, (
                f"trial {trial}: fractions {degraded.fractions} "
                f"(reproduce: default_rng(1), trial {trial})"
            )
            assert all(f > 0 for f in degraded.fractions)
