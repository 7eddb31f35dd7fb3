"""Shape tests for the ablation studies and the future-work extension."""

import pytest

from repro.experiments.ablations import (
    ALL_ABLATIONS,
    ablate_heterogeneous_baselines,
    ablate_lambda,
    ablate_latent_dim,
    ablate_streams,
    extension_adaptive,
    extension_q_rotate,
    extension_whatif,
)


class TestStreamsAblation:
    @pytest.fixture(scope="class")
    def result(self):
        return ablate_streams(max_streams=6)

    def test_monotone_improvement(self, result):
        epochs = result.column("epoch_ms")
        assert all(b <= a + 1e-9 for a, b in zip(epochs, epochs[1:]))

    def test_diminishing_returns(self, result):
        epochs = result.column("epoch_ms")
        first_gain = epochs[0] - epochs[1]
        late_gain = epochs[4] - epochs[5]
        assert late_gain < 0.25 * first_gain

    def test_exposed_sync_shrinks(self, result):
        sync = result.column("exposed_sync_ms")
        assert sync[-1] < sync[0] / 2


class TestLambdaAblation:
    def test_crossover_exists_on_netflix(self):
        result = ablate_lambda()
        strategies = result.column("chosen_strategy")
        assert "dp1" in strategies
        assert "dp2" in strategies
        # once DP2 is chosen, larger lambda keeps choosing it
        first_dp2 = strategies.index("dp2")
        assert all(s == "dp2" for s in strategies[first_dp2:])

    def test_paper_lambda_selects_dp1_on_netflix(self):
        result = ablate_lambda(thresholds=(10.0,))
        assert result.column("chosen_strategy") == ["dp1"]


class TestLatentDimAblation:
    def test_epoch_time_scales_linearly_with_k(self):
        result = ablate_latent_dim(dims=(16, 32, 64, 128))
        times = result.column("epoch_ms")
        # Eq. 2: both terms ~k, so doubling k ~doubles the epoch
        for a, b in zip(times, times[1:]):
            assert b / a == pytest.approx(2.0, rel=0.1)

    def test_comm_fraction_k_invariant(self):
        result = ablate_latent_dim(dims=(16, 128))
        fr = result.column("comm_fraction")
        assert fr[0] == pytest.approx(fr[1], rel=0.1)


class TestBaselineAblation:
    def test_equal_split_dsgd_much_slower(self):
        result = ablate_heterogeneous_baselines()
        rows = result.row_map()
        assert rows["DSGD (equal blocks)"][2] > 3.0  # the bucket effect

    def test_rate_aware_dsgd_comparable(self):
        result = ablate_heterogeneous_baselines()
        rows = result.row_map()
        assert rows["DSGD (rate-proportional blocks)"][2] == pytest.approx(1.0, rel=0.25)


class TestQRotateExtension:
    @pytest.fixture(scope="class")
    def result(self):
        return extension_q_rotate()

    def test_rotation_beats_q_only_everywhere(self, result):
        by = {(r[0], r[1]): r[2] for r in result.rows}
        for n in (1, 2, 3, 4):
            assert by[(n, "Q-rotate")] < by[(n, "Q-only")]

    def test_rotation_restores_scaling(self, result):
        """The actual fix: with rotation, 4 workers are markedly faster
        than 1 on MovieLens; with Q-only they barely are (Table 6)."""
        by = {(r[0], r[1]): r[2] for r in result.rows}
        rotate_gain = by[(1, "Q-rotate")] / by[(4, "Q-rotate")]
        q_only_gain = by[(1, "Q-only")] / by[(4, "Q-only")]
        assert rotate_gain > 1.5
        assert rotate_gain > q_only_gain + 0.3

    def test_registry(self):
        assert set(ALL_ABLATIONS) == {
            "streams", "lambda", "latent-dim", "baselines", "q-rotate",
            "adaptive", "energy", "sensitivity", "whatif",
        }


class TestAdaptiveExtension:
    def test_adaptation_recovers_the_throttle(self):
        rows = extension_adaptive().row_map()
        # adaptation must recover a solid chunk of the throttle's damage
        assert rows["adaptive"][1] < 0.85 * rows["static DP1"][1]
        assert rows["adaptive"][2] < rows["static DP1"][2]
        assert rows["static DP1"][3] == 0
        assert rows["adaptive"][3] >= 1


class TestWhatifExtension:
    def test_every_sweep_tabulated(self):
        result = extension_whatif()
        sweeps = result.column("sweep")
        assert {s: sweeps.count(s) for s in sweeps} == {
            "MovieLens-20m GPUs": 6, "MovieLens-20m bus": 3,
            "MovieLens-20m link": 6, "Netflix GPUs": 4,
        }
