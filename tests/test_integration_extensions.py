"""End-to-end integration of the extension features."""

from dataclasses import replace

import numpy as np
import pytest

from repro import HCCConfig, HCCMF, NETFLIX, paper_workstation
from repro.core.autotune import autotune, tuned_config
from repro.data.datasets import MOVIELENS_20M


class TestAutotunedTraining:
    def test_autotuned_config_trains_numerically(self):
        """The auto-tuner's trainable winner must plug straight into
        HCCMF and converge (Q-rotate is priced, not trained)."""
        data = MOVIELENS_20M.scaled(12_000).generate(seed=3)
        report = autotune(
            paper_workstation(16), MOVIELENS_20M, k=8, epochs=5,
            include_rotation=False,
        )
        cfg = replace(report.best.config, learning_rate=0.02, seed=3)
        res = HCCMF(paper_workstation(16), MOVIELENS_20M, cfg, ratings=data).train()
        assert res.rmse_history[-1] < res.rmse_history[0]

    def test_autotuned_beats_naive_in_model_time(self):
        from repro.core.config import CommConfig, TransmitMode

        naive = HCCConfig(
            k=128, epochs=20, comm=CommConfig(transmit=TransmitMode.P_AND_Q)
        )
        tuned = tuned_config(paper_workstation(16), MOVIELENS_20M, epochs=20)
        t_naive = HCCMF(paper_workstation(16), MOVIELENS_20M, naive).train().total_time
        t_tuned = HCCMF(paper_workstation(16), MOVIELENS_20M, tuned).train().total_time
        assert t_tuned < 0.5 * t_naive


class TestCheckpointedHCCModel:
    def test_hcc_model_checkpoints_and_ranks(self, tmp_path):
        """A model trained by the framework survives checkpointing and
        still produces sensible recommendations."""
        from repro.core.checkpoint import Checkpoint, save_checkpoint
        from repro.serving.scorer import Scorer
        from repro.serving.store import ModelStore

        data = NETFLIX.scaled(12_000).generate(seed=4)
        cfg = HCCConfig(k=8, epochs=5, learning_rate=0.01, seed=4)
        res = HCCMF(paper_workstation(16), NETFLIX, cfg, ratings=data).train()
        save_checkpoint(
            Checkpoint(model=res.model, epoch=5, rmse_history=res.rmse_history),
            tmp_path / "hcc",
        )
        top = Scorer(ModelStore(str(tmp_path / "hcc"))).top_k([0], 5)
        assert len(top.items[0]) == 5
        assert np.all(np.isfinite(top.scores[0]))

    def test_convergence_diagnostics_on_hcc_curve(self):
        from repro.core.convergence import epochs_to_target, fit_exponential

        data = NETFLIX.scaled(15_000).generate(seed=5)
        cfg = HCCConfig(k=8, epochs=10, learning_rate=0.02, seed=5)
        res = HCCMF(paper_workstation(16), NETFLIX, cfg, ratings=data).train()
        fit = fit_exponential(res.rmse_history)
        assert fit.floor < res.rmse_history[-1]
        target = res.rmse_history[-1] * 1.05
        assert epochs_to_target(res.rmse_history, target) < 10


class TestProfileDrivenConfig:
    def test_profile_recommendations_match_autotuner(self):
        """The dataset profiler's qualitative advice must agree with the
        auto-tuner's quantitative pick on the comm-bound dataset."""
        from repro.core.autotune import autotune
        from repro.data.analysis import profile_spec

        prof = profile_spec(MOVIELENS_20M)
        assert prof["comm_bound"]
        report = autotune(paper_workstation(16), MOVIELENS_20M)
        best = report.best.config.comm
        # comm-bound -> the winner uses an aggressive comm strategy
        assert best.transmit.value in ("q-rotate", "q") and (
            best.fp16 or best.streams > 1 or best.transmit.value == "q-rotate"
        )

    def test_energy_tracks_time_on_same_platform(self):
        """For a fixed platform, a faster configuration costs fewer
        joules (same silicon, less wall time)."""
        from repro.core.config import CommConfig, TransmitMode
        from repro.experiments.energy import energy_of

        plat = paper_workstation(16)
        slow_cfg = HCCConfig(
            k=128, epochs=20, comm=CommConfig(transmit=TransmitMode.P_AND_Q)
        )
        fast_cfg = HCCConfig(k=128, epochs=20)
        slow = HCCMF(plat, MOVIELENS_20M, slow_cfg).train()
        fast = HCCMF(plat, MOVIELENS_20M, fast_cfg).train()
        assert fast.total_time < slow.total_time
        assert energy_of(fast, plat).total_joules < energy_of(slow, plat).total_joules
