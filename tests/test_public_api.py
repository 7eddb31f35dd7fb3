"""Tests for the top-level public API surface."""

import importlib

import pytest

import repro


class TestPublicAPI:
    def test_version(self):
        assert repro.__version__ == "1.0.0"

    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_quickstart_flow(self):
        """The README quickstart must work verbatim (smaller scale)."""
        from repro import HCCMF, HCCConfig, NETFLIX, paper_workstation

        ratings = NETFLIX.scaled(5_000).generate(seed=0)
        hcc = HCCMF(
            paper_workstation(), NETFLIX,
            HCCConfig(k=8, epochs=3, learning_rate=0.01),
            ratings=ratings,
        )
        result = hcc.train()
        assert result.rmse_history[-1] > 0
        assert 0 < result.utilization < 1

    def test_subpackages_importable(self):
        for mod in (
            "repro.framework", "repro.core", "repro.mf", "repro.data",
            "repro.hardware", "repro.parallel", "repro.experiments",
            "repro.analysis", "repro.resilience", "repro.testing",
        ):
            importlib.import_module(mod)

    def test_dataset_registry_exported(self):
        assert repro.NETFLIX.name == "Netflix"
        assert repro.MOVIELENS_20M.name == "MovieLens-20m"

    def test_experiment_registry(self):
        from repro.experiments import ALL_EXPERIMENTS

        assert len(ALL_EXPERIMENTS) == 11
        assert all(callable(f) for f in ALL_EXPERIMENTS.values())
