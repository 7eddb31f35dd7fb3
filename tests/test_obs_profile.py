"""Unit tests for stage-attributed profiling (repro.obs.profile)."""

import cProfile
import os

import pytest

from repro.data.datasets import NETFLIX
from repro.obs.profile import (
    ENGINE_STAGES,
    HotpathEntry,
    StageProfileReport,
    StageProfiler,
    WorkerStageProfiles,
)


def _busy(n=20_000):
    return sum(i * i for i in range(n))


class TestStageProfiler:
    def test_stage_scopes_accumulate(self):
        prof = StageProfiler()
        for _ in range(2):
            with prof.stage("compute"):
                _busy()
        report = prof.report()
        assert report.stage_seconds["compute"] > 0
        assert report.attributed_fraction == 1.0

    def test_entries_name_profiled_functions(self):
        prof = StageProfiler()
        with prof.stage("compute"):
            _busy()
        report = prof.report()
        assert any("_busy" in e.function for e in report.entries)
        assert all(e.stage == "compute" for e in report.entries)

    def test_unknown_stage_counts_as_unattributed(self):
        prof = StageProfiler()
        with prof.stage("compute"):
            _busy()
        with prof.stage("mystery"):
            _busy()
        report = prof.report()
        assert report.unattributed_seconds > 0
        assert "mystery" not in report.stage_seconds
        assert report.attributed_fraction < 1.0

    def test_worker_dumps_merge_into_report(self, tmp_path):
        # simulate what a worker process does: accumulate + dump
        worker = WorkerStageProfiles()
        with worker.stage("compute"):
            _busy()
        with worker.stage("pull"):
            _busy(2_000)
        dump_dir = tmp_path / "attempt-0"
        dump_dir.mkdir()
        worker.dump(str(dump_dir), worker_id=0)
        assert sorted(os.listdir(dump_dir)) == [
            "worker-0.compute.pstats", "worker-0.pull.pstats",
        ]
        prof = StageProfiler()
        prof._workdir = str(tmp_path)
        report = prof.report()
        assert report.stage_seconds["compute"] > 0
        assert report.stage_seconds["pull"] > 0
        assert report.attributed_fraction == 1.0

    def test_unknown_worker_dump_stage_unattributed(self, tmp_path):
        p = cProfile.Profile()
        p.enable()
        _busy()
        p.disable()
        p.dump_stats(str(tmp_path / "worker-0.warmup.pstats"))
        prof = StageProfiler()
        prof._workdir = str(tmp_path)
        report = prof.report()
        assert report.unattributed_seconds > 0

    def test_cleanup_removes_workdir(self):
        prof = StageProfiler()
        d = prof.worker_dir()
        assert os.path.isdir(d)
        prof.cleanup()
        assert not os.path.isdir(d)
        prof.cleanup()  # idempotent

    def test_invalid_max_entries(self):
        with pytest.raises(ValueError):
            StageProfiler(max_entries_per_stage=0)


class TestStageProfileReport:
    def _report(self):
        return StageProfileReport(
            stage_seconds={"pull": 0.1, "compute": 0.8},
            entries=[
                HotpathEntry("compute", "f (m.py:1)", 4, 0.5, 0.8),
                HotpathEntry("pull", "g (m.py:9)", 2, 0.1, 0.1),
            ],
            unattributed_seconds=0.1,
        )

    def test_attribution_math(self):
        report = self._report()
        assert report.total_seconds == pytest.approx(1.0)
        assert report.attributed_fraction == pytest.approx(0.9)

    def test_empty_report_fully_attributed(self):
        assert StageProfileReport({}, []).attributed_fraction == 1.0

    def test_top_sorted_by_cumtime(self):
        top = self._report().top(1)
        assert top[0].function.startswith("f")

    def test_render_names_stages_and_hotpaths(self):
        text = self._report().render(top_n=2)
        assert "compute" in text and "pull" in text
        assert "f (m.py:1)" in text
        assert "90.0% attributed" in text

    def test_dict_round_trip(self):
        report = self._report()
        back = StageProfileReport.from_dict(report.to_dict())
        assert back.stage_seconds == report.stage_seconds
        assert back.entries == report.entries
        assert back.unattributed_seconds == report.unattributed_seconds

    def test_save_load_round_trip(self, tmp_path):
        report = self._report()
        path = tmp_path / "hotpaths.json"
        report.save(path)
        back = StageProfileReport.load(path)
        assert back.attributed_fraction == pytest.approx(
            report.attributed_fraction
        )

    def test_from_dict_rejects_foreign_schema(self):
        with pytest.raises(ValueError, match="schema"):
            StageProfileReport.from_dict({"schema": "other", "entries": []})


class TestEngineIntegration:
    """The acceptance criterion: >=90% of profiled time lands in named
    engine stages on both planes."""

    def test_sim_plane_attribution(self):
        from repro.engine import EpochEngine, QOnlyChannel, SimBackend
        from repro.experiments.platforms import workers_platform

        ratings = NETFLIX.scaled(2000).generate(seed=0)
        prof = StageProfiler()
        backend = SimBackend(
            workers_platform(2), ratings=ratings, eval_data=ratings,
            k=8, seed=0, batch_size=1024,
        )
        EpochEngine(backend, channel=QOnlyChannel(), profile=prof).run(2)
        report = prof.report()
        prof.cleanup()
        assert report.attributed_fraction >= 0.9
        for stage in ENGINE_STAGES:
            assert report.stage_seconds.get(stage, 0.0) > 0.0
        # both planes walk their shards in the one shared epoch body
        compute = [e for e in report.entries if e.stage == "compute"]
        assert any("sgd_shard_epoch" in e.function for e in compute)

    def test_process_plane_attribution_with_worker_dumps(self):
        from repro.engine import EpochEngine, ProcessBackend, QOnlyChannel

        ratings = NETFLIX.scaled(2000).generate(seed=0)
        prof = StageProfiler()
        try:
            backend = ProcessBackend(
                ratings, k=8, n_workers=2, seed=0, batch_size=1024
            )
            EpochEngine(backend, channel=QOnlyChannel(), profile=prof).run(2)
            workdir = prof.worker_dir()
            dumps = [
                fn
                for _, _, files in os.walk(workdir)
                for fn in files
                if fn.endswith(".pstats")
            ]
            # both workers dumped pull/compute/push
            assert len(dumps) == 6
            report = prof.report()
        finally:
            prof.cleanup()
        assert report.attributed_fraction >= 0.9
        for stage in ENGINE_STAGES:
            assert report.stage_seconds.get(stage, 0.0) > 0.0
        # worker-side training shows up under compute
        compute = [e for e in report.entries if e.stage == "compute"]
        assert any("sgd_shard_epoch" in e.function for e in compute)

    def test_unprofiled_run_unchanged(self):
        from repro.engine import EpochEngine, QOnlyChannel, SimBackend
        from repro.experiments.platforms import workers_platform

        ratings = NETFLIX.scaled(2000).generate(seed=0)

        def run(profile):
            backend = SimBackend(
                workers_platform(2), ratings=ratings, eval_data=ratings,
                k=8, seed=0, batch_size=1024,
            )
            return EpochEngine(
                backend, channel=QOnlyChannel(), profile=profile
            ).run(2)

        prof = StageProfiler()
        with_prof = run(prof)
        prof.cleanup()
        without = run(None)
        assert with_prof.rmse_history == without.rmse_history
        assert with_prof.stage_sequence() == without.stage_sequence()
