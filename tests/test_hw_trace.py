"""Unit tests for Chrome trace-event export."""

import json

import pytest

from repro.hardware.timeline import Phase, Timeline
from repro.hardware.trace import (
    export_chrome_trace,
    import_chrome_trace,
    timeline_from_trace_events,
    timeline_to_trace_events,
)


@pytest.fixture
def timeline():
    tl = Timeline()
    tl.add("gpu0", Phase.PULL, 0.0, 0.1, epoch=0)
    tl.add("gpu0", Phase.COMPUTE, 0.1, 0.9, epoch=0)
    tl.add("gpu0", Phase.PUSH, 0.9, 1.0, epoch=0)
    tl.add("server", Phase.SYNC, 1.0, 1.05, epoch=0)
    return tl


class TestTraceEvents:
    def test_one_x_event_per_span(self, timeline):
        events = timeline_to_trace_events(timeline)
        x_events = [e for e in events if e["ph"] == "X"]
        assert len(x_events) == 4

    def test_thread_metadata_per_worker(self, timeline):
        events = timeline_to_trace_events(timeline)
        meta = [e for e in events if e["ph"] == "M"]
        names = {e["args"]["name"] for e in meta}
        assert names == {"gpu0", "server"}

    def test_timestamps_in_microseconds(self, timeline):
        events = timeline_to_trace_events(timeline)
        compute = [e for e in events if e.get("name") == "computing"][0]
        assert compute["ts"] == pytest.approx(0.1 * 1e6)
        assert compute["dur"] == pytest.approx(0.8 * 1e6)

    def test_time_unit_scaling(self, timeline):
        events = timeline_to_trace_events(timeline, time_unit=1e-3)
        compute = [e for e in events if e.get("name") == "computing"][0]
        assert compute["ts"] == pytest.approx(0.1 * 1e3)

    def test_invalid_time_unit(self, timeline):
        with pytest.raises(ValueError):
            timeline_to_trace_events(timeline, time_unit=0)

    def test_epoch_in_category(self, timeline):
        events = timeline_to_trace_events(timeline)
        cats = {e["cat"] for e in events if e["ph"] == "X"}
        assert cats == {"epoch-0"}

    def test_multi_epoch_categories(self):
        tl = Timeline()
        tl.add("w", Phase.COMPUTE, 0.0, 1.0, epoch=0)
        tl.add("w", Phase.COMPUTE, 1.0, 2.0, epoch=1)
        tl.add("w", Phase.COMPUTE, 2.0, 3.0, epoch=2)
        cats = {e["cat"] for e in timeline_to_trace_events(tl) if e["ph"] == "X"}
        assert cats == {"epoch-0", "epoch-1", "epoch-2"}

    def test_empty_timeline_exports_no_events(self, tmp_path):
        path = tmp_path / "empty.json"
        count = export_chrome_trace(Timeline(), path)
        assert count == 0
        assert json.loads(path.read_text())["traceEvents"] == []

    def test_millisecond_time_unit(self):
        tl = Timeline()
        tl.add("w", Phase.COMPUTE, 100.0, 900.0, epoch=0)  # ms
        events = timeline_to_trace_events(tl, time_unit=1e-3)
        span = [e for e in events if e["ph"] == "X"][0]
        assert span["ts"] == pytest.approx(0.1 * 1e6)
        assert span["dur"] == pytest.approx(0.8 * 1e6)

    def test_unknown_phase_gets_default_color(self):
        """Real-run recorders may emit span kinds the color table does
        not know; they must export with a fallback cname, not raise."""
        tl = Timeline()
        tl.add("w", "speculative-prefetch", 0.0, 1.0, epoch=0)
        events = timeline_to_trace_events(tl)
        span = [e for e in events if e["ph"] == "X"][0]
        assert span["name"] == "speculative-prefetch"
        assert span["cname"] == "generic_work"


class TestImport:
    def test_round_trip_preserves_spans(self, timeline, tmp_path):
        path = tmp_path / "trace.json"
        export_chrome_trace(timeline, path)
        back = import_chrome_trace(path)
        assert len(back) == len(timeline)
        assert back.workers() == timeline.workers()
        orig = timeline.spans[0]
        got = back.spans[0]
        assert (got.worker, got.phase, got.epoch) == (
            orig.worker,
            orig.phase,
            orig.epoch,
        )
        assert got.start == pytest.approx(orig.start)
        assert got.end == pytest.approx(orig.end)

    def test_full_round_trip_reconstructs_equivalent_timeline(self, tmp_path):
        """export_chrome_trace -> import_chrome_trace must reconstruct
        every span's worker, phase, epoch, attempt and duration."""
        tl = Timeline()
        tl.add("worker-0", Phase.PULL, 0.00, 0.05, epoch=0)
        tl.add("worker-0", Phase.COMPUTE, 0.05, 0.80, epoch=0)
        tl.add("worker-0", Phase.PUSH, 0.80, 0.90, epoch=0)
        tl.add("worker-1", Phase.BARRIER, 0.00, 0.02, epoch=0)
        tl.add("worker-1", Phase.COMPUTE, 0.02, 0.70, epoch=0)
        tl.add("server", Phase.SYNC, 0.90, 0.95, epoch=0)
        tl.add("server", Phase.EVAL, 0.95, 1.00, epoch=0)
        tl.add("worker-0", Phase.COMPUTE, 1.00, 1.60, epoch=1, attempt=1)
        path = tmp_path / "trace.json"
        export_chrome_trace(tl, path)
        back = import_chrome_trace(path)

        def signature(timeline):
            return sorted(
                (s.worker, s.phase.value, s.epoch, s.attempt,
                 round(s.start, 9), round(s.duration, 9))
                for s in timeline.spans
            )

        assert signature(back) == signature(tl)
        assert back.workers() == tl.workers()
        for worker in tl.workers():
            got = back.phase_totals(worker)
            for phase, total in tl.phase_totals(worker).items():
                assert got[phase] == pytest.approx(total)

    def test_attempt_tag_survives_round_trip(self, tmp_path):
        tl = Timeline()
        tl.add("w", Phase.COMPUTE, 0.0, 1.0, epoch=0, attempt=2)
        path = tmp_path / "trace.json"
        export_chrome_trace(tl, path)
        back = import_chrome_trace(path)
        assert back.spans[0].attempt == 2

    def test_legacy_trace_without_attempt_defaults_to_zero(self):
        events = [
            {"name": "thread_name", "ph": "M", "pid": 1, "tid": 1,
             "args": {"name": "w"}},
            {"name": "pull", "ph": "X", "pid": 1, "tid": 1, "ts": 0.0,
             "dur": 1e6, "args": {"epoch": 3}},
        ]
        tl = timeline_from_trace_events(events)
        assert tl.spans[0].epoch == 3
        assert tl.spans[0].attempt == 0

    def test_foreign_slices_skipped(self):
        events = [
            {"name": "thread_name", "ph": "M", "pid": 1, "tid": 1, "args": {"name": "w"}},
            {"name": "pull", "ph": "X", "pid": 1, "tid": 1, "ts": 0.0, "dur": 1e6, "args": {"epoch": 0}},
            {"name": "not-a-phase", "ph": "X", "pid": 1, "tid": 1, "ts": 0.0, "dur": 1e6, "args": {}},
        ]
        tl = timeline_from_trace_events(events)
        assert len(tl) == 1
        assert tl.spans[0].phase is Phase.PULL

    def test_real_run_trace_round_trips(self, tmp_path):
        """Traces written by an instrumented real run must re-import
        for offline obs-report analysis."""
        from repro.data.datasets import NETFLIX
        from repro.engine.backends import ProcessBackend
        from repro.engine.channels import QOnlyChannel
        from repro.engine.pipeline import EpochEngine
        from repro.obs.telemetry import Telemetry

        data = NETFLIX.scaled(3000).generate(seed=7)
        tel = Telemetry()
        backend = ProcessBackend(data, k=8, n_workers=2, seed=0)
        EpochEngine(backend, channel=QOnlyChannel(), telemetry=tel).run(2)
        path = tmp_path / "real.json"
        tel.export_chrome_trace(path)
        back = import_chrome_trace(path)
        assert len(back) == len(tel.timeline)
        assert set(back.workers()) == {"worker-0", "worker-1", "server"}


class TestExport:
    def test_writes_valid_json(self, timeline, tmp_path):
        path = tmp_path / "trace.json"
        count = export_chrome_trace(timeline, path)
        data = json.loads(path.read_text())
        assert len(data["traceEvents"]) == count
        assert data["displayTimeUnit"] == "ms"

    def test_framework_timeline_exports(self, tmp_path):
        from repro.core.config import HCCConfig
        from repro.framework import HCCMF
        from repro.data.datasets import NETFLIX
        from repro.hardware.topology import paper_workstation

        res = HCCMF(paper_workstation(16), NETFLIX, HCCConfig(k=128, epochs=2)).train()
        count = export_chrome_trace(res.timeline, tmp_path / "t.json")
        assert count > 10
