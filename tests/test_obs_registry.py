"""Unit tests for the metrics registry and its JSONL exporter."""

import json

import pytest

from repro.obs.exporters import (
    jsonl_lines,
    read_metrics_jsonl,
    write_metrics_jsonl,
)
from repro.obs.registry import MetricsRegistry


@pytest.fixture
def registry():
    return MetricsRegistry()


class TestCounter:
    def test_inc_accumulates(self, registry):
        c = registry.counter("updates_total")
        c.inc(5)
        c.inc(3)
        assert c.value() == 8

    def test_labels_are_independent_series(self, registry):
        c = registry.counter("updates_total")
        c.inc(5, worker="w0")
        c.inc(7, worker="w1")
        assert c.value(worker="w0") == 5
        assert c.value(worker="w1") == 7
        assert c.series_count() == 2

    def test_negative_increment_rejected(self, registry):
        with pytest.raises(ValueError):
            registry.counter("updates_total").inc(-1)

    def test_label_order_does_not_matter(self, registry):
        c = registry.counter("c")
        c.inc(1, a=1, b=2)
        c.inc(1, b=2, a=1)
        assert c.value(a=1, b=2) == 2


class TestGauge:
    def test_set_overwrites(self, registry):
        g = registry.gauge("epoch_rmse")
        g.set(1.2, epoch=0)
        g.set(1.1, epoch=0)
        assert g.value(epoch=0) == pytest.approx(1.1)


class TestHistogram:
    def test_count_sum_mean(self, registry):
        h = registry.histogram("merge_seconds")
        for v in (0.01, 0.02, 0.03):
            h.observe(v)
        assert h.count() == 3
        assert h.sum() == pytest.approx(0.06)
        assert h.mean() == pytest.approx(0.02)

    def test_bucket_samples_are_cumulative(self, registry):
        h = registry.histogram("h", buckets=(1.0, 2.0))
        h.observe(0.5)
        h.observe(1.5)
        h.observe(99.0)
        by_le = {
            dict(s.labels)["le"]: s.value
            for s in h.samples()
            if s.name == "h_bucket"
        }
        assert by_le["1"] == 1
        assert by_le["2"] == 2
        assert by_le["+Inf"] == 3

    def test_inf_bucket_appended_when_missing(self, registry):
        h = registry.histogram("h", buckets=(1.0,))
        assert h.buckets[-1] == float("inf")

    def test_unsorted_buckets_rejected(self, registry):
        with pytest.raises(ValueError):
            registry.histogram("h", buckets=(2.0, 1.0))


class TestRegistry:
    def test_get_or_create_returns_same_metric(self, registry):
        assert registry.counter("c") is registry.counter("c")

    def test_kind_clash_raises(self, registry):
        registry.counter("x")
        with pytest.raises(TypeError):
            registry.gauge("x")

    def test_invalid_name_rejected(self, registry):
        with pytest.raises(ValueError):
            registry.counter("bad name!")

    def test_contains_and_get(self, registry):
        registry.gauge("g")
        assert "g" in registry
        assert registry.get("g").kind == "gauge"
        assert "missing" not in registry

    def test_events_are_ordered_and_stamped(self, registry):
        registry.event("epoch", epoch=0)
        registry.event("epoch", epoch=1)
        events = registry.events
        assert [e["seq"] for e in events] == [0, 1]
        assert events[0]["t"] <= events[1]["t"]
        assert events[1]["epoch"] == 1

    def test_event_field_named_name_allowed(self, registry):
        """The probe exporter logs a field literally called ``name``."""
        rec = registry.event("probe", name="bandwidth")
        assert rec["name"] == "bandwidth"


class TestJsonlExport:
    def test_round_trip(self, registry, tmp_path):
        registry.counter("updates_total").inc(10, worker="w0")
        registry.event("epoch", epoch=0, rmse=1.5)
        path = tmp_path / "m.jsonl"
        n = write_metrics_jsonl(registry, path)
        assert n == 2
        events, samples = read_metrics_jsonl(path)
        assert events[0]["event"] == "epoch"
        assert samples[0]["name"] == "updates_total"
        assert samples[0]["labels"] == {"worker": "w0"}
        assert samples[0]["value"] == 10

    def test_every_line_is_json(self, registry, tmp_path):
        registry.histogram("h").observe(0.1)
        path = tmp_path / "m.jsonl"
        write_metrics_jsonl(registry, path)
        for line in path.read_text().splitlines():
            json.loads(line)

    def test_lines_order_events_first(self, registry):
        registry.counter("c").inc()
        registry.event("e")
        lines = [json.loads(line) for line in jsonl_lines(registry)]
        assert lines[0]["type"] == "event"
        assert lines[-1]["type"] == "sample"

