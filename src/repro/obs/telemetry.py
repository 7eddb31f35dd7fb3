"""The :class:`Telemetry` facade: one instrumented run's artifacts."""

from __future__ import annotations

import os

from repro.hardware.timeline import Timeline
from repro.obs.drift import DriftReport, HostRunInfo, compare, host_predictions
from repro.obs.exporters import prometheus_text, write_metrics_jsonl
from repro.obs.registry import MetricsRegistry


class Telemetry:
    """One instrumented run: spans, metrics, and the drift report.

    Create one, hand it to the engine, then export::

        tel = Telemetry()
        backend = ProcessBackend(data, n_workers=2)
        EpochEngine(backend, channel=QOnlyChannel(), telemetry=tel).run(4)
        tel.export_chrome_trace("run.json")       # open in Perfetto
        tel.write_metrics_jsonl("run.jsonl")
        print(tel.drift_report().render())
    """

    def __init__(self) -> None:
        self.registry = MetricsRegistry()
        self.timeline = Timeline()
        self.dropped_spans = 0
        self.host: HostRunInfo | None = None
        self._ratings = None  # retained for the drift probe, if any

    # -- populated by the instrumented executor -------------------------
    def attach_run(self, timeline: Timeline, dropped: int, host: HostRunInfo,
                   ratings=None) -> None:
        """Executor hook: install the assembled run artifacts."""
        self.timeline = timeline
        self.dropped_spans = dropped
        self.host = host
        self._ratings = ratings
        if dropped:
            self.registry.counter(
                "spans_dropped_total", "ring-capacity span drops"
            ).inc(dropped)

    # -- exporters -------------------------------------------------------
    def export_chrome_trace(self, path: str | os.PathLike) -> int:
        """Write the run's Timeline as Chrome-trace JSON (Perfetto)."""
        from repro.hardware.trace import export_chrome_trace

        return export_chrome_trace(self.timeline, path)

    def write_metrics_jsonl(self, path: str | os.PathLike) -> int:
        return write_metrics_jsonl(self.registry, path)

    def prometheus_text(self) -> str:
        return prometheus_text(self.registry)

    # -- drift -----------------------------------------------------------
    def drift_report(
        self,
        predictions=None,
        bandwidth_gbs: float | None = None,
        updates_per_second: float | None = None,
    ) -> DriftReport:
        """Join measured spans against cost-model predictions.

        With no arguments, host rates are probed on the spot (the
        PCM/Nsight stand-in probes from :mod:`repro.hardware.profiler`)
        and Eq. 2/3 predictions derived from them; pass an explicit
        ``predictions`` map (e.g. from
        :func:`predictions_from_epoch_cost`) to compare against an
        analytical platform model instead.
        """
        if self.host is None:
            raise RuntimeError("no instrumented run attached to this Telemetry")
        if predictions is None:
            from repro.hardware.profiler import (
                probe_copy_bandwidth,
                probe_update_rate,
            )

            if bandwidth_gbs is None:
                probe = probe_copy_bandwidth(nbytes=16 * 1024 * 1024, repeats=3)
                probe.record_to(self.registry, "probe_copy_bandwidth_gbs")
                bandwidth_gbs = probe.value
            if updates_per_second is None:
                if self._ratings is None:
                    raise RuntimeError(
                        "no ratings retained for the update-rate probe; pass "
                        "updates_per_second= or predictions= explicitly"
                    )
                probe = probe_update_rate(self._ratings, k=self.host.k)
                probe.record_to(self.registry, "probe_update_rate")
                updates_per_second = probe.value
            predictions = host_predictions(
                self.host, bandwidth_gbs, updates_per_second
            )
        return compare(self.timeline, predictions, self.host.epochs)
