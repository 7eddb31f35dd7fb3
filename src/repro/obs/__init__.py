"""repro.obs — the runtime telemetry plane.

Observability for *real* runs, mirroring what the paper gets from Intel
PCM and Nsight Systems:

* :mod:`repro.obs.spans` — per-worker shared-memory span rings; real
  pull/compute/push/sync spans assemble into a
  :class:`~repro.hardware.timeline.Timeline` that the Chrome-trace
  exporter renders in Perfetto;
* :mod:`repro.obs.registry` — counters / gauges / histograms plus
  structured events;
* :mod:`repro.obs.exporters` — JSONL and Prometheus text renderers;
* :mod:`repro.obs.drift` — measured phase times joined against the
  Eq. 1-5 cost model, as a per-run report;
* :mod:`repro.obs.bench` — :func:`host_fingerprint`, the numpy/BLAS
  build the benchmark (``python3 -m perf``) records with each run;
* :mod:`repro.obs.profile` — stage-attributed cProfile hooks
  (``EpochEngine(profile=...)``) and the hotpath report.

:class:`Telemetry` is the facade: pass one to
``EpochEngine(..., telemetry=...)`` or ``HCCMF.train(telemetry=...)``
and everything above is populated for that run.  Passing ``None`` (the
default) makes every span scope on both planes a no-op.
"""

from repro._lazy import lazy_exports

__all__ = [
    "Telemetry",
    "MetricsRegistry",
    "Counter",
    "Gauge",
    "Histogram",
    "Sample",
    "SpanRing",
    "SpanRingSpec",
    "SpanRecord",
    "SpanRecorder",
    "assemble_timeline",
    "DriftReport",
    "DriftRow",
    "HostRunInfo",
    "compare",
    "host_predictions",
    "predictions_from_epoch_cost",
    "jsonl_lines",
    "write_metrics_jsonl",
    "read_metrics_jsonl",
    "prometheus_text",
    "write_prometheus",
    "host_fingerprint",
    "StageProfiler",
    "StageProfileReport",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.obs.telemetry": ("Telemetry",),
    "repro.obs.bench": ("host_fingerprint",),
    "repro.obs.drift": (
        "DriftReport", "DriftRow", "HostRunInfo", "compare", "host_predictions",
        "predictions_from_epoch_cost",
    ),
    "repro.obs.exporters": (
        "jsonl_lines", "prometheus_text", "read_metrics_jsonl",
        "write_metrics_jsonl", "write_prometheus",
    ),
    "repro.obs.registry": (
        "Counter", "Gauge", "Histogram", "MetricsRegistry", "Sample",
    ),
    "repro.obs.profile": ("StageProfileReport", "StageProfiler"),
    "repro.obs.spans": (
        "SpanRecord", "SpanRecorder", "SpanRing", "SpanRingSpec",
        "assemble_timeline",
    ),
})
