"""repro.obs — the runtime telemetry plane.

Observability for *real* runs, mirroring what the paper gets from Intel
PCM and Nsight Systems:

* :mod:`repro.obs.spans` — per-worker shared-memory span rings; real
  pull/compute/push/sync spans assemble into a
  :class:`~repro.hardware.timeline.Timeline` that the Chrome-trace
  exporter renders in Perfetto;
* :mod:`repro.obs.registry` — counters / gauges / histograms plus
  structured events;
* :mod:`repro.obs.exporters` — the JSONL metrics writer and reader;
* :mod:`repro.obs.drift` — measured phase times joined against the
  Eq. 1-5 cost model, as a per-run report;
* :mod:`repro.obs.bench` — :func:`host_fingerprint`, the numpy/BLAS
  build the benchmark (``python3 -m perf``) records with each run;
* :mod:`repro.obs.profile` — stage-attributed cProfile hooks
  (``EpochEngine(profile=...)``) and the hotpath report.

:class:`~repro.obs.telemetry.Telemetry` is the facade: pass one to
``EpochEngine(..., telemetry=...)`` or ``HCCMF.train(telemetry=...)``
and everything above is populated for that run.  Passing ``None`` (the
default) makes every span scope on both planes a no-op.

``Telemetry`` is the one name this package exports, for callers that
import it as ``repro.obs.Telemetry``; every other name is imported from
the module that defines it.
"""

from repro._lazy import lazy_exports

__all__ = ["Telemetry"]

__getattr__, __dir__ = lazy_exports(__name__, {"repro.obs.telemetry": ("Telemetry",)})
