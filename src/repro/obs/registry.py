"""Metrics registry: counters, gauges, histograms, structured events.

The runtime telemetry plane's metrics client — kept dependency-free so
workers and benches can always import it.  Metrics
are named, optionally labelled (``counter.inc(1, worker="worker-0")``),
and collected as flat :class:`Sample` records that the exporters
(:mod:`repro.obs.exporters`) render as JSONL.

Besides point-in-time metric values, a registry records **structured
events**: ordered dicts (one per epoch, probe, run, ...) that become
one JSONL line each.  Events are what you grep; metrics are what you
plot.

Timestamps use ``time.perf_counter()`` (monotonic), never wall clock —
the hcclint ``wall-clock`` rule (HCC110) enforces this for all timing
code.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Iterator

#: histogram bucket upper bounds tuned for phase timings (seconds)
DEFAULT_BUCKETS = (
    1e-5, 1e-4, 1e-3, 1e-2, 0.1, 0.5, 1.0, 5.0, 30.0, float("inf"),
)

LabelKey = tuple[tuple[str, str], ...]


def _label_key(labels: dict[str, object]) -> LabelKey:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


@dataclass(frozen=True)
class Sample:
    """One exported metric point: name, labels, value."""

    name: str
    labels: LabelKey
    value: float

    def labels_dict(self) -> dict[str, str]:
        return dict(self.labels)


class Metric:
    """Base class: a named metric with one value series per label set."""

    kind = "untyped"

    def __init__(self, name: str, help: str = ""):
        if not name or not name.replace("_", "").isalnum():
            raise ValueError(f"invalid metric name {name!r}")
        self.name = name
        self.help = help
        self._series: dict[LabelKey, float] = {}

    def value(self, **labels: object) -> float:
        return self._series[_label_key(labels)]

    def samples(self) -> Iterator[Sample]:
        for key, value in sorted(self._series.items()):
            yield Sample(self.name, key, value)

    def series_count(self) -> int:
        return len(self._series)


class Counter(Metric):
    """Monotonically increasing count (updates applied, bytes moved)."""

    kind = "counter"

    def inc(self, amount: float = 1.0, **labels: object) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        key = _label_key(labels)
        self._series[key] = self._series.get(key, 0.0) + amount


class Gauge(Metric):
    """Point-in-time value (per-epoch RMSE, updates/s)."""

    kind = "gauge"

    def set(self, value: float, **labels: object) -> None:
        self._series[_label_key(labels)] = float(value)


class Histogram(Metric):
    """Cumulative-bucket distribution (barrier waits, merge times)."""

    kind = "histogram"

    def __init__(self, name: str, help: str = "", buckets=DEFAULT_BUCKETS):
        super().__init__(name, help)
        bounds = tuple(float(b) for b in buckets)
        if sorted(bounds) != list(bounds) or len(set(bounds)) != len(bounds):
            raise ValueError("buckets must be strictly increasing")
        if not bounds or bounds[-1] != float("inf"):
            bounds = bounds + (float("inf"),)
        self.buckets = bounds
        self._counts: dict[LabelKey, list[int]] = {}
        self._sums: dict[LabelKey, float] = {}
        self._totals: dict[LabelKey, int] = {}

    def observe(self, value: float, **labels: object) -> None:
        key = _label_key(labels)
        counts = self._counts.setdefault(key, [0] * len(self.buckets))
        for i, bound in enumerate(self.buckets):
            if value <= bound:
                counts[i] += 1
                break
        self._sums[key] = self._sums.get(key, 0.0) + float(value)
        self._totals[key] = self._totals.get(key, 0) + 1

    def count(self, **labels: object) -> int:
        return self._totals.get(_label_key(labels), 0)

    def sum(self, **labels: object) -> float:
        return self._sums.get(_label_key(labels), 0.0)

    def mean(self, **labels: object) -> float:
        n = self.count(**labels)
        return self.sum(**labels) / n if n else 0.0

    def samples(self) -> Iterator[Sample]:
        for key in sorted(self._totals):
            cumulative = 0
            for bound, n in zip(self.buckets, self._counts[key]):
                cumulative += n
                le = "+Inf" if bound == float("inf") else f"{bound:g}"
                yield Sample(
                    f"{self.name}_bucket", key + (("le", le),), float(cumulative)
                )
            yield Sample(f"{self.name}_sum", key, self._sums[key])
            yield Sample(f"{self.name}_count", key, float(self._totals[key]))


class MetricsRegistry:
    """Create-or-get metric factory plus the structured-event log."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self._metrics: dict[str, Metric] = {}
        self._events: list[dict] = []
        self._clock = clock
        self._t0 = clock()

    # -- factories -------------------------------------------------------
    def _get_or_create(self, cls: type, name: str, help: str, **kwargs) -> Metric:
        existing = self._metrics.get(name)
        if existing is not None:
            if not isinstance(existing, cls):
                raise TypeError(
                    f"metric {name!r} already registered as {existing.kind}"
                )
            return existing
        metric = cls(name, help, **kwargs)
        self._metrics[name] = metric
        return metric

    def counter(self, name: str, help: str = "") -> Counter:
        return self._get_or_create(Counter, name, help)

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._get_or_create(Gauge, name, help)

    def histogram(self, name: str, help: str = "", buckets=DEFAULT_BUCKETS) -> Histogram:
        return self._get_or_create(Histogram, name, help, buckets=buckets)

    # -- events ----------------------------------------------------------
    def event(self, name: str, /, **fields: object) -> dict:
        """Append a structured event; ``t`` is seconds since registry birth."""
        record = {
            "event": name,
            "seq": len(self._events),
            "t": self._clock() - self._t0,
            **fields,
        }
        self._events.append(record)
        return record

    @property
    def events(self) -> list[dict]:
        return list(self._events)

    # -- introspection -----------------------------------------------------
    def get(self, name: str) -> Metric:
        return self._metrics[name]

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def metrics(self) -> list[Metric]:
        return [self._metrics[name] for name in sorted(self._metrics)]

    def samples(self) -> list[Sample]:
        out: list[Sample] = []
        for metric in self.metrics():
            out.extend(metric.samples())
        return out
