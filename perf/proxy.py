"""Pass-through backend proxies: where the benchmark reads the clock.

``EpochEngine`` only ever talks to its backend through the
``ComputeBackend`` protocol, so wrapping the backend is how the
benchmark times a run without touching ``src/``.  :class:`StampProxy`
(end-to-end pass) reads ``perf_counter`` three times per epoch and does
nothing else; :class:`TraceProxy` (traced pass) records a span around
every protocol call, parented to a per-epoch span.
"""

from __future__ import annotations

import time

_STAGES = ("pull", "compute", "push", "sync")


class _Passthrough:
    """Delegate every attribute the engine reads or writes to the backend."""

    _own = ("_backend",)

    def __init__(self, backend):
        object.__setattr__(self, "_backend", backend)

    def __getattr__(self, name):
        return getattr(self._backend, name)

    def __setattr__(self, name, value):
        if name in type(self)._own:
            object.__setattr__(self, name, value)
        else:
            setattr(self._backend, name, value)


class StampProxy(_Passthrough):
    """End-to-end pass: stamp open entry, pull entry, sync and evaluate return."""

    _own = ("_backend", "open_entry", "first_pull_return", "pull_entries",
            "sync_returns", "eval_returns")

    def __init__(self, backend):
        super().__init__(backend)
        self.open_entry = None
        self.first_pull_return = None
        self.pull_entries: list[float] = []
        self.sync_returns: list[float] = []
        self.eval_returns: list[float] = []

    def open(self, *args, **kwargs):
        self.open_entry = time.perf_counter()
        return self._backend.open(*args, **kwargs)

    def pull(self, epoch):
        self.pull_entries.append(time.perf_counter())
        detail = self._backend.pull(epoch)
        if self.first_pull_return is None:
            self.first_pull_return = time.perf_counter()
        return detail

    def sync(self, epoch):
        detail = self._backend.sync(epoch)
        self.sync_returns.append(time.perf_counter())
        return detail

    def evaluate(self, epoch):
        rmse = self._backend.evaluate(epoch)
        self.eval_returns.append(time.perf_counter())
        return rmse

    def epoch_durations(self) -> list[float]:
        """pull entry -> sync return per epoch (evaluate excluded)."""
        return [s - p for p, s in zip(self.pull_entries, self.sync_returns)]


class TraceProxy(_Passthrough):
    """Traced pass: one span per protocol call, one parent span per epoch.

    An epoch span runs from ``pull`` entry to the next ``pull`` entry
    (or ``finalize``), so it covers evaluate and any checkpoint write —
    the wall a user of ``EpochEngine`` pays per epoch.
    """

    _own = ("_backend", "log", "run_span", "epoch_span", "epoch_spans", "details")

    def __init__(self, backend, log):
        super().__init__(backend)
        self.log = log
        self.run_span = None    # set by the caller once the run's span is open
        self.epoch_span = None
        self.epoch_spans: list[int] = []
        self.details: list[tuple[int, str, dict]] = []

    def _close_epoch(self):
        if self.epoch_span is not None:
            self.log.end(self.epoch_span)
            self.epoch_span = None

    def _call(self, name, parent, trace_id, *args, **kwargs):
        with self.log.span(f"engine.backends.{name}", parent, trace_id):
            return getattr(self._backend, name)(*args, **kwargs)

    def open(self, *args, **kwargs):
        return self._call("open", self.run_span, "setup", *args, **kwargs)

    def pull(self, epoch):
        self._close_epoch()
        self.epoch_span = self.log.begin("epoch", self.run_span, f"epoch-{epoch}")
        self.epoch_spans.append(self.epoch_span)
        return self._stage("pull", epoch)

    def _stage(self, name, epoch):
        detail = self._call(name, self.epoch_span, f"epoch-{epoch}", epoch)
        self.details.append((epoch, name, dict(detail or {})))
        return detail

    def compute(self, epoch):
        return self._stage("compute", epoch)

    def push(self, epoch):
        return self._stage("push", epoch)

    def sync(self, epoch):
        return self._stage("sync", epoch)

    def evaluate(self, epoch):
        return self._call("evaluate", self.epoch_span, f"epoch-{epoch}", epoch)

    def finalize(self, telemetry):
        self._close_epoch()
        return self._call("finalize", self.run_span, "teardown", telemetry)

    def close(self):
        self._close_epoch()
        return self._call("close", self.run_span, "teardown")
