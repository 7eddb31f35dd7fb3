"""Snapshot store: load checkpoints, hot-swap them under live traffic.

The serving plane reads models that the training plane keeps
overwriting (Joshi et al.'s asynchronous parameter exchange, PAPERS.md:
parameters update *underneath* consumers without a global pause).  The
contract here is the read-side half of that design:

* a reader always sees one **consistent** ``(P, Q, version)`` triple —
  an immutable :class:`ModelSnapshot` grabbed in a single reference
  read, never a P from one checkpoint paired with a Q from another;
* a failed swap (missing path, torn/corrupt file, non-finite factor,
  wrong format version) **degrades to the last good snapshot** and
  increments the ``serving_swap_failed`` counter — traffic keeps being
  answered from the model that was already serving, and the failure is
  observable instead of fatal;
* writers (swap calls) serialize on a lock; readers take no lock at
  all — publishing a snapshot is one reference assignment, which is
  atomic under the CPython memory model.

Checkpoint bytes come from :mod:`repro.core.checkpoint`: one
crash-atomic, checksummed file per checkpoint, whose every array byte
is CRC-checked and scanned for non-finite values on every load.  A
snapshot's P and Q are views over a read-only mapping of that file, not
copies of it, so no reader can tear a snapshot that other threads are
scoring against, two snapshots of one file share its pages, and a
replaced snapshot is unmapped when its last reader lets go of it.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

import numpy as np

from repro.core.checkpoint import CheckpointVersionError, load_checkpoint
from repro.core.compression import compress_fp16, decompress_fp16
from repro.obs.registry import MetricsRegistry


class ServingError(RuntimeError):
    """The serving plane cannot answer (e.g. no snapshot ever loaded)."""


#: swap-failure classification, the ``reason`` label on
#: ``serving_swap_failed`` (docs/serving.md lists what each covers)
SWAP_FAILURE_REASONS = ("missing", "version-mismatch", "corrupt")


@dataclass(frozen=True)
class ModelSnapshot:
    """One immutable served model: the consistent ``(P, Q, version)`` triple.

    ``version`` is assigned by the owning :class:`ModelStore` and
    increases by one per successful swap, so every response can name
    exactly which model produced it.  A snapshot published by the store
    holds views over a read-only mapping of its checkpoint file, so its
    lifetime is the mapping's: the file's pages stay reachable, whatever
    is renamed over its path, until the last reference to the snapshot
    (or to its P or Q) is dropped.  :meth:`quantized` derives the
    FP16-wire factors lazily, as a private copy cached on the snapshot.
    """

    P: np.ndarray
    Q: np.ndarray
    version: int
    epoch: int
    path: str
    config: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.P.ndim != 2 or self.Q.ndim != 2 or self.P.shape[1] != self.Q.shape[0]:
            raise ValueError(
                f"inconsistent factors: P is {self.P.shape}, Q is {self.Q.shape}"
            )
        if self.version < 1:
            raise ValueError("snapshot version starts at 1")

    @property
    def m(self) -> int:
        return self.P.shape[0]

    @property
    def n(self) -> int:
        return self.Q.shape[1]

    @property
    def k(self) -> int:
        return self.P.shape[1]

    def quantized(self) -> tuple[np.ndarray, np.ndarray]:
        """The FP16-precision factors: wire-codec semantics, FP32 compute.

        Values are rounded through IEEE binary16 exactly as the FP16
        wire channel would transmit them (clamp to the finite range,
        round to nearest half-precision), then held as FP32 so the
        scoring matmul accumulates at full precision — the same
        FP32-compute / FP16-precision split as training Strategy 2.
        Computed once per snapshot and cached; the cached arrays are
        frozen like the originals.
        """
        cached = getattr(self, "_quantized", None)
        if cached is None:
            cached = (
                decompress_fp16(compress_fp16(self.P)),
                decompress_fp16(compress_fp16(self.Q)),
            )
            for arr in cached:
                arr.flags.writeable = False
            # idempotent publish: racing threads compute equal pairs,
            # and the dataclass is frozen so this is the one mutation
            object.__setattr__(self, "_quantized", cached)
        return cached


@dataclass(frozen=True)
class SwapResult:
    """What one :meth:`ModelStore.swap` call did."""

    ok: bool
    version: int            # the version now serving (unchanged on failure)
    path: str
    reason: str | None = None   # one of SWAP_FAILURE_REASONS on failure
    error: str | None = None


def _classify_failure(exc: Exception) -> str:
    if isinstance(exc, FileNotFoundError):
        return "missing"
    if isinstance(exc, CheckpointVersionError):
        return "version-mismatch"
    return "corrupt"


class ModelStore:
    """Loads checkpoints and atomically publishes them to readers.

    One store serves one model lineage.  ``snapshot()`` is the entire
    read-side API: it returns the current :class:`ModelSnapshot`, and
    everything a request touches must come from that one object (the
    :class:`~repro.serving.scorer.Scorer` grabs it exactly once per
    batch).  ``swap(path)`` is the write side; it never raises for a
    bad checkpoint — it reports, counts, and keeps serving.
    """

    def __init__(self, path: str | None = None, *,
                 registry: MetricsRegistry | None = None):
        self.registry = registry if registry is not None else MetricsRegistry()
        self._lock = threading.Lock()
        self._snapshot: ModelSnapshot | None = None
        if path is not None:
            self.load(path)

    # -- read side -------------------------------------------------------
    def snapshot(self) -> ModelSnapshot:
        """The current snapshot: one reference read, no lock."""
        snap = self._snapshot
        if snap is None:
            raise ServingError("no model loaded: call load() before serving")
        return snap

    @property
    def version(self) -> int:
        """Version of the serving snapshot (0 before the first load)."""
        snap = self._snapshot
        return 0 if snap is None else snap.version

    # -- write side ------------------------------------------------------
    def load(self, path: str) -> ModelSnapshot:
        """First load (or a must-succeed swap): raises on failure."""
        result = self.swap(path)
        if not result.ok:
            raise ServingError(
                f"cannot load checkpoint {path} ({result.reason}): {result.error}"
            )
        return self.snapshot()

    def swap(self, path: str) -> SwapResult:
        """Atomically publish the checkpoint at ``path``.

        On any failure the last good snapshot keeps serving, the
        ``serving_swap_failed`` counter gains a classified increment,
        and the result says what went wrong — a swap is never allowed
        to take the service down.
        """
        try:
            ckpt = load_checkpoint(path, readonly=True)
        except Exception as exc:
            reason = _classify_failure(exc)
            self.registry.counter(
                "serving_swap_failed",
                help="hot-swaps rejected; last good snapshot kept serving",
            ).inc(reason=reason)
            self.registry.event(
                "serving_swap", ok=False, path=str(path),
                reason=reason, error=str(exc), version=self.version,
            )
            return SwapResult(ok=False, version=self.version, path=str(path),
                              reason=reason, error=str(exc))
        with self._lock:
            snap = ModelSnapshot(
                P=ckpt.model.P,
                Q=ckpt.model.Q,
                version=self.version + 1,
                epoch=ckpt.epoch,
                path=str(path),
                config=dict(ckpt.config),
            )
            self._snapshot = snap
        self.registry.counter(
            "serving_swap_total", help="successful snapshot hot-swaps",
        ).inc()
        self.registry.event(
            "serving_swap", ok=True, path=str(path),
            version=snap.version, epoch=snap.epoch,
        )
        return SwapResult(ok=True, version=snap.version, path=str(path))

    def swap_failures(self) -> float:
        """Total ``serving_swap_failed`` count across reasons (0 if none)."""
        if "serving_swap_failed" not in self.registry:
            return 0.0
        counter = self.registry.get("serving_swap_failed")
        return sum(s.value for s in counter.samples())
