"""repro.engine: the composable epoch pipeline both planes run on.

One epoch is the same pipeline everywhere::

    PartitionPlan -> Channel.pull -> ComputeBackend -> Channel.push -> sync

* :mod:`repro.engine.pipeline` — :class:`EpochEngine` drives the stage
  sequence and owns run-level telemetry emission;
* :mod:`repro.engine.channels` — the paper's communication strategies
  (3.4) as stackable wire codecs over the real wire buffers;
* :mod:`repro.engine.backends` — :class:`SimBackend` (in-process +
  cost-model clock) and :class:`ProcessBackend` (OS workers over shared
  memory) behind one protocol.

``EpochEngine(backend, ...).run(epochs)`` is the one way to run the
training loop — ``EpochEngine(ProcessBackend(ratings, k=, n_workers=),
channel=QOnlyChannel()).run(epochs)`` on the process plane;
``HCCMF.train`` is a thin facade over it for the sim plane.  New
epoch-loop code belongs here (enforced by hcclint rule HCC111).
"""

from repro._lazy import lazy_exports

__all__ = [
    "Channel",
    "ComputeBackend",
    "DEFAULT_BARRIER_TIMEOUT_S",
    "DoubleBufferChannel",
    "EngineResult",
    "EpochEngine",
    "Fp16Channel",
    "ProcessBackend",
    "QOnlyChannel",
    "RECOVERABLE_ERRORS",
    "STAGES",
    "SimBackend",
    "StageEvent",
    "WirePayloadError",
    "WorkerSyncError",
    "channel_for",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.engine.backends": (
        "DEFAULT_BARRIER_TIMEOUT_S", "ProcessBackend", "SimBackend",
        "WirePayloadError", "WorkerSyncError",
    ),
    "repro.engine.channels": (
        "Channel", "DoubleBufferChannel", "Fp16Channel", "QOnlyChannel",
        "channel_for",
    ),
    "repro.engine.pipeline": (
        "RECOVERABLE_ERRORS", "STAGES", "ComputeBackend", "EngineResult",
        "EpochEngine", "StageEvent",
    ),
})
