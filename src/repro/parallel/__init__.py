"""Real shared-memory parallel execution substrate.

The paper implements HCC-MF with one *process* per worker and shared
pinned memory for the pull/push buffers (section 3.5).  This subpackage
reproduces those mechanics on host CPUs with
:mod:`multiprocessing.shared_memory`: a server process owns the global
feature matrices, worker processes train row-grid shards in parallel,
and pull/push are single copies through shared buffers.

This is the wall-clock execution plane; the calibrated timing plane
(:mod:`repro.hardware`) models the paper's actual CPU+GPU testbed.
"""

from repro._lazy import lazy_exports

__all__ = [
    "SharedArray",
    "SharedArraySpec",
    "SharedMemoryTrainer",
    "ParallelTrainResult",
    "MeasuredPartition",
    "measure_partition",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.parallel.shm": ("SharedArray", "SharedArraySpec"),
    "repro.parallel.executor": ("SharedMemoryTrainer", "ParallelTrainResult"),
    "repro.parallel.tuning": ("MeasuredPartition", "measure_partition"),
})
