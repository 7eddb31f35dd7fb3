"""repro.resilience: failure detection, recovery, and fault injection.

HCC-MF's cost model (Eq. 1-5) assumes every worker survives every
epoch; this package is what happens when one does not
(docs/resilience.md):

* :mod:`repro.resilience.health` — classify workers as healthy /
  straggling / dead from the barrier progress stamps plus OS process
  exit codes (the health plane);
* :mod:`repro.resilience.policy` — turn a health report and a
  :class:`~repro.core.config.RecoveryPolicy` into a recovery action
  (retry with backoff, redistribute the dead shard across survivors,
  or checkpoint-and-abort); the renormalization of a partition plan
  around dead ranks is :func:`repro.core.partition.redistribute`,
  re-exported here;
* :mod:`repro.resilience.faults` — the fault-injection harness
  (:class:`FaultPlan`): kill a worker at an epoch, delay a barrier,
  drop or corrupt a wire payload — used by the tests and the
  ``repro fault-smoke`` CLI command to prove every recovery path.

The engine (:mod:`repro.engine.pipeline`) consumes all three; nothing
here imports the engine, so the dependency points one way.
"""

from repro._lazy import lazy_exports

__all__ = [
    "Fault",
    "FaultPlan",
    "HealthReport",
    "RecoveryAction",
    "ResilienceSummary",
    "TrainingAborted",
    "WorkerHealth",
    "WorkerState",
    "classify",
    "decide",
    "redistribute",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.resilience.faults": ("Fault", "FaultPlan"),
    "repro.resilience.health": (
        "HealthReport", "WorkerHealth", "WorkerState", "classify",
    ),
    "repro.resilience.policy": (
        "RecoveryAction", "ResilienceSummary", "TrainingAborted", "decide",
    ),
    "repro.core.partition": ("redistribute",),
})
