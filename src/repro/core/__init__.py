"""HCC-MF core: the paper's primary contribution.

Orchestrates heterogeneous CPU/GPU collaborative SGD-based matrix
factorization in the "asynchronous + synchronous" parameter-server mode
of paper Figure 4: a server CPU manages data distribution and
synchronization while worker CPUs/GPUs compute asynchronously on their
row-grid assignments.

The public entry point, :class:`repro.framework.HCCMF`, sits above this
package and :mod:`repro.engine`; nothing here imports either.
"""

from repro._lazy import lazy_exports

__all__ = [
    "HCCConfig",
    "CommConfig",
    "PartitionStrategy",
    "CommBackendKind",
    "TransmitMode",
    "compress_fp16",
    "decompress_fp16",
    "roundtrip_error",
    "FP16_RELATIVE_ERROR_BOUND",
    "CommModel",
    "CommPlan",
    "TimeCostModel",
    "EpochCost",
    "WorkerCost",
    "Regime",
    "PartitionPlan",
    "dp0",
    "dp1",
    "dp2",
    "even_partition",
    "exposed_sync_time",
    "ParameterServer",
    "WorkerRuntime",
    "autotune",
    "tuned_config",
    "TunedConfig",
    "TuningReport",
    "Checkpoint",
    "CheckpointVersionError",
    "save_checkpoint",
    "load_checkpoint",
    "read_checkpoint_meta",
    "resume_hogwild",
    "AdaptiveRepartitioner",
    "SlowdownEvent",
    "simulate_adaptive_run",
    "AdaptiveRunResult",
    "epochs_to_target",
    "time_to_target",
    "speedup_at_target",
    "fit_exponential",
    "ExponentialFit",
    "equalizing_partition",
    "makespan",
    "verify_theorem1",
    "Theorem1Report",
    "computing_power",
    "ideal_computing_power",
    "utilization",
    "speedup",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.core.config": (
        "HCCConfig", "CommConfig", "PartitionStrategy", "CommBackendKind",
        "TransmitMode",
    ),
    "repro.core.compression": (
        "compress_fp16", "decompress_fp16", "roundtrip_error",
        "FP16_RELATIVE_ERROR_BOUND",
    ),
    "repro.core.comm": ("CommModel", "CommPlan"),
    "repro.core.cost_model": ("TimeCostModel", "EpochCost", "WorkerCost", "Regime"),
    "repro.core.partition": (
        "PartitionPlan", "dp0", "dp1", "dp2", "even_partition", "exposed_sync_time",
    ),
    "repro.core.server": ("ParameterServer",),
    "repro.core.worker": ("WorkerRuntime",),
    "repro.core.autotune": ("autotune", "tuned_config", "TunedConfig", "TuningReport"),
    "repro.core.checkpoint": (
        "Checkpoint", "CheckpointVersionError", "save_checkpoint",
        "load_checkpoint", "read_checkpoint_meta", "resume_hogwild",
    ),
    "repro.core.adaptive": (
        "AdaptiveRepartitioner", "SlowdownEvent", "simulate_adaptive_run",
        "AdaptiveRunResult",
    ),
    "repro.core.convergence": (
        "epochs_to_target", "time_to_target", "speedup_at_target",
        "fit_exponential", "ExponentialFit",
    ),
    "repro.core.theorem": (
        "equalizing_partition", "makespan", "verify_theorem1", "Theorem1Report",
    ),
    "repro.core.metrics": (
        "computing_power", "ideal_computing_power", "utilization", "speedup",
    ),
})
