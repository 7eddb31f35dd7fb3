"""HCC-MF: multi-CPU/GPU collaborative computing for SGD-based MF.

A reproduction of Huang et al., "A Novel Multi-CPU/GPU Collaborative
Computing Framework for SGD-based Matrix Factorization" (ICPP 2021).

Quickstart::

    from repro import HCCMF, HCCConfig, NETFLIX, paper_workstation

    ratings = NETFLIX.scaled(50_000).generate(seed=0)
    hcc = HCCMF(paper_workstation(), NETFLIX, HCCConfig(k=16, epochs=10),
                ratings=ratings)
    result = hcc.train()
    print(result.rmse_history[-1], result.utilization)

Subpackages:

* :mod:`repro.framework` — ``HCCMF``: the cost model's timing plane
  beside a numeric run of the engine, above both.
* :mod:`repro.core` — the HCC-MF model: cost model, DP0/DP1/DP2
  partitioning, communication strategies, parameter server.
* :mod:`repro.mf` — SGD-based MF algorithms (Hogwild, FPSGD, CuMF_SGD).
* :mod:`repro.hardware` — the calibrated multi-CPU/GPU platform model.
* :mod:`repro.data` — rating matrices, synthetic datasets, grids.
* :mod:`repro.engine` — the one epoch loop (``EpochEngine``) over the
  sim and the multi-process backends.
* :mod:`repro.parallel` — shared-memory segments, wall-clock DP0/DP1.
* :mod:`repro.obs` — runtime telemetry: span tracing of real runs,
  metrics registry, cost-model drift reports.
* :mod:`repro.experiments` — regenerates every paper table and figure.
* :mod:`repro.analysis` — hcclint static analysis + dynamic race
  detection for the framework's concurrency and cost-model invariants.
"""

from repro._lazy import lazy_exports

__version__ = "1.0.0"

__all__ = [
    "HCCMF",
    "HCCConfig",
    "CommConfig",
    "PartitionStrategy",
    "TransmitMode",
    "CommBackendKind",
    "TrainResult",
    "TimeCostModel",
    "PartitionPlan",
    "dp0",
    "dp1",
    "dp2",
    "computing_power",
    "utilization",
    "RatingMatrix",
    "DatasetSpec",
    "NETFLIX",
    "YAHOO_R1",
    "R1_STAR",
    "YAHOO_R2",
    "MOVIELENS_20M",
    "generate_low_rank",
    "Platform",
    "Processor",
    "paper_workstation",
    "single_processor",
    "MFModel",
    "HogwildSGD",
    "FPSGD",
    "CuMFSGD",
    "EpochEngine",
    "ProcessBackend",
    "QOnlyChannel",
    "Telemetry",
    "__version__",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.framework": ("HCCMF", "TrainResult"),
    "repro.core": (
        "HCCConfig", "CommConfig", "PartitionStrategy", "TransmitMode",
        "CommBackendKind", "TimeCostModel", "PartitionPlan", "dp0",
        "dp1", "dp2", "computing_power", "utilization",
    ),
    "repro.data": (
        "RatingMatrix", "DatasetSpec", "NETFLIX", "YAHOO_R1", "R1_STAR", "YAHOO_R2",
        "MOVIELENS_20M", "generate_low_rank",
    ),
    "repro.hardware": (
        "Platform", "Processor", "paper_workstation", "single_processor",
    ),
    "repro.mf": ("MFModel", "HogwildSGD", "FPSGD", "CuMFSGD"),
    "repro.obs": ("Telemetry",),
    "repro.engine": ("EpochEngine", "ProcessBackend", "QOnlyChannel"),
})
