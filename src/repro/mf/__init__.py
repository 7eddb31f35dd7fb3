"""SGD-based matrix-factorization algorithms (the numeric substrate).

Implements the MF model and the three SGD algorithm families the paper
uses:

* :mod:`repro.mf.sgd` — serial SGD reference and Hogwild-style
  asynchronous SGD (the theoretical basis, Niu et al. 2011);
* :mod:`repro.mf.fpsgd` — FPSGD (Chin et al. 2015), the multi-core CPU
  baseline: a (t+1) x (t+1) block grid with a free-block scheduler;
* :mod:`repro.mf.cumf` — CuMF_SGD (Xie et al. 2017), the GPU baseline:
  batched lock-free updates, here with the authors' block-sorting
  modification.

All kernels are vectorized NumPy with explicit conflict policies so the
*semantics* (lost updates under asynchrony, block independence under
FPSGD) match the originals even though the instruction set differs.
"""

from repro._lazy import lazy_exports

__all__ = [
    "MFModel",
    "rmse",
    "regularized_loss",
    "sgd_batch_update",
    "sgd_epoch",
    "conflict_stats",
    "ConflictPolicy",
    "SerialSGD",
    "HogwildSGD",
    "TrainHistory",
    "FPSGD",
    "BlockGrid",
    "BlockScheduler",
    "CuMFSGD",
    "DSGD",
    "dsgd_epoch_time",
    "stratum_schedule",
    "NOMAD",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.mf.model": ("MFModel",),
    "repro.mf.loss": ("rmse", "regularized_loss"),
    "repro.mf.kernels": (
        "sgd_batch_update", "sgd_epoch", "conflict_stats", "ConflictPolicy",
    ),
    "repro.mf.sgd": ("SerialSGD", "HogwildSGD", "TrainHistory"),
    "repro.mf.fpsgd": ("FPSGD", "BlockGrid", "BlockScheduler"),
    "repro.mf.cumf": ("CuMFSGD",),
    "repro.mf.dsgd": ("DSGD", "dsgd_epoch_time", "stratum_schedule"),
    "repro.mf.nomad": ("NOMAD",),
})
