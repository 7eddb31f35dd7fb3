"""Shared experiment-running helpers."""

from __future__ import annotations

from dataclasses import replace

from repro.core.config import CommConfig, HCCConfig
from repro.data.datasets import DatasetSpec
from repro.data.ratings import RatingMatrix
from repro.framework import HCCMF, TrainResult
from repro.hardware.specs import PROCESSOR_CATALOG
from repro.hardware.topology import Platform


def dataset_config(spec: DatasetSpec, k: int = 128, epochs: int = 20) -> HCCConfig:
    """The per-dataset HCC-MF configuration the paper's evaluation used.

    The comm-heavy R1 family gets the full strategy stack — Strategy 2
    (FP16 wire) and Strategy 3 (asynchronous computing-transmission; the
    paper attributes R1's slightly lossy training to exactly this).  The
    other datasets run the plain pipeline with the time-shared special
    worker.
    """
    heavy = spec.name.split("@")[0] in ("R1", "R1*")
    comm = CommConfig(streams=4, fp16=True) if heavy else CommConfig()
    return HCCConfig(k=k, epochs=epochs, comm=comm)


def run_hcc(
    platform: Platform,
    spec: DatasetSpec,
    config: HCCConfig | None = None,
    ratings: RatingMatrix | None = None,
    epochs: int | None = None,
) -> TrainResult:
    """Prepare and train one HCC-MF run."""
    cfg = config if config is not None else dataset_config(spec)
    if epochs is not None:
        cfg = replace(cfg, epochs=epochs)
    return HCCMF(platform, spec, cfg, ratings=ratings).train()


def single_processor_time(
    name: str,
    spec: DatasetSpec,
    epochs: int = 20,
    k: int = 128,
    threads: int | None = None,
) -> float:
    """Modeled time for one processor to train alone (Figure 3a bars).

    Independent training has no pull/push/sync: it is pure compute at
    the processor's Table 4 rate.
    """
    from repro.hardware.processor import Processor

    proc = Processor(PROCESSOR_CATALOG[name], threads=threads)
    return proc.compute_time(spec.nnz * epochs, k, spec, partition_frac=1.0, corun=False)
