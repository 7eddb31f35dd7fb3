"""Ablation studies for the design choices DESIGN.md calls out.

Beyond the paper's own tables and figures, these sweeps isolate each
design decision:

* :func:`ablate_streams` — how many async streams does Strategy 3 need?
* :func:`ablate_lambda` — sensitivity of the DP1/DP2 regime switch to
  the paper's threshold lambda = 10 (Eq. 5).
* :func:`ablate_latent_dim` — how the latent dimension k moves the
  comm/compute balance (Eq. 2's (16k+4) vs 2k(m+n) terms).
* :func:`ablate_heterogeneous_baselines` — HCC-MF's throughput-aware
  partition vs DSGD's equal split (the related-work critique: bucket
  effect on heterogeneous processors) and NOMAD's column-passing
  traffic vs HCC-MF's Q-only traffic.
* :func:`extension_q_rotate` — the future-work ring-rotation mode vs
  Q-only on the datasets where the Table 6 limitation bites.
"""

from __future__ import annotations

import numpy as np

from repro.core.config import (
    CommConfig,
    HCCConfig,
    TransmitMode,
)
from repro.data.datasets import DatasetSpec, MOVIELENS_20M, NETFLIX, YAHOO_R1
from repro.experiments.platforms import workers_platform
from repro.experiments.tables import ExperimentResult
from repro.framework import HCCMF
from repro.hardware.topology import paper_workstation
from repro.mf.dsgd import dsgd_epoch_time


def ablate_streams(
    dataset: DatasetSpec = YAHOO_R1,
    max_streams: int = 8,
    k: int = 128,
    epochs: int = 20,
) -> ExperimentResult:
    """Epoch time and utilization as Strategy 3's stream count grows."""
    result = ExperimentResult(
        "ablate-streams",
        f"Async stream count sweep on {dataset.name}",
        ["streams", "epoch_ms", "exposed_sync_ms", "utilization"],
    )
    for streams in range(1, max_streams + 1):
        cfg = HCCConfig(k=k, epochs=epochs, comm=CommConfig(streams=streams))
        res = HCCMF(paper_workstation(16), dataset, cfg).train()
        result.add_row(
            streams,
            res.epoch_cost.total * 1e3,
            res.epoch_cost.exposed_sync * 1e3,
            res.utilization,
        )
    result.add_note(
        "expected: monotone improvement with sharply diminishing returns "
        "past ~4 streams (the paper uses a handful)"
    )
    return result


def ablate_lambda(
    dataset: DatasetSpec = NETFLIX,
    thresholds: tuple[float, ...] = (1.0, 3.0, 10.0, 30.0, 100.0),
    k: int = 128,
    epochs: int = 20,
) -> ExperimentResult:
    """Eq. 5's lambda: when does AUTO switch from DP1 to DP2?"""
    result = ExperimentResult(
        "ablate-lambda",
        f"Regime-threshold sweep on {dataset.name}",
        ["lambda", "chosen_strategy", "epoch_ms"],
    )
    for lam in thresholds:
        cfg = HCCConfig(k=k, epochs=epochs, lambda_threshold=lam)
        hcc = HCCMF(paper_workstation(16), dataset, cfg)
        plan = hcc.prepare()
        res = hcc.train()
        result.add_row(lam, plan.strategy, res.epoch_cost.total * 1e3)
    result.add_note(
        "the paper picks lambda = 10; the sweep shows where the DP1->DP2 "
        "crossover actually falls for this dataset"
    )
    return result


def ablate_latent_dim(
    dataset: DatasetSpec = NETFLIX,
    dims: tuple[int, ...] = (16, 32, 64, 128, 256),
    epochs: int = 20,
) -> ExperimentResult:
    """k sweep: compute scales with (16k+4), comm with 2k(m+n) (Eq. 2)."""
    result = ExperimentResult(
        "ablate-k",
        f"Latent-dimension sweep on {dataset.name}",
        ["k", "epoch_ms", "comm_fraction", "utilization"],
    )
    for k in dims:
        cfg = HCCConfig(k=k, epochs=epochs)
        res = HCCMF(paper_workstation(16), dataset, cfg).train()
        comm_fraction = res.comm_time / (res.comm_time + epochs * res.epoch_cost.compute_total)
        result.add_row(k, res.epoch_cost.total * 1e3, comm_fraction, res.utilization)
    result.add_note(
        "both cost terms are ~linear in k, so the comm fraction is nearly "
        "k-invariant (Eq. 2) — the dataset shape, not k, decides the regime"
    )
    return result


def ablate_heterogeneous_baselines(
    dataset: DatasetSpec = NETFLIX,
    k: int = 128,
    epochs: int = 20,
) -> ExperimentResult:
    """HCC-MF's partition vs DSGD's equal split on heterogeneous workers.

    DSGD strata end at barriers, so with an equal block grid the epoch
    runs at the *slowest* processor's pace (the related-work critique).
    The comparison uses the same calibrated worker rates for both.
    """
    result = ExperimentResult(
        "ablate-baselines",
        f"Heterogeneous scheduling: HCC-MF vs DSGD equal split ({dataset.name})",
        ["scheme", "epoch_ms", "vs_hcc"],
    )
    platform = workers_platform(4)
    cfg = HCCConfig(k=k, epochs=epochs)
    hcc = HCCMF(platform, dataset, cfg).train()
    hcc_epoch = hcc.epoch_cost.total

    rates = [
        w.update_rate(k, dataset, partition_frac=1.0 / platform.n_workers, corun=True)
        for w in platform.workers
    ]
    p = len(rates)
    # DSGD: uniform p x p block grid over the same nnz
    block_nnz = np.full((p, p), dataset.nnz / (p * p))
    dsgd_epoch = dsgd_epoch_time(block_nnz, rates, barrier_cost=50e-6)

    # an idealized DSGD that magically knew the rates (column-proportional
    # blocks): isolates the barrier cost from the imbalance cost
    x = np.asarray(rates) / np.sum(rates)
    prop_nnz = np.outer(x, np.full(p, 1.0 / p)) * dataset.nnz
    dsgd_prop = dsgd_epoch_time(prop_nnz, rates, barrier_cost=50e-6)

    result.add_row("HCC-MF (AUTO partition)", hcc_epoch * 1e3, 1.0)
    result.add_row("DSGD (equal blocks)", dsgd_epoch * 1e3, dsgd_epoch / hcc_epoch)
    result.add_row(
        "DSGD (rate-proportional blocks)", dsgd_prop * 1e3, dsgd_prop / hcc_epoch
    )
    result.add_note(
        "equal-split DSGD pays the bucket effect at every stratum barrier; "
        "the rate-proportional variant is a lower bound that ignores "
        "DSGD's own inter-stratum parameter movement (HCC's number "
        "includes all pull/push/sync)"
    )
    return result


def extension_q_rotate(
    dataset: DatasetSpec = MOVIELENS_20M,
    k: int = 128,
    epochs: int = 20,
    max_workers: int = 4,
) -> ExperimentResult:
    """The future-work fix: ring-rotated Q vs Q-only as workers scale.

    Table 6 showed Q-only cannot profit from added workers when comm ~
    compute; Q_ROTATE's per-hop transfers overlap rotation steps and
    drop the server sync, so total time keeps falling with scale.
    """
    result = ExperimentResult(
        "extension-q-rotate",
        f"Future work: ring-rotated Q ownership on {dataset.name}",
        ["workers", "mode", "total_s", "epoch_ms", "utilization"],
    )
    for n in range(1, max_workers + 1):
        for label, mode in (("Q-only", TransmitMode.Q_ONLY), ("Q-rotate", TransmitMode.Q_ROTATE)):
            cfg = HCCConfig(k=k, epochs=epochs, comm=CommConfig(transmit=mode))
            res = HCCMF(workers_platform(n), dataset, cfg).train()
            result.add_row(
                n, label, res.total_time, res.epoch_cost.total * 1e3, res.utilization
            )
    result.add_note(
        "paper section 6's open problem: with Q-only, adding workers to "
        "MovieLens barely helps (Table 6); rotation restores scaling"
    )
    return result


def extension_adaptive(
    dataset: DatasetSpec = NETFLIX,
    epochs: int = 20,
    k: int = 128,
    slowdown_factor: float = 0.5,
    slowdown_epoch: int = 5,
) -> ExperimentResult:
    """Online re-partitioning vs a static DP1 plan under a throttle event.

    At ``slowdown_epoch`` the fastest GPU drops to ``slowdown_factor``
    of its speed (thermal throttling / co-tenant); the adaptive
    controller re-runs Eq. 6 on the observed times while the static run
    suffers the straggler for the rest of training.
    """
    from repro.core.adaptive import SlowdownEvent, simulate_adaptive_run

    platform = paper_workstation(16)
    # workers: [special cpu, cpu1, 2080S, 2080]; throttle the 2080S
    events = [SlowdownEvent(worker_index=2, epoch=slowdown_epoch, factor=slowdown_factor)]
    static = simulate_adaptive_run(platform, dataset, events, epochs, k, adaptive=False)
    adaptive = simulate_adaptive_run(platform, dataset, events, epochs, k, adaptive=True)

    result = ExperimentResult(
        "extension-adaptive",
        f"Online re-partitioning under a {1/slowdown_factor:.0f}x throttle ({dataset.name})",
        ["mode", "total_s", "post_event_epoch_ms", "repartitions"],
    )
    probe = min(slowdown_epoch + 3, epochs - 1)
    result.add_row("static DP1", static.total_time,
                   static.epoch_totals[probe] * 1e3, 0)
    result.add_row("adaptive", adaptive.total_time,
                   adaptive.epoch_totals[probe] * 1e3,
                   len(adaptive.repartition_epochs))
    result.extra["static"] = static
    result.extra["adaptive"] = adaptive
    result.add_note(
        "Algorithm 1 needs only measured epoch times, so it doubles as a "
        "runtime controller — an extension the paper's one-shot DP1 implies"
    )
    return result


def extension_energy(dataset: DatasetSpec = NETFLIX) -> ExperimentResult:
    """Figure 3's economics extended with operating energy."""
    from repro.experiments.energy import compare_platform_energy

    return compare_platform_energy(dataset)


def extension_sensitivity() -> ExperimentResult:
    """Robustness of the headline metrics to the fitted constants."""
    from repro.experiments.sensitivity import sensitivity_study

    return sensitivity_study(multipliers=(0.8, 0.9, 1.0, 1.1, 1.2))


#: ablation id -> generator
ALL_ABLATIONS = {
    "streams": ablate_streams,
    "lambda": ablate_lambda,
    "latent-dim": ablate_latent_dim,
    "baselines": ablate_heterogeneous_baselines,
    "q-rotate": extension_q_rotate,
    "adaptive": extension_adaptive,
    "energy": extension_energy,
    "sensitivity": extension_sensitivity,
}
