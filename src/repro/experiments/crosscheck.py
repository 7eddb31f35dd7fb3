"""Cross-checks: the simulated model against the paper's closed forms.

The cost model is implemented as machinery (queue simulations, pipeline
schedulers); the paper states several closed-form approximations.  This
module evaluates both on the same configurations and reports the gap —
a self-audit that the implementation actually realizes the equations it
claims to (and documents where it deliberately refines them).

Checks:

* **Eq. 2's comm/compute ratio** ``~ B_i (m+n) / (8 x_i nnz B_bus_i)``
  (section 3.4's order-of-magnitude argument) against the model's
  measured ratio under P&Q transmission;
* **Eq. 3's sync time** ``3·4·k·(m+n)/B_server`` against
  ``TimeCostModel.sync_time``;
* **Strategy 3's 1/streams law** against the pipeline scheduler;
* **Eq. 6 / Theorem 1** against the DP0 implementation.

No entry point imports this module: it stays as the cost model's
self-audit against Eq. 2-4, run by
``tests/test_experiments_crosscheck.py`` (pinned in
``tests/test_reach_census.py``).
"""

from __future__ import annotations

import numpy as np

from repro.core.comm import CommPlan
from repro.core.config import CommConfig, PartitionStrategy, TransmitMode
from repro.core.cost_model import TimeCostModel
from repro.core.partition import dp0
from repro.core.theorem import equalizing_partition
from repro.data.datasets import DatasetSpec, NETFLIX
from repro.experiments.tables import ExperimentResult
from repro.hardware.streams import pipeline_schedule, theoretical_exposed_comm
from repro.hardware.topology import Platform, paper_workstation


def crosscheck_model_vs_formulas(
    dataset: DatasetSpec = NETFLIX,
    k: int = 128,
    platform: Platform | None = None,
) -> ExperimentResult:
    """Evaluate every closed form against the implemented machinery."""
    platform = platform if platform is not None else paper_workstation(16)
    result = ExperimentResult(
        "crosscheck",
        f"Paper closed forms vs implemented machinery ({dataset.name}, k={k})",
        ["check", "closed_form", "model", "relative_gap"],
    )

    # --- Eq. 2: comm/compute ratio under unoptimized P&Q ---------------
    model = TimeCostModel(
        platform, dataset, k,
        CommConfig(transmit=TransmitMode.P_AND_Q),
    )
    plan = model.derive_partition(PartitionStrategy.DP1)
    gpu = platform.workers[-1]
    x = plan.fractions[-1]
    bus = platform.bus(gpu)
    # derived from Eq. 2: one-way comm / compute =
    #   [4k(m+n)/B_bus] / [x nnz (16k+4)/B_i] ~ B_i (m+n) / (4 x nnz B_bus)
    # (the paper quotes the same form with an 8 — "about", off by the
    # factor-2 slack its order-of-magnitude argument tolerates).
    # B_i here is the effective (cache-inclusive) bandwidth the update
    # rate implies.
    b_eff = gpu.update_rate(k, dataset, x, corun=True) * (16 * k + 4)
    closed = b_eff * (dataset.m + dataset.n) / (4 * x * dataset.nnz * bus.bandwidth_gbs * 1e9)
    measured = model.comm_compute_ratio(gpu, x) / 2.0  # one-way
    result.add_row(
        "Eq.2 comm/compute ratio (GPU, P&Q, one-way)",
        closed, measured, abs(closed - measured) / closed,
    )

    # --- Eq. 3: per-sync server time ------------------------------------
    pq_model = TimeCostModel(
        platform, dataset, k, CommConfig(transmit=TransmitMode.P_AND_Q)
    )
    b_server = platform.server.effective_bandwidth(1.0) * 1e9
    closed_sync = 3.0 * 4.0 * k * (dataset.m + dataset.n) / b_server
    result.add_row(
        "Eq.3 sync time (P&Q)",
        closed_sync, pq_model.sync_time(),
        abs(closed_sync - pq_model.sync_time()) / closed_sync,
    )

    # --- Strategy 3: exposed comm ~ (pull+push)/streams ------------------
    pull, compute, push, streams = 0.02, 0.4, 0.02, 4
    sched = pipeline_schedule(pull, compute, push, streams=streams)
    closed_exposed = theoretical_exposed_comm(pull, push, streams)
    result.add_row(
        "Strategy 3 exposed comm (compute-bound)",
        closed_exposed, sched.exposed_comm,
        abs(closed_exposed - sched.exposed_comm) / closed_exposed,
    )

    # --- Eq. 6 vs Theorem 1's equalizer (b = 0) --------------------------
    independent = [model.independent_time(w) for w in platform.workers]
    x_dp0 = np.asarray(dp0(independent).fractions)
    x_thm = equalizing_partition(independent, [0.0] * len(independent))
    result.add_row(
        "Eq.6 DP0 vs Theorem 1 equalizer",
        1.0, float(np.max(np.abs(x_dp0 - x_thm))) + 1.0,
        float(np.max(np.abs(x_dp0 - x_thm))),
    )

    result.add_note(
        "gaps stem from documented refinements: the model adds bus latency, "
        "partition-size bandwidth boosts and chunk quantization on top of "
        "the paper's order-of-magnitude forms"
    )
    return result


def wire_bytes_identity(dataset: DatasetSpec = NETFLIX, k: int = 128) -> dict[str, float]:
    """Byte-accounting identities across transmit modes (for tests).

    Returns the measured ratios the paper states in section 3.4:
    Q-only's reduction ``n/(m+n)`` and FP16's factor 2.
    """
    pq = CommPlan.for_dataset(dataset, k, CommConfig(transmit=TransmitMode.P_AND_Q))
    q = CommPlan.for_dataset(dataset, k, CommConfig(transmit=TransmitMode.Q_ONLY))
    half = CommPlan.for_dataset(
        dataset, k, CommConfig(transmit=TransmitMode.Q_ONLY, fp16=True)
    )
    return {
        "q_over_pq": q.epoch_pull / pq.epoch_pull,
        "paper_q_over_pq": min(dataset.m, dataset.n) / (dataset.m + dataset.n),
        "fp16_factor": q.epoch_pull / half.epoch_pull,
    }
