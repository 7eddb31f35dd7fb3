"""Cost-model drift: measured phase times vs Eq. 1-5 predictions.

The paper validates its time-cost model against PCM/Nsight measurements
once, offline.  This module makes that validation a *runtime* artifact:
join the per-worker per-phase spans an instrumented run actually
recorded against what a cost model predicted for the same phases, and
report the relative error.  Two prediction sources:

* :func:`predictions_from_epoch_cost` — the analytical
  :class:`~repro.core.cost_model.TimeCostModel` output (simulated
  plane, or a calibrated platform standing in for the host);
* :func:`host_predictions` — Eq. 2/3 evaluated with *probe-measured*
  host numbers (copy bandwidth, SGD update rate) for real
  :class:`~repro.engine.backends.ProcessBackend` runs — the same
  substitution DP1's Algorithm 1 makes when it re-measures.

Phases are keyed by their string value (``"pull"``, ``"computing"``,
``"push"``, ``"sync"``) so predictions and measurements join without
sharing enum instances across serialization boundaries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping

from repro.hardware.timeline import Phase, Timeline

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.cost_model import EpochCost
    from repro.data.ratings import RatingMatrix

#: phases the drift report compares (barrier/eval have no model term)
MODELED_PHASES = (Phase.PULL, Phase.COMPUTE, Phase.PUSH, Phase.SYNC)

PredictionMap = Mapping[tuple[str, str], float]


@dataclass(frozen=True)
class HostRunInfo:
    """What the executor knew about a real run (drift-report inputs)."""

    worker_names: tuple[str, ...]
    shard_nnz: tuple[int, ...]
    #: Q columns each worker's wire carries (its column set; ``n`` for "all")
    shard_columns: tuple[int, ...]
    k: int
    m: int
    n: int
    epochs: int


@dataclass(frozen=True)
class DriftRow:
    """One (worker, phase) comparison, per-epoch seconds."""

    worker: str
    phase: str
    predicted: float
    measured: float
    spans: int

    @property
    def rel_error(self) -> float:
        """(measured - predicted) / predicted; NaN when unpredicted."""
        if self.predicted <= 0:
            return math.nan
        return (self.measured - self.predicted) / self.predicted


@dataclass(frozen=True)
class DriftReport:
    """Joined measured-vs-predicted table for one instrumented run."""

    rows: tuple[DriftRow, ...]
    epochs: int

    @property
    def worst_abs_rel_error(self) -> float:
        errors = [abs(r.rel_error) for r in self.rows if not math.isnan(r.rel_error)]
        return max(errors) if errors else math.nan

    def row(self, worker: str, phase: str) -> DriftRow:
        for r in self.rows:
            if r.worker == worker and r.phase == phase:
                return r
        raise KeyError(f"no drift row for ({worker!r}, {phase!r})")

    def to_dict(self) -> dict:
        return {
            "epochs": self.epochs,
            "rows": [
                {
                    "worker": r.worker,
                    "phase": r.phase,
                    "predicted_s": r.predicted,
                    "measured_s": r.measured,
                    "rel_error": None if math.isnan(r.rel_error) else r.rel_error,
                    "spans": r.spans,
                }
                for r in self.rows
            ],
        }

    def render(self) -> str:
        header = f"{'worker':<12} {'phase':<10} {'predicted':>12} {'measured':>12} {'rel err':>9}"
        lines = ["cost-model drift report (per-epoch seconds)", header,
                 "-" * len(header)]
        for r in self.rows:
            err = "--" if math.isnan(r.rel_error) else f"{r.rel_error:+8.0%}"
            lines.append(
                f"{r.worker:<12} {r.phase:<10} {r.predicted:>12.6f} "
                f"{r.measured:>12.6f} {err:>9}"
            )
        worst = self.worst_abs_rel_error
        if not math.isnan(worst):
            lines.append(f"worst |rel err|: {worst:.0%} over {self.epochs} epoch(s)")
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# measurement side: aggregate a timeline into per-epoch phase means
# ---------------------------------------------------------------------------
def measured_phase_means(
    timeline: Timeline, epochs: int
) -> dict[tuple[str, str], tuple[float, int]]:
    """``(worker, phase-value) -> (mean seconds per epoch, span count)``."""
    if epochs <= 0:
        raise ValueError("epochs must be positive")
    totals: dict[tuple[str, str], float] = {}
    counts: dict[tuple[str, str], int] = {}
    for span in timeline.spans:
        name = span.phase.value if isinstance(span.phase, Phase) else str(span.phase)
        key = (span.worker, name)
        totals[key] = totals.get(key, 0.0) + span.duration
        counts[key] = counts.get(key, 0) + 1
    return {key: (totals[key] / epochs, counts[key]) for key in totals}


def compare(
    timeline: Timeline, predictions: PredictionMap, epochs: int
) -> DriftReport:
    """Join measurements against predictions into a :class:`DriftReport`.

    Every predicted key appears in the report (measured 0 when the run
    recorded no such span); measured phases without a prediction appear
    with predicted 0 so nothing is silently dropped — only phases
    outside :data:`MODELED_PHASES` (barrier waits, evaluation) are
    excluded, since the cost model has no term for them.
    """
    measured = measured_phase_means(timeline, epochs)
    modeled_names = {p.value for p in MODELED_PHASES}
    keys = set(predictions) | {k for k in measured if k[1] in modeled_names}
    rows = []
    for worker, phase in sorted(keys):
        mean, count = measured.get((worker, phase), (0.0, 0))
        rows.append(
            DriftRow(
                worker=worker,
                phase=phase,
                predicted=float(predictions.get((worker, phase), 0.0)),
                measured=mean,
                spans=count,
            )
        )
    return DriftReport(rows=tuple(rows), epochs=epochs)


# ---------------------------------------------------------------------------
# prediction sources
# ---------------------------------------------------------------------------
def predictions_from_epoch_cost(
    cost: "EpochCost", server_lane: str = "server"
) -> dict[tuple[str, str], float]:
    """Flatten a modeled :class:`EpochCost` into a prediction map."""
    preds: dict[tuple[str, str], float] = {}
    for wc in cost.workers:
        preds[(wc.name, Phase.PULL.value)] = wc.pull
        preds[(wc.name, Phase.COMPUTE.value)] = wc.compute
        preds[(wc.name, Phase.PUSH.value)] = wc.push
    preds[(server_lane, Phase.SYNC.value)] = cost.sync_time_each * len(cost.workers)
    return preds


def host_predictions(
    host: HostRunInfo,
    bandwidth_gbs: float,
    updates_per_second: float,
    server_lane: str = "server",
) -> dict[tuple[str, str], float]:
    """Eq. 2/3 evaluated with probe-measured host rates.

    * pull/push: one copy of the ``4 k t_i`` bytes of the Q columns
      worker ``i``'s shard rates, at the measured copy bandwidth
      (Strategy 1: transmit Q only — and of Q, what the shard can
      change);
    * compute: shard nnz over the measured SGD update rate;
    * sync: the server's per-epoch merge touches three arrays per
      worker (read global, read push buffer, write global — Eq. 3's
      three memory operations) over the same columns, again at copy
      bandwidth.
    """
    if bandwidth_gbs <= 0 or updates_per_second <= 0:
        raise ValueError("probe rates must be positive")
    bytes_per_s = bandwidth_gbs * 1e9
    preds: dict[tuple[str, str], float] = {}
    sync_s = 0.0
    for name, nnz, columns in zip(
        host.worker_names, host.shard_nnz, host.shard_columns
    ):
        copy_s = 4.0 * host.k * columns / bytes_per_s
        preds[(name, Phase.PULL.value)] = copy_s
        preds[(name, Phase.COMPUTE.value)] = nnz / updates_per_second
        preds[(name, Phase.PUSH.value)] = copy_s
        sync_s += 3.0 * copy_s
    preds[(server_lane, Phase.SYNC.value)] = sync_s
    return preds
