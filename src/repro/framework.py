"""HCC-MF: the collaborative training framework (paper Figure 4).

Ties everything together:

1. **Preprocess** (steps 1-3): shuffle the rating matrix, pick the grid
   orientation and derive the data partition (DP0 -> DP1 -> DP2 per the
   cost-model regime); the backend shards the ratings by it at open.
2. **Train** (steps 4-7): per epoch, workers pull the feature matrix,
   compute asynchronous SGD on their shards, push results; the server
   adds every worker's delta into the global Q (the delta merge).

Two execution planes run side by side:

* the **numeric plane** — real SGD on (scaled) rating data, producing
  the RMSE convergence curves of Figure 7;
* the **timing plane** — the calibrated cost model at the full-scale
  dataset shape, producing epoch times, phase breakdowns (Figure 8),
  communication totals (Table 5) and computing-power utilization
  (Table 4 / Figure 9).

Pass ``ratings=None`` to run the timing plane alone (used by the
benchmark harness when convergence is not under study).

This module sits above both :mod:`repro.core` (which prices a run) and
:mod:`repro.engine` (which trains one), and neither imports it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.comm import CommPlan
from repro.core.config import HCCConfig, TransmitMode
from repro.core.cost_model import EpochCost, Regime, TimeCostModel
from repro.core.metrics import computing_power, ideal_computing_power, utilization
from repro.core.partition import PartitionPlan
from repro.data.datasets import DatasetSpec
from repro.data.grid import GridKind, choose_grid
from repro.data.ratings import RatingMatrix
from repro.engine.backends import SimBackend
from repro.engine.channels import Q_ROTATE_IS_PRICED_NOT_TRAINED, channel_for
from repro.engine.pipeline import EpochEngine
from repro.hardware.timeline import Phase, Timeline
from repro.hardware.topology import Platform
from repro.mf.model import MFModel


@dataclass
class TrainResult:
    """Everything a training run produced (simulated time + numerics)."""

    dataset: DatasetSpec
    epochs: int
    plan: PartitionPlan
    regime: Regime
    epoch_cost: EpochCost
    total_time: float                       # simulated seconds, full run
    comm_time: float                        # cumulative pull+push, all workers
    pull_time: float
    push_time: float
    sync_time_total: float
    phase_totals: dict[str, dict[str, float]]
    power: float
    ideal_power: float
    utilization: float
    worker_powers: dict[str, float]
    timeline: Timeline = field(repr=False)
    rmse_history: list[float] = field(default_factory=list)
    model: MFModel | None = field(default=None, repr=False)

    @property
    def final_rmse(self) -> float:
        if not self.rmse_history:
            raise ValueError("run had no numeric plane")
        return self.rmse_history[-1]

    def time_axis(self) -> list[float]:
        """Simulated cumulative time at the end of each epoch (Fig. 7d-f).

        Derived from the timeline's per-epoch spans, so staggered
        schedules (DP2's hidden synchronization) report the instant the
        server really finishes each epoch rather than a uniform
        ``total_time / epochs`` smear.  Epochs beyond the timeline's
        rendered window extend at the analytic steady-state epoch cost;
        Strategy 1's once-at-the-end P push lands on the final epoch
        only, not spread across all of them.
        """
        span_ends: dict[int, float] = {}
        for span in self.timeline.spans:
            prev = span_ends.get(span.epoch, 0.0)
            span_ends[span.epoch] = max(prev, span.end)
        steady = self.epoch_cost.total
        axis: list[float] = []
        prev_end = 0.0
        for epoch in range(self.epochs):
            end = span_ends.get(epoch, prev_end + steady)
            if end <= prev_end:  # degenerate timeline: keep monotone
                end = prev_end + steady
            axis.append(end)
            prev_end = end
        final_extra = self.total_time - self.epochs * steady
        if final_extra > 0:
            axis[-1] += final_extra
        return axis


class HCCMF:
    """The heterogeneous collaborative computing framework."""

    def __init__(
        self,
        platform: Platform,
        dataset: DatasetSpec,
        config: HCCConfig | None = None,
        ratings: RatingMatrix | None = None,
    ):
        self.config = config if config is not None else HCCConfig()
        self.dataset = dataset
        self.ratings = ratings
        if ratings is not None and (
            self.config.comm.resolve_transmit(dataset.m, dataset.n)
            is TransmitMode.Q_ROTATE
        ):
            raise ValueError(Q_ROTATE_IS_PRICED_NOT_TRAINED)
        # Strategy 3 stops the server CPU from time-sharing as a worker
        # (paper 3.4): drop time-shared workers when streams are active.
        self.platform = (
            _without_time_shared(platform) if self.config.comm.uses_async else platform
        )
        if self.platform.n_workers == 0:
            raise ValueError("platform has no workers after stream filtering")
        self.cost_model = TimeCostModel(
            self.platform,
            dataset,
            k=self.config.k,
            comm=self.config.comm,
            lambda_threshold=self.config.lambda_threshold,
        )
        self.lr = (
            self.config.learning_rate
            if self.config.learning_rate is not None
            else dataset.learning_rate
        )
        self.reg = self.config.reg if self.config.reg is not None else dataset.reg
        self.plan: PartitionPlan | None = None

    # ------------------------------------------------------------------
    # preprocessing (steps 1-3)
    # ------------------------------------------------------------------
    def prepare(self) -> PartitionPlan:
        """Shuffle, choose grid, derive the data partition."""
        self.plan = self.cost_model.derive_partition(self.config.partition)
        if self.ratings is not None:
            data = self.ratings
            if choose_grid(data.m, data.n) is GridKind.COLUMN:
                # column-grid problems are handled by transposition:
                # "the strategy can also be switched to transmitting P
                # only" — transposing makes Q the recurring matrix again.
                data = data.transpose()
            self._numeric_data = data.shuffle(self.config.seed)
        return self.plan

    # ------------------------------------------------------------------
    # training (steps 4-7)
    # ------------------------------------------------------------------
    def train(
        self,
        epochs: int | None = None,
        eval_data: RatingMatrix | None = None,
        telemetry=None,
        checkpoint_every: int = 0,
        checkpoint_path=None,
        resume_from=None,
    ) -> TrainResult:
        """Run the simulated-time plane and (if ratings) the numeric plane.

        ``telemetry`` (a :class:`repro.obs.Telemetry`, duck-typed) opts
        the numeric plane into runtime instrumentation: wall-clock
        pull/compute/push spans per worker, sync/eval spans for the
        server, per-epoch RMSE gauges and structured events.  ``None``
        (the default) keeps every numeric path untimed.

        ``checkpoint_every=``/``checkpoint_path=`` write an atomic model
        checkpoint at epoch boundaries of the numeric plane, and
        ``resume_from=`` warm-starts it from a saved checkpoint with the
        workers' RNG streams advanced past the completed epochs, so the
        resumed factors match the straight-through run bit for bit (see
        docs/resilience.md).
        """
        if self.plan is None:
            self.prepare()
        epochs = epochs if epochs is not None else self.config.epochs
        if epochs <= 0:
            raise ValueError("epochs must be positive")

        epoch_cost = self.cost_model.epoch_cost(self.plan.fractions)
        timeline = self._build_timeline(epoch_cost, shown_epochs=min(epochs, 3))

        # final P push under "transmit Q only": each worker pushes its
        # exclusive P rows over its own channel, in parallel
        final_extra = self._final_push_time()
        total_time = epochs * epoch_cost.total + final_extra

        workers = self.platform.workers
        pull_total = epochs * sum(w.pull for w in epoch_cost.workers)
        push_total = epochs * sum(w.push for w in epoch_cost.workers) + final_extra
        sync_total = epochs * epoch_cost.sync_time_each * len(workers)

        phase_totals: dict[str, dict[str, float]] = {}
        for wc in epoch_cost.workers:
            phase_totals[wc.name] = {
                "pull": epochs * wc.pull,
                "computing": epochs * wc.compute,
                # Figure 8 lumps push and sync into one "push" bar
                "push": epochs * (wc.push + epoch_cost.sync_time_each),
                "total": epochs * epoch_cost.total,
            }

        nnz = self.dataset.nnz
        power = computing_power(nnz, epochs, total_time)
        ideal = ideal_computing_power(self.platform, self.dataset, self.config.k)
        worker_powers = {
            wc.name: wc.fraction * nnz * epochs / total_time for wc in epoch_cost.workers
        }

        rmse_history: list[float] = []
        model: MFModel | None = None
        if self.ratings is not None:
            model, rmse_history = self._train_numeric(
                epochs, eval_data, telemetry,
                checkpoint_every=checkpoint_every,
                checkpoint_path=checkpoint_path,
                resume_from=resume_from,
            )
        elif checkpoint_every or resume_from is not None:
            raise ValueError(
                "checkpointing needs a numeric plane: construct HCCMF "
                "with ratings= to use checkpoint_every=/resume_from="
            )

        return TrainResult(
            dataset=self.dataset,
            epochs=epochs,
            plan=self.plan,
            regime=epoch_cost.regime,
            epoch_cost=epoch_cost,
            total_time=total_time,
            comm_time=pull_total + push_total,
            pull_time=pull_total,
            push_time=push_total,
            sync_time_total=sync_total,
            phase_totals=phase_totals,
            power=power,
            ideal_power=ideal,
            utilization=utilization(power, ideal),
            worker_powers=worker_powers,
            timeline=timeline,
            rmse_history=rmse_history,
            model=model,
        )

    # ------------------------------------------------------------------
    def _train_numeric(
        self,
        epochs: int,
        eval_data: RatingMatrix | None,
        telemetry=None,
        checkpoint_every: int = 0,
        checkpoint_path=None,
        resume_from=None,
    ) -> tuple[MFModel, list[float]]:
        """Numeric plane: delegate the epoch loop to the EpochEngine.

        The engine runs the pull/compute/push/sync stage pipeline over a
        :class:`~repro.engine.backends.SimBackend`; the channel stack is
        built from this run's CommConfig, the same switches the cost
        model prices the run's bytes from.
        """
        data = self._numeric_data
        backend = SimBackend(
            self.platform,
            ratings=data,
            eval_data=eval_data,
            k=self.config.k,
            lr=self.lr,
            reg=self.reg,
            batch_size=self.config.batch_size,
            seed=self.config.seed,
            cost_model=self.cost_model,
        )
        engine = EpochEngine(
            backend,
            channel=channel_for(self.config.comm, data.m, data.n),
            partitions=self.plan,
            telemetry=telemetry,
            checkpoint_every=checkpoint_every,
            checkpoint_path=checkpoint_path,
            resume_from=resume_from,
        )
        result = engine.run(epochs)
        return backend.model, result.rmse_history

    def _final_push_time(self) -> float:
        """Time for the once-at-the-end P push (Strategy 1's epilogue)."""
        plan: CommPlan = self.cost_model.plan
        if plan.final_push_extra == 0:
            return 0.0
        times = []
        for proc, x in zip(self.platform.workers, self.plan.fractions):
            nbytes = plan.final_push_extra * x
            times.append(
                self.cost_model.comm_model.transfer_time(self.platform.bus(proc), nbytes)
            )
        return max(times) if times else 0.0

    def _build_timeline(self, epoch_cost: EpochCost, shown_epochs: int) -> Timeline:
        timeline = Timeline()
        for e in range(shown_epochs):
            offset = e * epoch_cost.total
            finishes = []
            for wc in epoch_cost.workers:
                finishes.append((offset + wc.finish, wc.name))
                for s in wc.spans:
                    timeline.add(s.worker, s.phase, offset + s.start, offset + s.end, epoch=e)
            # server sync lane: serial merges in arrival order
            server_free = 0.0
            for finish, _name in sorted(finishes):
                start = max(finish, server_free)
                end = start + epoch_cost.sync_time_each
                timeline.add("server", Phase.SYNC, start, end, epoch=e)
                server_free = end
        return timeline


def _without_time_shared(platform: Platform) -> Platform:
    """A copy of the platform with time-shared (special) workers removed."""
    filtered = Platform(server=platform.server)
    for w in platform.workers:
        if w.time_share < 1.0:
            continue
        filtered.add_worker(w, platform.bus(w), channel=platform.channel_of(w))
    return filtered
