"""The HCC-MF time-cost model (paper section 3.2, Eq. 1-5).

One training epoch costs

    T = max_i { T_i_pull + T_i_c + T_i_push } + T_sync          (Eq. 1)

with the worker term approximated (memory-bandwidth-bound compute,
Eq. 2) by

    T_i ~ x_i * nnz * (16k+4) / B_i  +  2k(m+n) / B_bus_i

and the server-side synchronization (three reads/writes plus one
multiply-add per feature value, Eq. 3) by

    T_sync ~ 3 t k (m+n) / B_server.

The model becomes the piecewise function of Eq. 5: when
``max{T_i}/T_sync >= lambda`` the sync term is ignored (compute-bound
regime, DP1 applies); otherwise it must be modeled (sync-bound regime,
DP2 applies).

This module also carries the section 3.4 communication analysis: the
comm/compute cost ratio ``~ B_i (m+n) / (8 x_i nnz B_bus_i)``, which
predicts when collaborative computing stops paying (Table 6's
MovieLens-20m limitation).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from repro.core.comm import CommModel, CommPlan
from repro.core.config import CommConfig, PartitionStrategy, TransmitMode
from repro.core.partition import (
    PartitionPlan,
    dp0,
    dp1,
    dp2,
    even_partition,
    exposed_sync_time,
    redistribute,
)
from repro.data.datasets import DatasetSpec
from repro.hardware.processor import Processor
from repro.hardware.streams import pipeline_schedule
from repro.hardware.timeline import Phase, Span
from repro.hardware.topology import Platform


class Regime(enum.Enum):
    """Which branch of the piecewise cost function (Eq. 5) applies."""

    COMPUTE_BOUND = "compute-bound"  # max{T_i}/T_sync >= lambda: ignore sync
    SYNC_BOUND = "sync-bound"        # sync overhead shapes the epoch


@dataclass(frozen=True)
class WorkerCost:
    """One worker's modeled epoch (all times in seconds)."""

    name: str
    fraction: float
    pull: float
    compute: float
    push: float
    epoch_time: float     # includes pipeline overlap when streams > 1
    finish: float         # when the worker's last push lands at the server
    spans: tuple[Span, ...] = field(default=(), repr=False)

    @property
    def serial_time(self) -> float:
        """Unpipelined T_i = pull + compute + push (Eq. 2)."""
        return self.pull + self.compute + self.push


@dataclass(frozen=True)
class EpochCost:
    """The modeled cost of one full training epoch (Eq. 1)."""

    workers: tuple[WorkerCost, ...]
    sync_time_each: float
    exposed_sync: float
    total: float
    regime: Regime

    @property
    def max_worker_time(self) -> float:
        return max(w.epoch_time for w in self.workers)

    @property
    def compute_total(self) -> float:
        return sum(w.compute for w in self.workers)

    def spans(self) -> list[Span]:
        out: list[Span] = []
        for w in self.workers:
            out.extend(w.spans)
        return out


class TimeCostModel:
    """Analytical epoch-cost model for a platform/dataset/strategy triple."""

    def __init__(
        self,
        platform: Platform,
        dataset: DatasetSpec,
        k: int = 128,
        comm: CommConfig | None = None,
        lambda_threshold: float = 10.0,
    ):
        if k <= 0:
            raise ValueError("k must be positive")
        if lambda_threshold <= 0:
            raise ValueError("lambda_threshold must be positive")
        self.platform = platform
        self.dataset = dataset
        self.k = k
        self.comm_config = comm if comm is not None else CommConfig()
        self.comm_model = CommModel(self.comm_config.backend)
        self.plan = CommPlan.for_dataset(dataset, k, self.comm_config)
        self.lambda_threshold = lambda_threshold

    # ------------------------------------------------------------------
    # primitive terms
    # ------------------------------------------------------------------
    def independent_time(self, worker: Processor) -> float:
        """T_i_e: worker processes the whole dataset alone (Table 1)."""
        return worker.compute_time(
            self.dataset.nnz, self.k, self.dataset, partition_frac=1.0, corun=False
        )

    def compute_time(self, worker: Processor, fraction: float) -> float:
        """Runtime compute time for a fraction of the data (co-running)."""
        if not (0.0 <= fraction <= 1.0):
            raise ValueError("fraction must be in [0, 1]")
        if fraction == 0.0:
            return 0.0
        return worker.compute_time(
            fraction * self.dataset.nnz,
            self.k,
            self.dataset,
            partition_frac=fraction,
            corun=True,
        )

    def pull_time(self, worker: Processor) -> float:
        """Per-epoch pull time, including physical-channel contention.

        Workers sharing one physical link split its bandwidth when they
        transfer concurrently (they all pull at epoch start), which the
        model expresses as an effective byte multiplier.
        """
        sharing = self.platform.channel_sharing(worker)
        return self.comm_model.transfer_time(
            self.platform.bus(worker), self.plan.epoch_pull * sharing
        )

    def push_time(self, worker: Processor) -> float:
        sharing = self.platform.channel_sharing(worker)
        return self.comm_model.transfer_time(
            self.platform.bus(worker), self.plan.epoch_push * sharing
        )

    def sync_time(self) -> float:
        """Per-worker-sync server time (Eq. 3's summand).

        Three memory operations on each synchronized feature value (4
        bytes each) at the server's bandwidth; the multiply-add term
        ``k(m+n)/P_server`` is negligible (P_server >> B_server).
        """
        server_bw = self.platform.server.effective_bandwidth(1.0) * 1e9
        return 3.0 * 4.0 * self.plan.sync_values / server_bw

    def comm_compute_ratio(self, worker: Processor, fraction: float) -> float:
        """Section 3.4's communication/computation cost ratio for a worker."""
        if fraction <= 0:
            return float("inf")
        comm = self.pull_time(worker) + self.push_time(worker)
        comp = self.compute_time(worker, fraction)
        return comm / comp if comp > 0 else float("inf")

    # ------------------------------------------------------------------
    # epoch assembly (Eq. 1 + Figure 5 timing sequences)
    # ------------------------------------------------------------------
    def epoch_cost(
        self,
        fractions,
        streams: int | None = None,
        epoch: int = 0,
        workers: "list[Processor] | None" = None,
    ) -> EpochCost:
        """Model one epoch under a partition vector.

        All workers pull in parallel over their own channels at t=0
        (Figure 2's independent-channel property), compute, then push;
        the server merges pushes serially in arrival order.  With
        ``streams > 1`` each worker with copy engines runs the Strategy-3
        pipeline instead of the serial pull->compute->push.

        ``workers`` overrides the platform's worker list — the degraded
        costing path prices an epoch over the surviving subset without
        rebuilding the platform.
        """
        fractions = np.asarray(fractions, dtype=np.float64)
        if workers is None:
            workers = self.platform.workers
        if len(fractions) != len(workers):
            raise ValueError(
                f"{len(fractions)} fractions for {len(workers)} workers"
            )
        if streams is None:
            streams = self.comm_config.streams

        tsync = self.sync_time()
        # ring rotation (the future-work mode) inherently chunks each
        # worker's communication into one hop per rotation step
        rotate = (
            self.comm_config.resolve_transmit(self.dataset.m, self.dataset.n)
            is TransmitMode.Q_ROTATE
        )
        costs: list[WorkerCost] = []
        sync_events: list[tuple[float, float]] = []  # (push landing, merge cost)
        for proc, x in zip(workers, fractions):
            pull = self.pull_time(proc)
            compute = self.compute_time(proc, float(x))
            push = self.push_time(proc)
            want_streams = max(streams, len(workers)) if rotate else streams
            n_streams = (
                want_streams
                if (want_streams > 1 and proc.spec.copy_engines >= 1)
                else 1
            )
            result = pipeline_schedule(
                pull,
                compute,
                push,
                streams=n_streams,
                copy_engines=max(1, min(2, proc.spec.copy_engines or 1)),
                worker=proc.name,
                epoch=epoch,
            )
            push_ends = [s.end for s in result.spans if s.phase is Phase.PUSH]
            if push_ends:
                # one merge per pushed chunk: a pipelined worker's syncs
                # land mid-epoch and each costs T_sync / streams
                for end in push_ends:
                    sync_events.append((end, tsync / len(push_ends)))
            else:
                sync_events.append((result.epoch_time, tsync))
            costs.append(
                WorkerCost(
                    name=proc.name,
                    fraction=float(x),
                    pull=pull,
                    compute=compute,
                    push=push,
                    epoch_time=result.epoch_time,
                    finish=result.epoch_time,
                    spans=result.spans,
                )
            )

        exposed = exposed_sync_time(
            [t for t, _ in sync_events], [d for _, d in sync_events]
        )
        max_time = max(c.epoch_time for c in costs) if costs else 0.0
        total = max_time + exposed
        regime = self.sync_regime([c.epoch_time for c in costs], len(workers))
        return EpochCost(
            workers=tuple(costs),
            sync_time_each=tsync,
            exposed_sync=exposed,
            total=total,
            regime=regime,
        )

    def degraded_epoch_cost(
        self,
        fractions,
        dead_ranks: "tuple[int, ...] | list[int] | set[int]",
        streams: int | None = None,
        epoch: int = 0,
    ) -> EpochCost:
        """Model an epoch after worker deaths (the Eq. 1-5 failure path).

        ``fractions`` is the *healthy* partition vector; the dead
        workers' ``x_i`` are reassigned across the survivors with
        :func:`~repro.core.partition.redistribute`'s rate-proportional
        renormalization — exactly the plan the recovery engine continues
        with — and the epoch is then priced over the surviving subset of
        the platform: ``T = max_{i in survivors}{...} + T_sync`` with one
        fewer merge per dead worker.
        """
        fractions = np.asarray(fractions, dtype=np.float64)
        workers = self.platform.workers
        if len(fractions) != len(workers):
            raise ValueError(
                f"{len(fractions)} fractions for {len(workers)} workers"
            )
        plan = PartitionPlan("healthy", tuple(map(float, fractions)))
        degraded = redistribute(plan, dead_ranks)
        dead = set(dead_ranks)
        survivors = [w for r, w in enumerate(workers) if r not in dead]
        return self.epoch_cost(
            degraded.fractions, streams=streams, epoch=epoch, workers=survivors
        )

    def sync_regime(self, worker_times, n_workers: int | None = None) -> Regime:
        """Eq. 5's branch test: max{T_i} / T_sync against lambda."""
        if n_workers is None:
            n_workers = self.platform.n_workers
        tsync_total = self.sync_time() * n_workers
        if tsync_total <= 0:
            return Regime.COMPUTE_BOUND
        ratio = max(worker_times) / tsync_total
        return Regime.COMPUTE_BOUND if ratio >= self.lambda_threshold else Regime.SYNC_BOUND

    # ------------------------------------------------------------------
    # partition derivation (the DataManager's strategy pipeline)
    # ------------------------------------------------------------------
    def derive_partition(self, strategy: PartitionStrategy) -> PartitionPlan:
        """Produce the partition a given strategy yields on this model.

        AUTO follows the paper: DP0 -> DP1, then DP2 iff the DP1 solution
        is in the sync-bound regime.
        """
        workers = self.platform.workers
        if not workers:
            raise ValueError("platform has no workers")
        if strategy is PartitionStrategy.EVEN:
            return even_partition(len(workers))

        base = dp0([self.independent_time(w) for w in workers])
        if strategy is PartitionStrategy.DP0:
            # report runtime times under DP0 so imbalance is visible
            times = [self.compute_time(w, x) for w, x in zip(workers, base.fractions)]
            return PartitionPlan("dp0", base.fractions, tuple(times))

        def measure(x):
            return [self.compute_time(w, xi) for w, xi in zip(workers, x)]

        refined = dp1(
            base,
            measure,
            [w.is_gpu for w in workers],
        )
        if strategy is PartitionStrategy.DP1:
            return refined

        overheads = [self.pull_time(w) + self.push_time(w) for w in workers]
        if strategy is PartitionStrategy.DP2:
            return dp2(refined, self.sync_time(), overheads=overheads)

        # AUTO: Eq. 5's regime decides
        if self.sync_regime(list(refined.predicted_times)) is Regime.SYNC_BOUND:
            return dp2(refined, self.sync_time(), overheads=overheads)
        return refined
