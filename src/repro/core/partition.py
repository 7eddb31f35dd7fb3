"""Data partition strategies DP0, DP1, DP2 (paper section 3.3).

``x_i`` is worker *i*'s fraction of the nnz training entries; all
strategies produce vectors on the unit simplex (sum to 1, entries >= 0).

* :func:`dp0` — Eq. 6: fractions proportional to the reciprocal of each
  worker's *independently measured* execution time (equivalently,
  proportional to throughput).  Optimal by Theorem 1 when the measured
  rates hold at runtime.
* :func:`dp1` — Algorithm 1: at runtime, memory bandwidth shifts with
  partition size and co-running interference, unbalancing CPU vs GPU
  compute times.  The compensation loop moves ``Delta T`` of work
  between the CPU class and the GPU class until the class-average
  compute times agree within 10%.
* :func:`dp2` — Eq. 7: when synchronization cannot be ignored, stagger
  worker finish times in steps of ``T_sync`` around the DP1 solution so
  each worker's sync is hidden under the next worker's compute.

:func:`exposed_sync_time` simulates the server's serial sync queue and
measures how much synchronization extends the epoch past the last
worker — the quantity DP2 minimizes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np


@dataclass(frozen=True)
class PartitionPlan:
    """Result of a partition strategy."""

    strategy: str
    fractions: tuple[float, ...]
    predicted_times: tuple[float, ...] = ()
    rounds: int = 0

    def __post_init__(self) -> None:
        fr = np.asarray(self.fractions, dtype=np.float64)
        if len(fr) == 0:
            raise ValueError("empty partition")
        if np.any(fr < -1e-12):
            raise ValueError("negative fraction")
        if not np.isclose(fr.sum(), 1.0, atol=1e-6):
            raise ValueError(f"fractions must sum to 1, got {fr.sum()}")

    @property
    def n_workers(self) -> int:
        return len(self.fractions)

    def imbalance(self) -> float:
        """Relative spread of predicted times: (max-min)/min."""
        if not self.predicted_times:
            return 0.0
        t = np.asarray(self.predicted_times)
        if t.min() <= 0:
            return float("inf")
        return float((t.max() - t.min()) / t.min())

    def materialize(self, ratings, kind=None):
        """Turn fractions into concrete per-worker grid assignments.

        Convenience bridge to :func:`repro.data.grid.partition_rows` so
        callers (the framework, the race detector) can go straight from
        a plan to the row ranges whose disjointness Strategy 1 needs.
        Returns one ``GridAssignment`` per worker.
        """
        from repro.data.grid import partition_rows

        return partition_rows(ratings, self.fractions, kind)


def _normalize(x: np.ndarray) -> np.ndarray:
    x = np.maximum(np.asarray(x, dtype=np.float64), 0.0)
    s = x.sum()
    if s <= 0:
        raise ValueError("all fractions vanished during partitioning")
    return x / s


def even_partition(n_workers: int) -> PartitionPlan:
    """Uniform split — the DSGD-style baseline that ignores heterogeneity.

    On a heterogeneous platform this is Figure 3(a)'s "Unbalanced data"
    configuration: the slowest processor drags the epoch (bucket
    effect).
    """
    if n_workers <= 0:
        raise ValueError("n_workers must be positive")
    return PartitionPlan("even", tuple([1.0 / n_workers] * n_workers))


def dp0(independent_times: Sequence[float]) -> PartitionPlan:
    """Eq. 6: x_i = (1/T_i_e) / sum_j (1/T_j_e).

    ``independent_times`` are each worker's measured times to process
    the *whole* dataset alone (``T_i_e`` in Table 1).  Faster workers
    receive proportionally more data; by Theorem 1 this equalizes
    ``a_i * x_i`` and minimizes ``max_i{T_i}`` under the measured rates.
    """
    t = np.asarray(independent_times, dtype=np.float64)
    if len(t) == 0:
        raise ValueError("need at least one worker")
    if np.any(t <= 0):
        raise ValueError("independent times must be positive")
    inv = 1.0 / t
    x = _normalize(inv)
    # predicted per-worker time under the measured rates: a_i x_i = t_i x_i
    pred = tuple(float(ti * xi) for ti, xi in zip(t, x))
    return PartitionPlan("dp0", tuple(map(float, x)), pred)


def dp1(
    start: PartitionPlan,
    measure: Callable[[Sequence[float]], Sequence[float]],
    is_gpu: Sequence[bool],
    tolerance: float = 0.1,
    max_rounds: int = 8,
) -> PartitionPlan:
    """Algorithm 1: heterogeneous load-balance compensation.

    ``measure(x)`` returns the *runtime* compute times of every worker
    under partition ``x`` (in the paper, one measured epoch; here either
    the cost model or a wall-clock probe).  Each round computes the gap
    between the CPU-class and GPU-class average compute times and shifts
    ``Delta T = gap / (c + g)`` worth of data from the slow class to the
    fast class, exactly as lines 2-13 of Algorithm 1.
    """
    gpu_mask = np.asarray(list(is_gpu), dtype=bool)
    if len(gpu_mask) != start.n_workers:
        raise ValueError("is_gpu length mismatch")
    if not (0 < tolerance < 1):
        raise ValueError("tolerance must be in (0, 1)")
    c = int(np.sum(~gpu_mask))
    g = int(np.sum(gpu_mask))

    x = np.asarray(start.fractions, dtype=np.float64)
    times = np.asarray(measure(x), dtype=np.float64)
    if len(times) != len(x):
        raise ValueError("measure() returned wrong number of times")

    if c == 0 or g == 0:
        # homogeneous class: DP0 already balanced it; nothing to compensate
        return PartitionPlan("dp1", tuple(map(float, x)), tuple(map(float, times)), rounds=0)

    rounds = 0
    while rounds < max_rounds:
        t_cpu = times[~gpu_mask].mean()
        t_gpu = times[gpu_mask].mean()
        gap = abs(t_cpu - t_gpu) / max(min(t_cpu, t_gpu), 1e-30)
        if gap <= tolerance:
            break
        l = 1.0 if t_cpu > t_gpu else -1.0
        delta = l * (t_cpu - t_gpu) / (c + g)
        new_x = x.copy()
        # CPUs shed (or gain) l*g*delta of time worth of data ...
        new_x[~gpu_mask] = x[~gpu_mask] * (times[~gpu_mask] - l * g * delta) / times[~gpu_mask]
        # ... which the GPUs absorb, l*c*delta each
        new_x[gpu_mask] = x[gpu_mask] * (times[gpu_mask] + l * c * delta) / times[gpu_mask]
        x = _normalize(new_x)
        times = np.asarray(measure(x), dtype=np.float64)
        rounds += 1

    return PartitionPlan("dp1", tuple(map(float, x)), tuple(map(float, times)), rounds=rounds)


def dp2(
    base: PartitionPlan,
    sync_time: float,
    order: Sequence[int] | None = None,
    overheads: Sequence[float] | None = None,
) -> PartitionPlan:
    """Eq. 7: stagger worker times by +-n*T_sync around the DP1 median.

    Workers are ranked (by ``order``, defaulting to ascending base
    time); the middle worker keeps its DP1 schedule and the others
    target ``T_median +- n * T_sync`` so worker i's synchronization on
    the server is hidden under worker i+1's remaining compute
    (right-hand diagram of Figure 5).  Fractions rescale linearly with
    the target/actual compute-time ratio (Algorithm 1 line 6 style) and
    are renormalized.

    ``overheads`` are per-worker pull+push times: what the server's
    queue sees is the *push landing* time (compute + comm), so the
    stagger must be applied to finish times, not bare compute times.
    Omitted overheads reduce to the bare Eq. 7 behaviour.
    """
    if sync_time < 0:
        raise ValueError("sync_time must be non-negative")
    if not base.predicted_times:
        raise ValueError("base plan must carry predicted times")
    times = np.asarray(base.predicted_times, dtype=np.float64)
    p = len(times)
    if overheads is None:
        over = np.zeros(p)
    else:
        over = np.asarray(list(overheads), dtype=np.float64)
        if len(over) != p or np.any(over < 0):
            raise ValueError("need one non-negative overhead per worker")
    finishes = times + over
    idx = np.asarray(order if order is not None else np.argsort(finishes))
    if sorted(idx.tolist()) != list(range(p)):
        raise ValueError("order must be a permutation of workers")

    center = float(np.median(finishes))
    x = np.asarray(base.fractions, dtype=np.float64).copy()
    targets = np.empty(p)
    for rank, worker in enumerate(idx):
        offset = (rank - (p - 1) / 2.0) * sync_time
        # target finish -> target compute, floored away from zero
        targets[worker] = max(center + offset - over[worker], 0.1 * times[worker])
    x = x * targets / np.maximum(times, 1e-30)
    x = _normalize(x)
    # predicted compute times scale the same way (rate is locally constant)
    pred = times * (x / np.maximum(np.asarray(base.fractions), 1e-30))
    return PartitionPlan("dp2", tuple(map(float, x)), tuple(map(float, pred)), rounds=base.rounds)


def redistribute(
    plan: PartitionPlan, dead_ranks: "tuple[int, ...] | list[int] | set[int]"
) -> PartitionPlan:
    """Reassign dead workers' shards across the survivors.

    Survivor fractions keep their *relative* proportions — the same
    rate-proportional scaling DP0/DP1 derived them from — and are
    renormalized onto the unit simplex, so each survivor absorbs a
    share of the lost work proportional to its measured throughput.
    Predicted times (when the plan carries them) scale with the
    fraction growth, rates being locally constant — exactly how DP2
    extrapolates Algorithm 1's rescale.
    """
    dead = set(dead_ranks)
    unknown = dead - set(range(plan.n_workers))
    if unknown:
        raise ValueError(f"dead ranks {sorted(unknown)} not in the plan")
    survivors = [r for r in range(plan.n_workers) if r not in dead]
    if not survivors:
        raise ValueError("cannot redistribute: no surviving workers")
    if not dead:
        return plan
    old = np.asarray([plan.fractions[r] for r in survivors], dtype=np.float64)
    new = _normalize(old)
    if plan.predicted_times:
        pred = tuple(
            float(plan.predicted_times[r] * ni / max(oi, 1e-30))
            for r, oi, ni in zip(survivors, old, new)
        )
    else:
        pred = ()
    return PartitionPlan("degraded", tuple(map(float, new)), pred,
                         rounds=plan.rounds)


def exposed_sync_time(
    finish_times: Sequence[float],
    sync_time: float | Sequence[float],
) -> float:
    """Server sync queue simulation: how far sync extends the epoch.

    The server merges one push at a time (``T_i_sync`` each, Eq. 3), in
    arrival order.  The *exposed* synchronization is the interval
    between the last push landing and the server finishing the last
    merge — the quantity that adds to ``max{T_i}`` in Eq. 1.

    ``sync_time`` may be a scalar (every push costs the same merge) or a
    per-push sequence — Strategy 3's pipelined workers push one chunk
    per stream, each needing only ``T_sync / streams`` of merging, which
    is how asynchronous computing-transmission also hides sync under
    compute ("synchronization on the server will occur in the middle of
    the process", paper 3.4).
    """
    finishes = [float(f) for f in finish_times]
    if not finishes:
        return 0.0
    if np.isscalar(sync_time):
        durations = [float(sync_time)] * len(finishes)
    else:
        durations = [float(s) for s in sync_time]
        if len(durations) != len(finishes):
            raise ValueError("one sync duration per push required")
    if any(d < 0 for d in durations):
        raise ValueError("sync durations must be non-negative")
    events = sorted(zip(finishes, durations))
    server_free = 0.0
    for f, d in events:
        server_free = max(server_free, f) + d
    return max(0.0, server_free - events[-1][0])
