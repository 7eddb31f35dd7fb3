"""Wall-clock data-partition tuning: Algorithm 1 on real measurements.

The timing plane runs DP0/DP1 against the calibrated model; this module
runs them against *this host*: each candidate shard is timed with the
real NumPy kernel (the paper's "measure one epoch" step), Eq. 6 turns
the measured times into DP0 fractions, and Algorithm 1's compensation
loop re-times under each refined partition.  The result's ``plan``
feeds ``EpochEngine(ProcessBackend(...), partitions=plan)`` directly.

On a homogeneous host the fractions come out near-uniform — which is
itself the correct answer; shard-dependent cache behaviour (row ranges
with hot items) is what produces the residual spread.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.core.partition import PartitionPlan, dp0, dp1
from repro.data.grid import GridKind, partition_rows
from repro.data.ratings import RatingMatrix
from repro.mf.kernels import ConflictPolicy, sgd_epoch
from repro.mf.model import MFModel


@dataclass(frozen=True)
class MeasuredPartition:
    """A wall-clock-derived partition plan plus its measurements."""

    plan: PartitionPlan
    independent_times: tuple[float, ...]
    calibration_seconds: float


def _time_shard(shard: RatingMatrix, k: int, batch_size: int, seed: int) -> float:
    """Seconds for one calibration epoch over a shard (floor-guarded)."""
    if shard.nnz == 0:
        return 1e-9
    model = MFModel.init_for(shard, k, seed=seed)
    rng = np.random.default_rng(seed)
    t0 = time.perf_counter()
    sgd_epoch(model, shard, 0.005, 0.01, batch_size=batch_size,
              policy=ConflictPolicy.ATOMIC, rng=rng)
    return max(time.perf_counter() - t0, 1e-9)


def measure_partition(
    ratings: RatingMatrix,
    n_workers: int,
    k: int = 16,
    batch_size: int = 4096,
    refine: bool = True,
    max_rounds: int = 3,
    seed: int = 0,
) -> MeasuredPartition:
    """Derive DP0 (and optionally DP1) fractions from timed epochs.

    The DP0 step times each worker's *even-split* shard scaled up to the
    full dataset (the per-entry rate is what Eq. 6 needs); the DP1 loop
    then re-times the shards each refined partition produces.
    """
    if n_workers <= 0:
        raise ValueError("n_workers must be positive")
    t_start = time.perf_counter()
    data = ratings.shuffle(seed)

    even = [1.0 / n_workers] * n_workers
    shards = [a.extract(data) for a in partition_rows(data, even, GridKind.ROW)]
    # independent time = full-dataset time at this shard's measured rate
    independent = []
    for shard in shards:
        t = _time_shard(shard, k, batch_size, seed)
        rate = shard.nnz / t if shard.nnz else 1.0
        independent.append(data.nnz / max(rate, 1.0))
    base = dp0(independent)

    if not refine:
        return MeasuredPartition(
            plan=base,
            independent_times=tuple(independent),
            calibration_seconds=time.perf_counter() - t_start,
        )

    def measure(fractions):
        parts = partition_rows(data, list(fractions), GridKind.ROW)
        return [
            _time_shard(a.extract(data), k, batch_size, seed) for a in parts
        ]

    # all host workers are CPU processes; Algorithm 1 degenerates to its
    # homogeneous short-circuit unless told otherwise, so mark none as GPU
    refined = dp1(base, measure, is_gpu=[False] * n_workers, max_rounds=max_rounds)
    return MeasuredPartition(
        plan=refined,
        independent_times=tuple(independent),
        calibration_seconds=time.perf_counter() - t_start,
    )
