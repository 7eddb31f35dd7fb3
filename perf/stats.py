"""Estimators: the anti-noise rules that are part of each metric's definition.

Pure Python on purpose — the runner's parent process never imports
numpy, and the unit tests pin these on hand-made series.
"""

from __future__ import annotations

import statistics
from typing import Sequence

#: epochs discarded before any steady-state estimate (first-touch,
#: worker attach and allocator warm-up land here)
WARMUP_EPOCHS = 2


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile (numpy's default), ``q`` in [0, 100]."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def pair_half_median(durations: Sequence[float], skip: int = WARMUP_EPOCHS) -> float:
    """Steady per-epoch seconds: half the median of consecutive-pair sums.

    On the process plane consecutive steady epochs alternate between two
    modes (perf/README.md, sizing fact 1), so a plain median over an odd
    handful of epochs flips between them.  Summing non-overlapping
    *pairs* first cancels the alternation; the median over pairs then
    rejects a disturbed pair.  The first ``skip`` epochs are dropped.
    """
    steady = list(durations[skip:])
    pairs = [steady[i] + steady[i + 1] for i in range(0, len(steady) - 1, 2)]
    if not pairs:
        # too few epochs to pair (smoke scale): plain median of what exists
        return statistics.median(steady or durations)
    return statistics.median(pairs) / 2.0


def interpolate_crossing(
    times: Sequence[float], values: Sequence[float], target: float
) -> "float | None":
    """When a decreasing series first reaches ``target``, linearly in time.

    ``times[i]`` is the stamp at which ``values[i]`` was observed (epoch
    ends).  The crossing is interpolated between the two observations
    that bracket the target, so it moves smoothly with speed instead of
    jumping by whole epochs.  ``None`` when the target is never reached.
    """
    if len(times) != len(values):
        raise ValueError("times and values must align")
    for i, value in enumerate(values):
        if value <= target:
            if i == 0 or values[i - 1] == value:
                return times[i]
            frac = (values[i - 1] - target) / (values[i - 1] - value)
            return times[i - 1] + frac * (times[i] - times[i - 1])
    return None


def iqr_spread(values: Sequence[float]) -> float:
    """(Q3 - Q1) / median — the spread the benchmark driver computes."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def range_spread(values: Sequence[float]) -> float:
    """(max - min) / median — the demotion rule's stricter spread."""
    return (max(values) - min(values)) / statistics.median(values)
