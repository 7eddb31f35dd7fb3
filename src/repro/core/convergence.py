"""Convergence diagnostics for RMSE curves.

Figure 7 compares methods by *when* they reach a target RMSE, not just
where they end up.  These helpers make that analysis a library feature:

* :func:`epochs_to_target` / :func:`time_to_target` — first crossing of
  a target RMSE (with linear interpolation between epochs);
* :func:`fit_exponential` — fit ``rmse(e) ~ floor + a * exp(-e/tau)``
  to a curve, yielding the convergence floor and time constant;
* :func:`speedup_at_target` — the Figure 7(d-f) metric: the ratio of
  two methods' times to a common target.

No entry point imports this module: it stays as the reading of
Figure 7(d-f), run by ``tests/test_core_convergence.py`` and the two
``tests/test_*_extensions.py`` files (pinned in
``tests/test_reach_census.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np


def epochs_to_target(rmse: Sequence[float], target: float) -> float:
    """Fractional epoch index where the curve first reaches ``target``.

    Linear interpolation between the bracketing epochs; ``inf`` when the
    target is never reached.  Epochs are 1-based (epoch 1 = after the
    first pass), matching Figure 7's axes.
    """
    r = np.asarray(list(rmse), dtype=np.float64)
    if len(r) == 0:
        raise ValueError("empty rmse history")
    below = np.nonzero(r <= target)[0]
    if len(below) == 0:
        return float("inf")
    i = int(below[0])
    if i == 0:
        return 1.0
    prev, curr = r[i - 1], r[i]
    if prev == curr:
        return float(i + 1)
    frac = (prev - target) / (prev - curr)
    return float(i + frac)


def time_to_target(
    rmse: Sequence[float],
    epoch_time: float,
    target: float,
) -> float:
    """Seconds until the target RMSE, given a constant per-epoch time."""
    if epoch_time <= 0:
        raise ValueError("epoch_time must be positive")
    return epochs_to_target(rmse, target) * epoch_time


def speedup_at_target(
    rmse_a: Sequence[float],
    epoch_time_a: float,
    rmse_b: Sequence[float],
    epoch_time_b: float,
    target: float | None = None,
) -> float:
    """How much faster method A reaches the target than method B.

    Defaults the target to the worst of the two final RMSEs (the point
    both curves provably reach), which is how Figure 7(d-f)'s speedup
    arrows are read.
    """
    if target is None:
        target = max(rmse_a[-1], rmse_b[-1])
    ta = time_to_target(rmse_a, epoch_time_a, target)
    tb = time_to_target(rmse_b, epoch_time_b, target)
    if ta == float("inf") or tb == float("inf"):
        raise ValueError("one method never reaches the target")
    if ta <= 0:
        raise ValueError("degenerate time-to-target")
    return tb / ta


@dataclass(frozen=True)
class ExponentialFit:
    """rmse(e) ~ floor + amplitude * exp(-(e-1)/tau)."""

    floor: float
    amplitude: float
    tau: float
    residual: float

    def predict(self, epoch: float) -> float:
        return self.floor + self.amplitude * np.exp(-(epoch - 1.0) / self.tau)

    def epochs_to_within(self, margin: float) -> float:
        """Epochs until the curve is within ``margin`` of its floor."""
        if margin <= 0:
            raise ValueError("margin must be positive")
        if self.amplitude <= margin:
            return 1.0
        return float(1.0 + self.tau * np.log(self.amplitude / margin))


def fit_exponential(rmse: Sequence[float]) -> ExponentialFit:
    """Least-squares exponential fit of a convergence curve.

    Grid-searches the floor (the fit is linear in log space given the
    floor) — robust for the short, monotone curves MF training emits.
    """
    r = np.asarray(list(rmse), dtype=np.float64)
    if len(r) < 3:
        raise ValueError("need at least 3 epochs to fit")
    epochs = np.arange(1.0, len(r) + 1.0)

    def evaluate(floor: float) -> ExponentialFit | None:
        y = r - floor
        if np.any(y <= 0):
            return None
        logy = np.log(y)
        # weight by y: log-space residuals near the floor would otherwise
        # dominate the fit
        slope, intercept = np.polyfit(epochs - 1.0, logy, 1, w=y)
        if slope >= 0:
            return None
        tau = -1.0 / slope
        amplitude = float(np.exp(intercept))
        pred = floor + amplitude * np.exp(-(epochs - 1.0) / tau)
        residual = float(np.sqrt(np.mean((pred - r) ** 2)))
        return ExponentialFit(float(floor), amplitude, float(tau), residual)

    best: ExponentialFit | None = None
    lo, hi = 0.0, float(r.min()) * 0.999
    for _ in range(2):  # coarse grid, then refine around the winner
        step = (hi - lo) / 59 if hi > lo else 0.0
        for floor in np.linspace(lo, hi, 60):
            fit = evaluate(float(floor))
            if fit is not None and (best is None or fit.residual < best.residual):
                best = fit
        if best is None or step == 0.0:
            break
        lo = max(0.0, best.floor - step)
        hi = min(float(r.min()) * 0.999, best.floor + step)
    if best is None:
        raise ValueError("curve is not decreasing; cannot fit an exponential")
    return best
