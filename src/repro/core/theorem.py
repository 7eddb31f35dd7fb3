"""Numerical verification of the paper's Theorem 1.

Theorem 1 (section 3.3): with ``sum x_i = 1``, the partition minimizing
``T(x) = max_i (a_i x_i + b_i)`` is the one equalizing every
``a_i x_i + b_i``.  The paper proves it by exchange; this module checks
it *numerically* — solve the equalizing partition in closed form, then
show no random perturbation on the simplex does better — turning the
proof into a reproducible experiment (and a hypothesis-testable
property).

No entry point imports this module: it stays as the paper's Theorem 1,
run by ``tests/test_core_theorem.py`` (pinned in
``tests/test_reach_census.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np


def equalizing_partition(a: Sequence[float], b: Sequence[float]) -> np.ndarray:
    """The closed-form Theorem 1 solution.

    Solves ``a_i x_i + b_i = C`` with ``sum x_i = 1``:
    ``C = (1 + sum(b_j/a_j)) / sum(1/a_j)`` and ``x_i = (C - b_i)/a_i``.
    Raises when the equalizer would need a negative share (a worker
    whose fixed cost ``b_i`` already exceeds the common level cannot be
    equalized and should be excluded by the caller).
    """
    a = np.asarray(list(a), dtype=np.float64)
    b = np.asarray(list(b), dtype=np.float64)
    if len(a) != len(b) or len(a) == 0:
        raise ValueError("a and b must be equal-length and non-empty")
    if np.any(a <= 0):
        raise ValueError("per-unit costs a_i must be positive")
    inv = 1.0 / a
    level = (1.0 + np.sum(b * inv)) / np.sum(inv)
    x = (level - b) * inv
    if np.any(x < -1e-12):
        raise ValueError(
            "no equalizing partition with non-negative shares exists "
            "(some b_i exceeds the common level)"
        )
    x = np.maximum(x, 0.0)
    return x / x.sum()


def makespan(a: Sequence[float], b: Sequence[float], x: Sequence[float]) -> float:
    """``T(x) = max_i (a_i x_i + b_i)``."""
    a = np.asarray(list(a), dtype=np.float64)
    b = np.asarray(list(b), dtype=np.float64)
    x = np.asarray(list(x), dtype=np.float64)
    return float(np.max(a * x + b))


@dataclass(frozen=True)
class Theorem1Report:
    """Outcome of the random-perturbation optimality check."""

    x_star: tuple[float, ...]
    optimal_makespan: float
    best_perturbed_makespan: float
    trials: int

    @property
    def holds(self) -> bool:
        return self.best_perturbed_makespan >= self.optimal_makespan - 1e-9


def verify_theorem1(
    a: Sequence[float],
    b: Sequence[float],
    trials: int = 2000,
    scale: float = 0.2,
    seed: int = 0,
) -> Theorem1Report:
    """Check that no perturbed simplex point beats the equalizer.

    Draws ``trials`` random Dirichlet-ish perturbations around the
    closed-form solution (projected back onto the simplex) and records
    the best makespan found; Theorem 1 predicts it never undercuts the
    equalizer's.
    """
    if trials <= 0:
        raise ValueError("trials must be positive")
    if not (0 < scale < 1):
        raise ValueError("scale must be in (0, 1)")
    x_star = equalizing_partition(a, b)
    optimum = makespan(a, b, x_star)
    rng = np.random.default_rng(seed)
    best = float("inf")
    n = len(x_star)
    for _ in range(trials):
        noise = rng.normal(0.0, scale, size=n)
        cand = np.maximum(x_star * (1.0 + noise), 1e-12)
        cand = cand / cand.sum()
        best = min(best, makespan(a, b, cand))
    # also try fully random simplex points (global, not just local)
    for _ in range(trials):
        cand = rng.dirichlet(np.ones(n))
        best = min(best, makespan(a, b, cand))
    return Theorem1Report(
        x_star=tuple(float(v) for v in x_star),
        optimal_makespan=optimum,
        best_perturbed_makespan=best,
        trials=2 * trials,
    )
