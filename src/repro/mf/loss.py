"""Loss functions for SGD-based MF (paper Figure 1).

The training objective is the regularized squared error

    sum_{(i,j) in R} (r_ij - p_i . q_j)^2
        + lambda1 ||P||^2 + lambda2 ||Q||^2

with lambda1 = lambda2 in all of the paper's experiments (Table 3).
RMSE over observed entries is the convergence metric of Figure 7.

No entry point imports this module: it stays as the reference
``tests/test_mf_kernels.py`` compares the kernels against (pinned in
``tests/test_reach_census.py``).
"""

from __future__ import annotations

import numpy as np

from repro.data.ratings import RatingMatrix
from repro.mf.model import MFModel


def rmse(model: MFModel, ratings: RatingMatrix) -> float:
    """Root-mean-square error over observed entries (Figure 7 metric)."""
    return model.rmse(ratings)


def regularized_loss(
    model: MFModel,
    ratings: RatingMatrix,
    reg_p: float,
    reg_q: float | None = None,
) -> float:
    """The full training objective (squared error + L2 penalties)."""
    if reg_q is None:
        reg_q = reg_p
    sq = float(np.sum(np.square(model.residual(ratings), dtype=np.float64)))
    pen = reg_p * float(np.sum(np.square(model.P, dtype=np.float64)))
    pen += reg_q * float(np.sum(np.square(model.Q, dtype=np.float64)))
    return sq + pen


def per_entry_errors(model: MFModel, ratings: RatingMatrix) -> np.ndarray:
    """Signed prediction errors ``r_ij - p_i.q_j`` for each observed entry."""
    return model.residual(ratings)
