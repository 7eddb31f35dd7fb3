"""Serial SGD reference and Hogwild-style asynchronous SGD trainers.

``SerialSGD`` runs the exact sequential recurrence (standard SGD,
paper section 2.1).  ``HogwildSGD`` runs vectorized mini-batches with a
configurable conflict policy — the asynchronous shared-memory semantics
Recht's Hogwild! theorem covers, and the basis of every worker kernel in
HCC-MF.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.data.ratings import RatingMatrix
from repro.mf.kernels import ConflictPolicy, sgd_epoch, sgd_epoch_serial
from repro.mf.model import MFModel


@dataclass
class TrainHistory:
    """Per-epoch convergence record (backs Figure 7's curves)."""

    rmse: list[float] = field(default_factory=list)
    train_mse: list[float] = field(default_factory=list)
    epochs: int = 0

    def record(self, rmse_value: float, train_mse: float) -> None:
        self.rmse.append(float(rmse_value))
        self.train_mse.append(float(train_mse))
        self.epochs += 1

    @property
    def final_rmse(self) -> float:
        if not self.rmse:
            raise ValueError("no epochs recorded")
        return self.rmse[-1]

    def converged(self, tol: float = 1e-3, window: int = 3) -> bool:
        """True when RMSE improvement over the last ``window`` epochs < tol."""
        if len(self.rmse) <= window:
            return False
        return abs(self.rmse[-1 - window] - self.rmse[-1]) < tol


class SerialSGD:
    """Exact sequential SGD (ground-truth semantics; tiny data only)."""

    def __init__(self, k: int, lr: float = 0.005, reg: float = 0.01, seed: int = 0):
        if k <= 0:
            raise ValueError("k must be positive")
        self.k = k
        self.lr = lr
        self.reg = reg
        self.seed = seed
        self.model: MFModel | None = None
        self.history = TrainHistory()

    def fit(self, ratings: RatingMatrix, epochs: int = 10, eval_data: RatingMatrix | None = None) -> MFModel:
        eval_data = eval_data if eval_data is not None else ratings
        self.model = MFModel.init_for(ratings, self.k, seed=self.seed)
        rng = np.random.default_rng(self.seed)
        for _ in range(epochs):
            shuffled = ratings.shuffle(rng)
            mse = sgd_epoch_serial(self.model, shuffled, self.lr, self.reg)
            self.history.record(self.model.rmse(eval_data), mse)
        return self.model


class HogwildSGD:
    """Asynchronous SGD with vectorized batches.

    ``policy=ATOMIC`` corresponds to element-wise-atomic Hogwild;
    ``policy=LAST_WRITE`` reproduces the lost-update behaviour of fully
    unsynchronized writers (the paper's asynchronous streams).
    """

    def __init__(
        self,
        k: int,
        lr: float = 0.005,
        reg: float = 0.01,
        batch_size: int = 4096,
        policy: ConflictPolicy = ConflictPolicy.ATOMIC,
        seed: int = 0,
    ):
        if k <= 0:
            raise ValueError("k must be positive")
        if batch_size <= 0:
            raise ValueError("batch_size must be positive")
        self.k = k
        self.lr = lr
        self.reg = reg
        self.batch_size = batch_size
        self.policy = policy
        self.seed = seed
        self.model: MFModel | None = None
        self.history = TrainHistory()

    def fit(
        self,
        ratings: RatingMatrix,
        epochs: int = 20,
        eval_data: RatingMatrix | None = None,
        early_stop_tol: float = 0.0,
    ) -> MFModel:
        """Train for up to ``epochs`` epochs.

        ``early_stop_tol > 0`` stops when the RMSE improvement over a
        3-epoch window drops below the tolerance (the paper trains until
        "the objective function converges").
        """
        eval_data = eval_data if eval_data is not None else ratings
        self.model = MFModel.init_for(ratings, self.k, seed=self.seed)
        rng = np.random.default_rng(self.seed)
        for _ in range(epochs):
            mse = sgd_epoch(
                self.model, ratings, self.lr, self.reg,
                batch_size=self.batch_size, policy=self.policy, rng=rng,
            )
            self.history.record(self.model.rmse(eval_data), mse)
            if early_stop_tol > 0 and self.history.converged(early_stop_tol):
                break
        return self.model
