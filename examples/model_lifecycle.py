#!/usr/bin/env python
"""The full model lifecycle: tune, train, checkpoint, resume, fold in.

A downstream user's workflow beyond the paper's experiments:

1. hyper-parameter grid search on a validation split;
2. training with a decaying learning-rate schedule;
3. checkpoint to disk and resume for extra epochs;
4. fold a brand-new user into the trained model without retraining;
5. compare solver families (SGD vs ALS vs CCD++) at equal epochs.

Run:  python examples/model_lifecycle.py
"""

import tempfile
from pathlib import Path

import numpy as np

from repro.core.checkpoint import Checkpoint, load_checkpoint, resume_hogwild, save_checkpoint
from repro.data.datasets import NETFLIX
from repro.mf.als import ALS
from repro.mf.ccd import CCDPlusPlus, fold_in_user
from repro.mf.schedules import InverseTimeDecay
from repro.mf.search import SearchSpace, grid_search
from repro.mf.sgd import HogwildSGD


def main() -> None:
    data = NETFLIX.scaled(25_000).generate(seed=11)
    print(f"data: {data}\n")

    # 1. hyper-parameter search ---------------------------------------
    space = SearchSpace(k=(8, 16), lr=(0.01, 0.02), reg=(0.01, 0.05))
    report = grid_search(data, space, epochs=8, seed=11)
    print("grid search (validation RMSE, best first):")
    for r in report.top(4):
        print(f"  k={r.params['k']:3d} lr={r.params['lr']:5.3f} "
              f"reg={r.params['reg']:5.3f} -> {r.val_rmse:.4f} "
              f"({r.epochs_run} epochs)")
    best = report.best.params

    # 2. train with a decaying schedule --------------------------------
    trainer = HogwildSGD(
        k=best["k"], reg=best["reg"], seed=11,
        lr_schedule=InverseTimeDecay(best["lr"], decay=0.15),
    )
    trainer.fit(data, epochs=8)
    print(f"\ntrained with inverse-time decay: final rmse "
          f"{trainer.history.final_rmse:.4f}")

    # 3. checkpoint and resume -----------------------------------------
    workdir = Path(tempfile.mkdtemp(prefix="hccmf-ckpt-"))
    ckpt = Checkpoint(
        model=trainer.model, epoch=8, rmse_history=trainer.history.rmse,
        config={"lr": best["lr"], "reg": best["reg"], "seed": 11,
                "batch_size": 4096},
    )
    save_checkpoint(ckpt, workdir / "model")     # one file: model.ckpt
    resumed = resume_hogwild(load_checkpoint(workdir / "model"), data, extra_epochs=4)
    print(f"resumed +4 epochs: {ckpt.rmse_history[-1]:.4f} -> "
          f"{resumed.rmse_history[-1]:.4f} (epoch {resumed.epoch})")

    # 4. fold in a new user ---------------------------------------------
    rng = np.random.default_rng(5)
    new_items = rng.choice(data.n, size=8, replace=False)
    new_ratings = rng.uniform(3.5, 5.0, size=8).astype(np.float32)
    p_new = fold_in_user(resumed.model, new_items, new_ratings, reg=best["reg"])
    scores = p_new @ resumed.model.Q
    top = np.argsort(scores)[::-1][:5]
    print(f"new user folded in from 8 ratings; top-5 items: {top.tolist()}")

    # 5. solver families at equal epochs --------------------------------
    print("\nsolver families (5 epochs each):")
    for name, solver in (
        ("SGD (Hogwild)", HogwildSGD(k=best["k"], lr=best["lr"], reg=best["reg"], seed=11)),
        ("ALS", ALS(k=best["k"], reg=0.1, seed=11)),
        ("CCD++", CCDPlusPlus(k=best["k"], reg=0.05, seed=11)),
    ):
        solver.fit(data, epochs=5)
        curve = " -> ".join(f"{r:.3f}" for r in solver.history.rmse)
        print(f"  {name:14s} {curve}")
    print("\nclosed-form solvers win per epoch; SGD wins per second at")
    print("large k — which is why HCC-MF parallelizes SGD (docs/cost_model.md).")

    for p in workdir.iterdir():
        p.unlink()
    workdir.rmdir()


if __name__ == "__main__":
    main()
