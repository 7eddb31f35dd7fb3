#!/usr/bin/env python
"""A model's lifecycle past training: checkpoint to disk, then resume.

1. train a Hogwild model for 8 epochs;
2. write it as one checksummed file (``model.ckpt``, docs/serving.md);
3. load that file and train 4 more epochs from it.

Run:  python examples/model_lifecycle.py
"""

import tempfile
from pathlib import Path

from repro.core.checkpoint import Checkpoint, load_checkpoint, resume_hogwild, save_checkpoint
from repro.data.datasets import NETFLIX
from repro.mf.sgd import HogwildSGD


def main() -> None:
    data = NETFLIX.scaled(25_000).generate(seed=11)
    print(f"data: {data}\n")
    k, lr, reg = 16, 0.02, 0.05

    # 1. train -----------------------------------------------------------
    trainer = HogwildSGD(k=k, lr=lr, reg=reg, seed=11)
    trainer.fit(data, epochs=8)
    print(f"trained 8 epochs: final rmse {trainer.history.final_rmse:.4f}")

    # 2. checkpoint, 3. resume ---------------------------------------------
    workdir = Path(tempfile.mkdtemp(prefix="hccmf-ckpt-"))
    ckpt = Checkpoint(
        model=trainer.model, epoch=8, rmse_history=trainer.history.rmse,
        config={"lr": lr, "reg": reg, "seed": 11, "batch_size": 4096},
    )
    save_checkpoint(ckpt, workdir / "model")     # one file: model.ckpt
    resumed = resume_hogwild(load_checkpoint(workdir / "model"), data, extra_epochs=4)
    print(f"resumed +4 epochs: {ckpt.rmse_history[-1]:.4f} -> "
          f"{resumed.rmse_history[-1]:.4f} (epoch {resumed.epoch})")

    for p in workdir.iterdir():
        p.unlink()
    workdir.rmdir()


if __name__ == "__main__":
    main()
