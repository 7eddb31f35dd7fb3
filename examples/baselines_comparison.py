#!/usr/bin/env python
"""Compare every SGD-MF parallelization family in the library.

Implements the paper's section-5 related-work discussion as a runnable
comparison: FPSGD (multi-core blocks), CuMF_SGD (GPU waves), DSGD
(synchronous strata), NOMAD (column passing), and HCC-MF (heterogeneous
parameter server), all on the same Netflix-shaped data:

* convergence per epoch for every method;
* DSGD's bucket effect on heterogeneous workers (modeled);
* NOMAD's message overhead vs HCC-MF's bulk transfers.

Run:  python examples/baselines_comparison.py
"""

from repro import HCCConfig, HCCMF, NETFLIX, paper_workstation
from repro.mf import DSGD, NOMAD, CuMFSGD, FPSGD
from repro.mf.dsgd import dsgd_epoch_time


def main() -> None:
    epochs, k, lr = 8, 12, 0.01
    full = NETFLIX.scaled(30_000).generate(seed=5)
    train, test = full.split(0.15, seed=5)
    print(f"data: {full} (train/test split 85/15)\n")

    results = {}

    hcc = HCCMF(
        paper_workstation(16), NETFLIX,
        HCCConfig(k=k, epochs=epochs, learning_rate=lr, seed=5),
        ratings=train,
    ).train(eval_data=test)
    results["HCC-MF"] = hcc.rmse_history

    for name, algo in [
        ("FPSGD", FPSGD(k=k, threads=4, lr=lr, reg=NETFLIX.reg, seed=5)),
        ("CuMF_SGD", CuMFSGD(k=k, gpu_threads=4096, lr=lr, reg=NETFLIX.reg, seed=5)),
        ("DSGD", DSGD(k=k, workers=4, lr=lr, reg=NETFLIX.reg, seed=5)),
        ("NOMAD", NOMAD(k=k, workers=4, lr=lr, reg=NETFLIX.reg, seed=5)),
    ]:
        algo.fit(train, epochs=epochs, eval_data=test)
        results[name] = algo.history.rmse
        if name == "NOMAD":
            nomad = algo

    print(f"{'method':10s} " + " ".join(f"ep{e + 1:><6d}"[1:] for e in range(epochs)))
    for name, history in results.items():
        print(f"{name:10s} " + " ".join(f"{r:6.3f}" for r in history))

    # --- the section-5 critiques, quantified -------------------------
    import numpy as np

    platform = paper_workstation(16)
    rates = [w.update_rate(128, NETFLIX, corun=True) for w in platform.workers]
    p = len(rates)
    equal_blocks = np.full((p, p), NETFLIX.nnz / (p * p))
    t_dsgd = dsgd_epoch_time(equal_blocks, rates)
    t_hcc = HCCMF(platform, NETFLIX, HCCConfig(k=128, epochs=20)).train().epoch_cost.total
    print(f"\nDSGD equal split on the heterogeneous testbed: "
          f"{t_dsgd * 1e3:.0f} ms/epoch vs HCC-MF {t_hcc * 1e3:.0f} ms "
          f"({t_dsgd / t_hcc:.1f}x slower — the bucket effect)")

    msgs_per_epoch = nomad.column_messages / epochs
    print(f"NOMAD column messages: {msgs_per_epoch:,.0f}/epoch vs HCC-MF's "
          f"{2 * 4} bulk transfers — the 'huge communication overhead' of "
          f"section 5 is per-message software cost")


if __name__ == "__main__":
    main()
