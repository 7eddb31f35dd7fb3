#!/usr/bin/env python
"""Real shared-memory multi-process training (paper 3.5's architecture).

Unlike the other examples (which combine real numerics with the
calibrated platform model), this one runs HCC-MF's process architecture
for real on your CPUs: one OS process per worker, shared-memory
feature matrices, single-copy pull/push buffers, and the server's
delta merge.

Run:  python examples/multiprocess_training.py
"""

from repro import NETFLIX, EpochEngine, ProcessBackend, QOnlyChannel


def main() -> None:
    ratings = NETFLIX.scaled(40_000).generate(seed=7)
    print(f"training data: {ratings}\n")

    for n_workers in (1, 2, 4):
        backend = ProcessBackend(
            ratings, k=16, n_workers=n_workers, lr=0.01, reg=0.01, seed=7
        )
        result = EpochEngine(backend, channel=QOnlyChannel()).run(epochs=6)
        curve = " -> ".join(f"{r:.3f}" for r in result.rmse_history)
        print(f"{n_workers} worker process(es): "
              f"{result.elapsed_seconds:6.2f}s wall, "
              f"{result.updates_per_second / 1e3:8.0f} K updates/s")
        print(f"  rmse: {curve}\n")

    print("note: wall-clock scaling here depends on the host's cores and")
    print("NumPy's thread usage; the paper's CPU+GPU testbed timing lives")
    print("in the calibrated model (see examples/quickstart.py).")


if __name__ == "__main__":
    main()
