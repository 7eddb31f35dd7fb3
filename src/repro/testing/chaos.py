"""Seeded chaos scenarios: the deterministic fault matrix both planes run.

A :class:`ChaosScenario` is everything one differential experiment
needs — worker count, epochs, the injected :class:`FaultPlan`, the
recovery policy — all derived from a seed, so a failing scenario is
reproducible from its seed alone.

Two sources of scenarios:

* :func:`default_matrix` — the named, hand-picked matrix the
  ``repro chaos-parity`` acceptance gate runs through *both* planes
  (one scenario per fault kind plus the rank-remap and abort paths).
  These avoid the two spots where the planes legitimately diverge: a
  corrupt payload at the final epoch (process workers exit cleanly
  right after, so the grace join classifies the rank dead while the
  sim calls it a straggler) and delays within ~1s of the barrier
  timeout (the health plane's grace join can catch the sleeping
  worker's clean exit).
* :func:`generate_scenarios` — the randomized matrix (fault kind x
  rank x epoch x policy) for the sim-only regression sweep, which has
  no such restrictions.

:func:`parity_platform` builds the sim platform a parity run must use:
identical CPUs over shared memory, mirroring the process plane's
homogeneous host-CPU substrate, so the sim prices its epochs on the
kind of worker the process plane really runs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.config import RecoveryPolicy
from repro.hardware.processor import Processor
from repro.hardware.specs import PROCESSOR_CATALOG, SHARED_MEMORY
from repro.hardware.topology import Platform
from repro.resilience.faults import CORRUPT, DELAY, DROP, KILL, FaultPlan

#: no backoff sleeps inside harness runs
_FAST = dict(backoff_base_s=0.0)

#: fatal delays exceed timeout + the health plane's 1s grace join by a
#: margin, so a sleeping straggler is never misread as a clean exit
_FATAL_DELAY_MARGIN_S = 3.0


def parity_platform(n_workers: int) -> Platform:
    """A homogeneous all-CPU sim platform mirroring the process substrate."""
    if n_workers <= 0:
        raise ValueError("n_workers must be positive")
    server = Processor(PROCESSOR_CATALOG["6242"], threads=10, instance="cpu0")
    platform = Platform(server=server)
    for i in range(n_workers):
        platform.add_worker(
            Processor(PROCESSOR_CATALOG["6242"], threads=10, instance=f"cpu{i}w"),
            SHARED_MEMORY,
        )
    return platform


@dataclass(frozen=True)
class ChaosScenario:
    """One seeded fault experiment, runnable on either plane."""

    name: str
    seed: int
    n_workers: int
    epochs: int
    fault_plan: FaultPlan
    recovery: RecoveryPolicy
    k: int = 8
    lr: float = 0.01
    barrier_timeout_s: float = 5.0
    #: synthetic dataset size (NETFLIX.scaled) both planes train on
    data_nnz: int = 4000
    #: the scenario is *supposed* to end in TrainingAborted
    expect_abort: bool = False

    def __post_init__(self) -> None:
        if self.n_workers <= 0:
            raise ValueError("n_workers must be positive")
        if self.epochs <= 0:
            raise ValueError("epochs must be positive")
        for f in self.fault_plan.faults:
            if f.rank >= self.n_workers:
                raise ValueError(
                    f"scenario {self.name!r}: fault rank {f.rank} outside "
                    f"{self.n_workers} workers"
                )

    def describe(self) -> str:
        return (
            f"{self.name}: seed={self.seed} workers={self.n_workers} "
            f"epochs={self.epochs} faults=[{self.fault_plan.describe()}]"
        )


def default_matrix(seed: int = 0) -> tuple[ChaosScenario, ...]:
    """The named acceptance matrix: every fault kind, every decision path.

    Deterministic given ``seed`` (which offsets the data/model seeds, so
    different seeds exercise different numerics over the same faults).
    """
    return (
        ChaosScenario(
            name="kill-soft",
            seed=seed,
            n_workers=3,
            epochs=4,
            # two healthy epochs, then two degraded ones over the survivors
            fault_plan=FaultPlan().kill(2, epoch=2),
            recovery=RecoveryPolicy(min_workers=2, **_FAST),
        ),
        ChaosScenario(
            name="kill-hard",
            seed=seed + 1,
            n_workers=3,
            epochs=4,
            fault_plan=FaultPlan().kill(1, epoch=2, hard=True),
            recovery=RecoveryPolicy(min_workers=2, **_FAST),
        ),
        ChaosScenario(
            name="corrupt-retry",
            seed=seed + 2,
            n_workers=2,
            epochs=3,
            fault_plan=FaultPlan().corrupt_payload(1, epoch=1),
            recovery=RecoveryPolicy(max_retries=2, **_FAST),
        ),
        ChaosScenario(
            name="drop-silent",
            seed=seed + 3,
            n_workers=2,
            epochs=3,
            fault_plan=FaultPlan().drop_payload(1, epoch=1),
            recovery=RecoveryPolicy(**_FAST),
        ),
        ChaosScenario(
            name="straggler-retry",
            seed=seed + 4,
            n_workers=2,
            epochs=3,
            barrier_timeout_s=2.0,
            fault_plan=FaultPlan().delay_barrier(
                0, epoch=1, seconds=2.0 + 1.0 + _FATAL_DELAY_MARGIN_S
            ),
            recovery=RecoveryPolicy(max_retries=1, **_FAST),
        ),
        ChaosScenario(
            name="two-deaths-remap",
            seed=seed + 5,
            n_workers=4,
            epochs=5,
            # the epoch-3 kill targets (old) rank 3; after the epoch-2
            # death of rank 1 renumbers survivors 0,2,3 -> 0,1,2 the
            # pending fault must follow its worker to rank 2 — the
            # remap this scenario exists to verify, on both planes
            fault_plan=FaultPlan().kill(1, epoch=2).kill(3, epoch=3),
            recovery=RecoveryPolicy(min_workers=2, **_FAST),
        ),
        ChaosScenario(
            name="abort-checkpointed",
            seed=seed + 6,
            n_workers=2,
            epochs=3,
            fault_plan=FaultPlan().kill(1, epoch=1),
            recovery=RecoveryPolicy(min_workers=2, **_FAST),
            expect_abort=True,
        ),
    )


def generate_scenarios(
    seed: int,
    count: int,
    data_nnz: int = 3000,
) -> tuple[ChaosScenario, ...]:
    """The randomized chaos matrix for the sim-only regression sweep.

    Deterministic in ``seed``: fault kind x rank x epoch x policy are
    all drawn from one ``default_rng(seed)`` stream, so any failure
    reproduces from the seed printed in the test's message.
    """
    if count <= 0:
        raise ValueError("count must be positive")
    rng = np.random.default_rng(seed)
    timeout = 2.0
    fatal = timeout + 1.0 + _FATAL_DELAY_MARGIN_S
    out: list[ChaosScenario] = []
    for i in range(count):
        n_workers = int(rng.integers(2, 5))
        epochs = int(rng.integers(3, 6))
        plan = FaultPlan()
        for _ in range(int(rng.integers(1, 3))):
            kind = (KILL, DELAY, DROP, CORRUPT)[int(rng.integers(0, 4))]
            rank = int(rng.integers(0, n_workers))
            epoch = int(rng.integers(0, epochs))
            if kind == KILL:
                plan = plan.kill(rank, epoch, hard=bool(rng.integers(0, 2)))
            elif kind == DELAY:
                seconds = fatal if rng.integers(0, 2) else 0.1
                point = ("start", "end")[int(rng.integers(0, 2))]
                plan = plan.delay_barrier(rank, epoch, seconds, point=point)
            elif kind == DROP:
                plan = plan.drop_payload(rank, epoch)
            else:
                plan = plan.corrupt_payload(rank, epoch)
        policy = RecoveryPolicy(
            max_retries=int(rng.integers(0, 3)),
            min_workers=int(rng.integers(1, 3)),
            redistribute=bool(rng.integers(0, 10)),  # off ~1 in 10
            **_FAST,
        )
        out.append(
            ChaosScenario(
                name=f"gen-{seed}-{i}",
                seed=seed * 10_000 + i,
                n_workers=n_workers,
                epochs=epochs,
                fault_plan=plan,
                recovery=policy,
                barrier_timeout_s=timeout,
                data_nnz=data_nnz,
            )
        )
    return tuple(out)
