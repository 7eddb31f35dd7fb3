"""Cross-plane chaos parity: the same fault scenario, both substrates.

:func:`run_scenario` executes one :class:`~repro.testing.chaos.ChaosScenario`
on either plane — the sim backend with its injected faults and
simulated exit codes, or the process backend with real spawned
workers — and condenses the run into a
:class:`PlaneOutcome`.  :func:`check_parity` then holds the two
outcomes to the differential contract:

* **identical recovery decisions** — the ``(epoch, error, action)``
  sequence the engine recorded is equal element-for-element;
* **identical final partition fractions** — both planes ran the same
  ``redistribute()`` renormalization from the same even start, so the
  fractions must match exactly, not just approximately;
* **RMSE within tolerance** — the planes train different shard
  contents (different partitioning substrate), so convergence agrees
  to a relative tolerance, not bitwise.

Epoch cost is not compared: at harness scale the process plane's
measured degraded/healthy ratio is noise (docs/resilience.md).  The
sim's degraded pricing is held by its own tests
(``tests/test_chaos_parity.py``, ``tests/test_core_cost_model.py``).
"""

from __future__ import annotations

import os
import tempfile
from dataclasses import dataclass

from repro.core.cost_model import TimeCostModel
from repro.data.datasets import NETFLIX
from repro.engine.backends import ProcessBackend, SimBackend
from repro.engine.channels import QOnlyChannel
from repro.engine.pipeline import EpochEngine
from repro.resilience.policy import RecoveryAction, TrainingAborted
from repro.testing.chaos import ChaosScenario, parity_platform

PLANES = ("sim", "process")


@dataclass(frozen=True)
class PlaneOutcome:
    """One plane's condensed account of a chaos scenario run."""

    plane: str
    scenario_name: str
    aborted: bool
    abort_epoch: "int | None"
    #: an abort wrote (and we verified on disk) a final checkpoint
    checkpoint_written: bool
    #: the engine's (global epoch, error type, action) record
    decisions: tuple[tuple[int, str, str], ...]
    final_fractions: tuple[float, ...]
    final_workers: int
    rmse_history: tuple[float, ...]


@dataclass(frozen=True)
class ParityCheck:
    """One named comparison between the two planes' outcomes."""

    name: str
    ok: bool
    detail: str


@dataclass(frozen=True)
class ParityReport:
    """All parity checks for one scenario."""

    scenario_name: str
    checks: tuple[ParityCheck, ...]

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    def describe(self) -> str:
        lines = [f"scenario {self.scenario_name}:"]
        for c in self.checks:
            mark = "ok" if c.ok else "FAIL"
            lines.append(f"  [{mark:>4}] {c.name}: {c.detail}")
        return "\n".join(lines)


def run_scenario(
    scenario: ChaosScenario,
    plane: str,
    data=None,
    checkpoint_dir: "str | None" = None,
) -> PlaneOutcome:
    """Execute one scenario on one plane and condense the outcome.

    ``data`` overrides the scenario's generated ratings (pass the same
    matrix to both planes); ``checkpoint_dir`` overrides the temporary
    directory abort checkpoints land in.
    """
    if plane not in PLANES:
        raise ValueError(f"plane must be one of {PLANES}, not {plane!r}")
    if data is None:
        data = NETFLIX.scaled(scenario.data_nnz).generate(seed=scenario.seed)
    with tempfile.TemporaryDirectory() as tmp:
        ckpt_path = os.path.join(
            checkpoint_dir if checkpoint_dir is not None else tmp,
            f"{scenario.name}-{plane}.ckpt",
        )
        if plane == "sim":
            platform = parity_platform(scenario.n_workers)
            backend = SimBackend(
                platform,
                data.shuffle(scenario.seed),
                k=scenario.k,
                lr=scenario.lr,
                seed=scenario.seed,
                cost_model=TimeCostModel(
                    platform, NETFLIX.scaled(scenario.data_nnz), k=scenario.k
                ),
                fault_plan=scenario.fault_plan,
                barrier_timeout_s=scenario.barrier_timeout_s,
            )
        else:
            backend = ProcessBackend(
                data,
                k=scenario.k,
                n_workers=scenario.n_workers,
                lr=scenario.lr,
                seed=scenario.seed,
                barrier_timeout_s=scenario.barrier_timeout_s,
                fault_plan=scenario.fault_plan,
            )
        engine = EpochEngine(
            backend,
            channel=QOnlyChannel(),
            recovery=scenario.recovery,
            checkpoint_path=ckpt_path,
        )
        aborted = False
        abort_epoch = None
        checkpoint_written = False
        result = None
        try:
            result = engine.run(scenario.epochs)
            summary = result.resilience
        except TrainingAborted as err:
            aborted = True
            abort_epoch = err.epoch
            summary = err.summary
            checkpoint_written = _checkpoint_readable(err.checkpoint_path)
        decisions = tuple(summary.decisions) if summary is not None else ()
        return PlaneOutcome(
            plane=plane,
            scenario_name=scenario.name,
            aborted=aborted,
            abort_epoch=abort_epoch,
            checkpoint_written=checkpoint_written,
            decisions=decisions,
            final_fractions=(
                tuple(result.final_plan.fractions)
                if result is not None and result.final_plan is not None
                else ()
            ),
            final_workers=backend.n_workers,
            rmse_history=(
                tuple(result.rmse_history) if result is not None else ()
            ),
        )


def _checkpoint_readable(path: "str | None") -> bool:
    """True when an abort's final checkpoint actually loads back."""
    if path is None:
        return False
    from repro.core.checkpoint import load_checkpoint

    try:
        load_checkpoint(path)
    except (FileNotFoundError, ValueError):
        return False
    return True


def check_parity(
    sim: PlaneOutcome,
    process: PlaneOutcome,
    rmse_rel_tol: float = 0.08,
) -> ParityReport:
    """Hold a scenario's two outcomes to the differential contract."""
    checks: list[ParityCheck] = []
    checks.append(ParityCheck(
        "decisions",
        sim.decisions == process.decisions,
        f"sim={list(sim.decisions)} process={list(process.decisions)}",
    ))
    abort_ok = (
        sim.aborted == process.aborted
        and sim.abort_epoch == process.abort_epoch
    )
    if sim.aborted and process.aborted:
        abort_ok = abort_ok and sim.checkpoint_written and process.checkpoint_written
    checks.append(ParityCheck(
        "abort",
        abort_ok,
        f"sim=({sim.aborted}, epoch={sim.abort_epoch}, "
        f"ckpt={sim.checkpoint_written}) "
        f"process=({process.aborted}, epoch={process.abort_epoch}, "
        f"ckpt={process.checkpoint_written})",
    ))
    if not sim.aborted and not process.aborted:
        checks.append(ParityCheck(
            "fractions",
            sim.final_fractions == process.final_fractions,
            f"sim={sim.final_fractions} process={process.final_fractions}",
        ))
        if sim.rmse_history and process.rmse_history:
            s, p = sim.rmse_history[-1], process.rmse_history[-1]
            rel = abs(s - p) / p if p > 0 else float("inf")
            checks.append(ParityCheck(
                "rmse",
                rel <= rmse_rel_tol,
                f"sim={s:.4f} process={p:.4f} rel={rel:.3f} "
                f"tol={rmse_rel_tol}",
            ))
        else:
            checks.append(ParityCheck(
                "rmse", False,
                f"missing history: sim={len(sim.rmse_history)} "
                f"process={len(process.rmse_history)} epochs",
            ))
    return ParityReport(sim.scenario_name, tuple(checks))


def check_invariants(scenario: ChaosScenario, outcome: PlaneOutcome) -> list[str]:
    """Single-plane safety invariants for the randomized regression sweep.

    Returns violation messages (empty = clean):

    * an abort must carry a checkpoint when the policy asks for one and
      a path is configured (``run_scenario`` always configures one);
    * a completed run must have exactly one RMSE per requested epoch —
      no epoch silently lost;
    * a completed run's decision record must contain no abort.
    """
    problems: list[str] = []
    if outcome.aborted:
        if scenario.recovery.checkpoint_on_abort and not outcome.checkpoint_written:
            problems.append("aborted without writing a checkpoint")
    else:
        if len(outcome.rmse_history) != scenario.epochs:
            problems.append(
                f"epoch loss: {len(outcome.rmse_history)} RMSE entries for "
                f"{scenario.epochs} epochs"
            )
        if any(a == RecoveryAction.ABORT.value for _, _, a in outcome.decisions):
            problems.append("decision record contains an abort on a completed run")
    return problems
