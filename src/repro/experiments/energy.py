"""Energy analysis of training runs: price + power economics.

Extends Figure 3's "more economical" argument with operating cost: a
cheaper platform that draws more watt-hours per training run may lose
over its lifetime.  :func:`energy_of` prices one
:class:`~repro.framework.TrainResult`;
:func:`compare_platform_energy` reruns Figure 3(a)'s platform survey
with joules and joules-per-million-updates columns.
"""

from __future__ import annotations

from repro.core.config import HCCConfig
from repro.data.datasets import DatasetSpec, NETFLIX
from repro.experiments.platforms import build_combo, combo_price
from repro.experiments.runners import single_processor_time
from repro.experiments.tables import ExperimentResult
from repro.framework import HCCMF, TrainResult
from repro.hardware.energy import EnergyReport, run_energy
from repro.hardware.processor import Processor
from repro.hardware.specs import PROCESSOR_CATALOG
from repro.hardware.topology import Platform


def energy_of(result: TrainResult, platform: Platform) -> EnergyReport:
    """Energy accounting for a finished (timing-plane) run.

    Worker busy time = its per-epoch compute + transfer work times the
    epoch count; the server is busy for the cumulative sync time.
    """
    busy = {
        name: phases["computing"] + phases["pull"] + phases["push"]
        for name, phases in result.phase_totals.items()
    }
    return run_energy(
        platform,
        busy,
        total_seconds=result.total_time,
        updates=result.dataset.nnz * result.epochs,
        server_busy_seconds=result.sync_time_total,
    )


def compare_platform_energy(
    dataset: DatasetSpec = NETFLIX,
    epochs: int = 20,
    k: int = 128,
) -> ExperimentResult:
    """Figure 3 revisited with energy columns.

    Single processors run compute-only (their busy time is the whole
    run); collaborations run the full HCC-MF pipeline.
    """
    result = ExperimentResult(
        "energy",
        f"Time, price and energy per training run ({dataset.name}, {epochs} epochs)",
        ["platform", "time_s", "price_usd", "joules", "J_per_Mupdate"],
    )
    for name in ("6242", "2080", "2080S", "V100"):
        t = single_processor_time(name, dataset, epochs, k)
        proc = Processor(PROCESSOR_CATALOG[name])
        joules = proc.spec.tdp_watts * t  # busy the whole run
        result.add_row(
            name, t, PROCESSOR_CATALOG[name].price_usd, joules,
            joules / (dataset.nnz * epochs / 1e6),
        )
    for names in (["6242", "2080"], ["6242", "2080S"], ["2080", "2080S"]):
        platform, config = build_combo(list(names))
        res = HCCMF(platform, dataset, HCCConfig(k=k, epochs=epochs, comm=config.comm)).train()
        report = energy_of(res, platform)
        result.add_row(
            # price by Figure 3(b)'s convention: only the named processors
            "-".join(names), res.total_time, combo_price(list(names)),
            report.total_joules, report.joules_per_mupdate,
        )
    result.add_note(
        "collaborations finish sooner but light up more silicon; "
        "J/Mupdate shows whether the trade nets out"
    )
    return result
