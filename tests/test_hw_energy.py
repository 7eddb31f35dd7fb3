"""Unit tests for the energy model."""

import pytest

from repro.core.config import HCCConfig
from repro.data.datasets import NETFLIX
from repro.experiments.energy import compare_platform_energy, energy_of
from repro.framework import HCCMF
from repro.hardware.energy import (
    IDLE_POWER_FRACTION,
    processor_energy,
    run_energy,
)
from repro.hardware.processor import Processor
from repro.hardware.specs import RTX_2080S, XEON_6242
from repro.hardware.topology import paper_workstation


class TestProcessorEnergy:
    def test_fully_busy(self):
        p = Processor(RTX_2080S)
        assert processor_energy(p, 10.0, 10.0) == pytest.approx(250.0 * 10)

    def test_fully_idle(self):
        p = Processor(RTX_2080S)
        assert processor_energy(p, 0.0, 10.0) == pytest.approx(
            250.0 * 10 * IDLE_POWER_FRACTION
        )

    def test_mixed(self):
        p = Processor(XEON_6242)
        j = processor_energy(p, 4.0, 10.0, idle_fraction=0.5)
        assert j == pytest.approx(150.0 * (4.0 + 0.5 * 6.0))

    def test_validation(self):
        p = Processor(XEON_6242)
        with pytest.raises(ValueError):
            processor_energy(p, -1.0, 10.0)
        with pytest.raises(ValueError):
            processor_energy(p, 11.0, 10.0)
        with pytest.raises(ValueError):
            processor_energy(p, 1.0, 10.0, idle_fraction=2.0)


class TestRunEnergy:
    def test_special_worker_counted_once(self):
        plat = paper_workstation(16)
        busy = {w.name: 1.0 for w in plat.workers}
        report = run_energy(plat, busy, total_seconds=2.0, updates=1e6)
        # 4 workers but the time-shared one folds into the server's chip
        assert len(report.per_worker_joules) == 3
        assert report.server_joules > 0

    def test_efficiency_metric(self):
        plat = paper_workstation(16)
        busy = {w.name: 1.0 for w in plat.workers}
        report = run_energy(plat, busy, 2.0, updates=2e6)
        assert report.joules_per_mupdate == pytest.approx(report.total_joules / 2)
        assert report.watt_hours == pytest.approx(report.total_joules / 3600)

    def test_energy_of_train_result(self):
        plat = paper_workstation(16)
        res = HCCMF(plat, NETFLIX, HCCConfig(k=128, epochs=20)).train()
        report = energy_of(res, plat)
        assert report.total_joules > 0
        # no worker can be busier than the run is long
        peak = max(report.per_worker_joules.values())
        tdp_max = max(w.spec.tdp_watts for w in plat.workers)
        assert peak <= tdp_max * res.total_time * (1 + 1e-6)


class TestPlatformEnergyTable:
    @pytest.fixture(scope="class")
    def table(self):
        return compare_platform_energy()

    def test_gpu_more_efficient_than_cpu(self, table):
        rows = table.row_map()
        assert rows["2080S"][4] < rows["6242"][4]  # J per Mupdate

    def test_collaboration_costs_more_energy_than_single_gpu(self, table):
        """Finishing sooner does not make 4 chips cheaper than 1: the
        energy bill quantifies Figure 3's hidden trade-off."""
        rows = table.row_map()
        assert rows["6242-2080S"][3] > rows["2080S"][3]

    def test_collaboration_still_faster(self, table):
        rows = table.row_map()
        assert rows["6242-2080S"][1] < rows["2080S"][1]
