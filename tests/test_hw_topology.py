"""Unit tests for platform topology."""

import pytest

from repro.hardware.processor import Processor
from repro.hardware.specs import (
    PCIE3_X16,
    RTX_2080,
    RTX_2080S,
    UPI,
    XEON_6242,
)
from repro.hardware.topology import (
    Platform,
    custom_platform,
    paper_workstation,
    single_processor,
)


class TestPlatform:
    def test_add_worker_and_bus(self):
        plat = Platform(server=Processor(XEON_6242, instance="s"))
        w = plat.add_worker(Processor(RTX_2080, instance="g"), PCIE3_X16)
        assert plat.bus(w) is PCIE3_X16
        assert plat.bus(w.name) is PCIE3_X16
        assert plat.n_workers == 1

    def test_duplicate_name_rejected(self):
        plat = Platform(server=Processor(XEON_6242, instance="s"))
        plat.add_worker(Processor(RTX_2080, instance="g"), PCIE3_X16)
        with pytest.raises(ValueError, match="duplicate"):
            plat.add_worker(Processor(RTX_2080, instance="g"), PCIE3_X16)
        with pytest.raises(ValueError, match="duplicate"):      # the server's name
            plat.add_worker(Processor(XEON_6242, instance="s"), PCIE3_X16)
        assert plat.n_workers == 1

    def test_unknown_bus_lookup(self):
        plat = Platform(server=Processor(XEON_6242, instance="s"))
        with pytest.raises(KeyError):
            plat.bus("ghost")

    def test_worker_lookup(self):
        plat = Platform(server=Processor(XEON_6242, instance="s"))
        w = plat.add_worker(Processor(RTX_2080, instance="g"), PCIE3_X16)
        assert plat.worker(w.name) is w
        with pytest.raises(KeyError):
            plat.worker("nope")

    def test_counts(self):
        plat = Platform(server=Processor(XEON_6242, instance="s"))
        plat.add_worker(Processor(XEON_6242, threads=24, instance="c"), UPI)
        plat.add_worker(Processor(RTX_2080, instance="g"), PCIE3_X16)
        plat.add_worker(Processor(RTX_2080S, instance="g2"), PCIE3_X16)
        assert plat.counts() == (1, 2)


class TestPaperWorkstation:
    def test_default_composition(self):
        plat = paper_workstation()
        assert plat.n_workers == 4
        kinds = [w.kind.value for w in plat.workers]
        assert kinds.count("cpu") == 2
        assert kinds.count("gpu") == 2

    def test_special_worker_time_shared(self):
        plat = paper_workstation()
        special = [w for w in plat.workers if w.time_share < 1.0]
        assert len(special) == 1
        assert special[0].is_cpu

    def test_without_special_worker(self):
        plat = paper_workstation(include_special_worker=False)
        assert plat.n_workers == 3
        assert all(w.time_share == 1.0 for w in plat.workers)

    def test_cpu0_threads_configurable(self):
        plat = paper_workstation(cpu0_threads=10)
        assert plat.server.threads == 10

    def test_buses(self):
        plat = paper_workstation()
        gpu_buses = [plat.bus(w).name for w in plat.workers if w.is_gpu]
        assert gpu_buses == ["PCI-E 3.0 x16", "PCI-E 3.0 x16"]
        cpu1 = [w for w in plat.workers if w.is_cpu and w.time_share == 1.0][0]
        assert plat.bus(cpu1).name == "UPI"

    def test_price_counts_physical_chips_once(self):
        plat = paper_workstation()
        # 2x 6242 + 2080 + 2080S; the time-shared worker is not a new chip
        assert plat.total_price() == pytest.approx(2 * 2529.0 + 2 * 699.0)

    def test_describe_mentions_every_worker(self):
        plat = paper_workstation()
        text = plat.describe()
        for w in plat.workers:
            assert w.name in text


class TestBuilders:
    def test_single_processor(self):
        plat = single_processor(RTX_2080S)
        assert plat.n_workers == 1
        assert plat.workers[0].spec is RTX_2080S

    def test_single_cpu_uses_shared_memory(self):
        plat = single_processor(XEON_6242)
        assert plat.bus(plat.workers[0]).name == "shared-memory"

    def test_custom_platform(self):
        plat = custom_platform(
            [(RTX_2080, None, PCIE3_X16), (XEON_6242, 24, UPI)]
        )
        assert plat.n_workers == 2
        assert plat.workers[1].threads == 24
