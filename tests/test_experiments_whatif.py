"""Unit tests for the what-if platform explorer."""

import pytest

from repro.data.datasets import MOVIELENS_20M, NETFLIX
from repro.experiments.whatif import (
    BUS_GENERATIONS,
    NVLINK2,
    PCIE4_X16,
    gpu_pool,
    hypothetical_gpu,
    sweep_gpu_count,
    sweep_interconnect,
)
from repro.hardware.processor import Processor
from repro.hardware.specs import PCIE3_X16


class TestGpuPool:
    def test_composition(self):
        plat = gpu_pool("2080", 3)
        assert plat.n_workers == 3
        assert all(w.is_gpu for w in plat.workers)
        assert plat.server.is_cpu

    def test_unique_names(self):
        plat = gpu_pool("2080S", 4)
        assert len({w.name for w in plat.workers}) == 4

    def test_validation(self):
        with pytest.raises(ValueError):
            gpu_pool("2080", 0)
        with pytest.raises(KeyError):
            gpu_pool("3090", 1)
        with pytest.raises(ValueError):
            gpu_pool("6242", 1)


class TestSweepGpuCount:
    @pytest.fixture(scope="class")
    def movielens_rows(self):
        return sweep_gpu_count(MOVIELENS_20M, max_gpus=6)

    def test_saturation_on_comm_bound_data(self, movielens_rows):
        """The generalized Table 6: MovieLens gains flatten (and even
        reverse — more workers means more sync) well before 6 GPUs."""
        times = [r.total_time for r in movielens_rows]
        first_gain = times[0] - times[1]
        late_gain = times[3] - times[5]
        assert late_gain < 0.2 * first_gain

    def test_scaling_reverses_on_comm_bound_data(self, movielens_rows):
        """Past the best GPU count, each added GPU costs more sync than
        it saves compute: the total time rises again."""
        times = [r.total_time for r in movielens_rows]
        assert min(times) == min(times[2:5])
        assert times[5] > min(times)

    def test_utilization_decays(self, movielens_rows):
        utils = [r.utilization for r in movielens_rows]
        assert all(b < a for a, b in zip(utils, utils[1:]))

    def test_netflix_scales_further(self):
        rows = sweep_gpu_count(NETFLIX, max_gpus=4)
        times = [r.total_time for r in rows]
        assert times[3] < 0.5 * times[0]

    def test_price_grows_linearly(self, movielens_rows):
        prices = [r.price for r in movielens_rows]
        assert prices[1] - prices[0] == pytest.approx(699.0)

    def test_power_per_dollar(self, movielens_rows):
        assert movielens_rows[0].power_per_dollar > movielens_rows[-1].power_per_dollar


class TestSweepInterconnect:
    def test_faster_bus_never_slower(self):
        rows = {r.label: r for r in sweep_interconnect(MOVIELENS_20M)}
        t3 = rows["2x 2080S over pcie3"].total_time
        t4 = rows["2x 2080S over pcie4"].total_time
        tn = rows["2x 2080S over nvlink"].total_time
        assert tn < t4 < t3

    def test_bus_catalog(self):
        assert PCIE4_X16.bandwidth_gbs == pytest.approx(2 * PCIE3_X16.bandwidth_gbs)
        assert NVLINK2.bandwidth_gbs > PCIE4_X16.bandwidth_gbs
        assert set(BUS_GENERATIONS) == {"pcie3", "pcie4", "nvlink"}


class TestHypotheticalGpu:
    def test_scales_rate_and_bandwidth(self):
        h = hypothetical_gpu("fast", base="2080S", rate_multiplier=2.0)
        from repro.hardware.specs import RTX_2080S

        assert h.base_rate_k128 == pytest.approx(2 * RTX_2080S.base_rate_k128)
        assert h.dram_bandwidth() == pytest.approx(2 * RTX_2080S.dram_bandwidth())

    def test_memory_and_price_overrides(self):
        h = hypothetical_gpu("big", memory_gb=24.0, price_usd=1500.0)
        assert h.memory_gb == 24.0
        assert h.price_usd == 1500.0

    def test_usable_in_processor(self):
        h = hypothetical_gpu("fast", rate_multiplier=1.5)
        p = Processor(h)
        assert p.update_rate(128, NETFLIX) > 0

    def test_larger_memory_avoids_r2_collapse(self):
        """A 24 GB hypothetical avoids the R2 device-memory penalty the
        8 GB cards suffer (the Table 4 mechanism, testable via what-if)."""
        from repro.data.datasets import YAHOO_R2

        small_mem = hypothetical_gpu("small", base="2080S", rate_multiplier=1.0)
        big_mem = hypothetical_gpu("big", base="2080S", rate_multiplier=1.0,
                                   memory_gb=24.0)
        # same silicon, different memory: compare via the fallback path
        # (hypothetical names are not in the Table 4 calibration)
        r_small = Processor(small_mem).update_rate(128, YAHOO_R2)
        r_big = Processor(big_mem).update_rate(128, YAHOO_R2)
        assert r_big > 1.5 * r_small

    def test_validation(self):
        with pytest.raises(ValueError):
            hypothetical_gpu("x", rate_multiplier=0.0)
