"""Unit tests for physical-channel contention (the Figure 2 caveat)."""

import pytest

from repro.core.config import HCCConfig, PartitionStrategy
from repro.core.cost_model import TimeCostModel
from repro.data.datasets import MOVIELENS_20M, NETFLIX
from repro.experiments.whatif import gpu_pool, sweep_channel_contention
from repro.framework import HCCMF
from repro.hardware.processor import Processor
from repro.hardware.specs import PCIE3_X16, RTX_2080, RTX_2080S, XEON_6242
from repro.hardware.topology import Platform, paper_workstation


def _two_gpus(shared: bool) -> Platform:
    plat = Platform(server=Processor(XEON_6242, instance="s"))
    ch = "slot" if shared else None
    plat.add_worker(Processor(RTX_2080S, instance="a"), PCIE3_X16, channel=ch)
    plat.add_worker(Processor(RTX_2080, instance="b"), PCIE3_X16, channel=ch)
    return plat


class TestChannelAccounting:
    def test_exclusive_by_default(self):
        plat = paper_workstation(16)
        for w in plat.workers:
            assert plat.channel_sharing(w) == 1
            assert plat.channel_of(w) is None

    def test_shared_counts(self):
        plat = _two_gpus(shared=True)
        for w in plat.workers:
            assert plat.channel_sharing(w) == 2
            assert plat.channel_of(w) == "slot"

    def test_mixed_channels(self):
        plat = Platform(server=Processor(XEON_6242, instance="s"))
        plat.add_worker(Processor(RTX_2080S, instance="a"), PCIE3_X16, channel="x")
        plat.add_worker(Processor(RTX_2080, instance="b"), PCIE3_X16)
        assert plat.channel_sharing("2080S#a") == 1  # alone on "x"
        assert plat.channel_sharing("2080#b") == 1

    def test_unknown_worker(self):
        plat = paper_workstation(16)
        with pytest.raises(KeyError):
            plat.channel_sharing("ghost")


class TestContentionCost:
    def test_shared_link_doubles_transfer_time(self):
        excl = TimeCostModel(_two_gpus(False), NETFLIX, 128)
        shared = TimeCostModel(_two_gpus(True), NETFLIX, 128)
        w_e = excl.platform.workers[0]
        w_s = shared.platform.workers[0]
        # latency aside, double the effective bytes
        assert shared.pull_time(w_s) > 1.9 * excl.pull_time(w_e)

    def test_contention_hurts_comm_bound_data_most(self):
        def epoch(shared, spec):
            m = TimeCostModel(_two_gpus(shared), spec, 128)
            plan = m.derive_partition(PartitionStrategy.DP1)
            return m.epoch_cost(plan.fractions).total

        ml_penalty = epoch(True, MOVIELENS_20M) / epoch(False, MOVIELENS_20M)
        netflix_penalty = epoch(True, NETFLIX) / epoch(False, NETFLIX)
        assert ml_penalty > netflix_penalty
        assert ml_penalty > 1.2

    def test_streams_filter_preserves_channels(self):
        from repro.core.config import CommConfig

        plat = paper_workstation(16)
        hcc = HCCMF(plat, NETFLIX, HCCConfig(k=128, comm=CommConfig(streams=4)))
        for w in hcc.platform.workers:
            assert hcc.platform.channel_of(w) == plat.channel_of(w)


class TestContentionSweep:
    def test_shared_link_breaks_scaling(self):
        rows = {r.label: r for r in sweep_channel_contention(MOVIELENS_20M, max_gpus=3)}
        excl3 = rows["3x 2080S, exclusive slots"].total_time
        shared3 = rows["3x 2080S, shared link"].total_time
        shared1 = rows["1x 2080S, shared link"].total_time
        assert shared3 > excl3
        # with the shared link, 3 GPUs are barely (or not) better than 1
        assert shared3 > 0.9 * shared1

    def test_single_gpu_unaffected(self):
        rows = {r.label: r for r in sweep_channel_contention(MOVIELENS_20M, max_gpus=2)}
        assert rows["1x 2080S, shared link"].total_time == pytest.approx(
            rows["1x 2080S, exclusive slots"].total_time
        )

    def test_gpu_pool_flag(self):
        plat = gpu_pool("2080S", 3, shared_channel=True)
        assert all(plat.channel_sharing(w) == 3 for w in plat.workers)
