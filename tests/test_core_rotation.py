"""Cross-layer tests for the Q_ROTATE future-work mode."""

import pytest

from repro.core.comm import CommPlan
from repro.core.config import CommConfig, HCCConfig, TransmitMode
from repro.core.cost_model import Regime, TimeCostModel
from repro.data.datasets import MOVIELENS_20M, NETFLIX
from repro.framework import HCCMF
from repro.hardware.topology import paper_workstation


class TestCommPlan:
    def test_no_sync_values(self):
        plan = CommPlan.for_dataset(
            MOVIELENS_20M, 128, CommConfig(transmit=TransmitMode.Q_ROTATE)
        )
        assert plan.sync_values == 0

    def test_gross_bytes_match_q_only(self):
        rotate = CommPlan.for_dataset(
            MOVIELENS_20M, 128, CommConfig(transmit=TransmitMode.Q_ROTATE)
        )
        q_only = CommPlan.for_dataset(
            MOVIELENS_20M, 128, CommConfig(transmit=TransmitMode.Q_ONLY)
        )
        assert rotate.epoch_pull == q_only.epoch_pull

    def test_final_gather_includes_q(self):
        rotate = CommPlan.for_dataset(
            MOVIELENS_20M, 128, CommConfig(transmit=TransmitMode.Q_ROTATE)
        )
        q_only = CommPlan.for_dataset(
            MOVIELENS_20M, 128, CommConfig(transmit=TransmitMode.Q_ONLY)
        )
        assert rotate.final_push_extra > q_only.final_push_extra


class TestCostModel:
    def test_rotation_is_compute_bound(self):
        m = TimeCostModel(
            paper_workstation(16), MOVIELENS_20M, 128,
            CommConfig(transmit=TransmitMode.Q_ROTATE),
        )
        assert m.sync_time() == 0.0
        from repro.core.config import PartitionStrategy

        plan = m.derive_partition(PartitionStrategy.AUTO)
        cost = m.epoch_cost(plan.fractions)
        assert cost.regime is Regime.COMPUTE_BOUND
        assert cost.exposed_sync == 0.0

    def test_rotation_chunks_transfers(self):
        m = TimeCostModel(
            paper_workstation(16), MOVIELENS_20M, 128,
            CommConfig(transmit=TransmitMode.Q_ROTATE),
        )
        from repro.core.config import PartitionStrategy
        from repro.hardware.timeline import Phase

        plan = m.derive_partition(PartitionStrategy.DP1)
        cost = m.epoch_cost(plan.fractions)
        gpu = cost.workers[-1]
        pulls = [s for s in gpu.spans if s.phase is Phase.PULL]
        assert len(pulls) == m.platform.n_workers  # one hop per rotation step


class TestFrameworkRotation:
    def test_numeric_rotation_is_refused(self):
        """Q_ROTATE is priced, not trained: ratings= with it is an error."""
        data = NETFLIX.scaled(2_000).generate(seed=3)
        cfg = HCCConfig(k=8, comm=CommConfig(transmit=TransmitMode.Q_ROTATE))
        with pytest.raises(ValueError, match="timing plane"):
            HCCMF(paper_workstation(16), NETFLIX, cfg, ratings=data)

    def test_rotation_faster_on_movielens(self):
        times = {}
        for mode in (TransmitMode.Q_ONLY, TransmitMode.Q_ROTATE):
            cfg = HCCConfig(k=128, epochs=20, comm=CommConfig(transmit=mode))
            times[mode] = HCCMF(paper_workstation(16), MOVIELENS_20M, cfg).train().total_time
        assert times[TransmitMode.Q_ROTATE] < times[TransmitMode.Q_ONLY]
