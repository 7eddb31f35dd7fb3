"""One epoch over one wire: what the two planes must do the same way.

Both backends drive one ``ParameterServer`` and one ``worker_epoch``
(docs/engine.md), so a payload is validated, dropped or corrupted by
the same statements on either plane.  The sim plane's numerics are
pinned to values recorded at the parent commit, where it still ran its
own buffers, worker loop and fault simulator.
"""

import warnings

import numpy as np
import pytest

from repro.core.config import CommConfig, HCCConfig, PartitionStrategy, TransmitMode
from repro.core.cost_model import TimeCostModel
from repro.core.partition import PartitionPlan
from repro.data.datasets import NETFLIX, YAHOO_R1
from repro.data.grid import GridKind, partition_rows
from repro.data.synthetic import SyntheticConfig, generate_low_rank
from repro.engine.backends import ProcessBackend, SimBackend, WirePayloadError
from repro.engine.channels import DoubleBufferChannel, Fp16Channel, QOnlyChannel
from repro.engine.pipeline import STAGES, EpochEngine
from repro.experiments.platforms import workers_platform
from repro.framework import HCCMF
from repro.hardware.topology import paper_workstation
from repro.resilience import FaultPlan
from tests.test_engine_startup import factor_crcs


def bits(a: np.ndarray) -> np.ndarray:
    return a.view(np.uint32)


class TestSimNumericsPinned:
    """``FACTORS`` (CRC32 of the final P and Q) was recorded at the
    parent of the change that stored the ratings once and passed
    unchanged on it; ``HISTORY`` was re-pinned by that change, once: the
    RMSE is summed a block at a time over the row-sorted store, which
    moved one entry by one ulp (EXPERIMENTS.md, "Ratings stored once")."""

    HISTORY = {
        "q-only": [
            "0x1.48665c464fca2p+0", "0x1.2286b5794af9ap+0",
            "0x1.09e07bce645acp+0", "0x1.f5505ad9b6910p-1",
            "0x1.de9a255995056p-1",
        ],
        "fp16": [
            "0x1.4865f9dc82ca0p+0", "0x1.2285d244272fbp+0",
            "0x1.09e03a6738d0dp+0", "0x1.f550d84f99591p-1",
            "0x1.de9b441a463f6p-1",
        ],
    }
    FACTORS = {
        "q-only": ("946c1110", "b8aa7fcb"),
        "fp16": ("ef781b77", "6997a1f5"),
    }
    # rotating pull wires change where the bits lie, not the bits
    HISTORY["double-buffer"] = HISTORY["q-only"]
    FACTORS["double-buffer"] = FACTORS["q-only"]
    CHANNELS = {
        "q-only": QOnlyChannel(),
        "fp16": Fp16Channel(QOnlyChannel()),
        "double-buffer": DoubleBufferChannel(QOnlyChannel()),
    }

    @pytest.fixture(scope="class")
    def setup(self):
        """A DP2 plan over the paper workstation's four unequal workers."""
        data = generate_low_rank(
            SyntheticConfig(m=300, n=120, nnz=6000, rank=4), seed=7
        ).shuffle(3)
        platform = paper_workstation()
        cost_model = TimeCostModel(platform, NETFLIX, k=8)
        plan = cost_model.derive_partition(PartitionStrategy.DP2)
        assert len(set(plan.fractions)) == 4

        def engine(channel, **kw):
            backend = SimBackend(
                platform, ratings=data, k=8, lr=0.01, reg=0.01, batch_size=512,
                seed=3, cost_model=cost_model,
            )
            return EpochEngine(backend, channel=channel, partitions=plan, **kw)

        return engine

    @pytest.mark.parametrize("name", sorted(CHANNELS))
    def test_rmse_history_bit_identical(self, setup, name):
        result = setup(self.CHANNELS[name]).run(5)
        assert factor_crcs(result.model) == self.FACTORS[name]
        assert [float(r).hex() for r in result.rmse_history] == self.HISTORY[name]
        assert result.sim_seconds.hex() == "0x1.b5b1b1c2ebf36p-7"

    def test_checkpoint_resume_continues_the_pinned_history(self, setup, tmp_path):
        path = tmp_path / "ckpt"
        setup(QOnlyChannel(), checkpoint_every=2, checkpoint_path=path).run(2)
        result = setup(QOnlyChannel(), resume_from=path).run(5)
        assert [float(r).hex() for r in result.rmse_history] == self.HISTORY["q-only"]


def open_sim(n_workers, data, channel=None, **kw):
    backend = SimBackend(
        workers_platform(n_workers), ratings=data, k=8, lr=0.01, seed=0, **kw
    )
    even = PartitionPlan("even", (1.0 / n_workers,) * n_workers)
    backend.open(even, channel or QOnlyChannel(), None, 3)
    return backend


def run_stages(backend, epoch, stages=STAGES):
    for stage in stages:
        getattr(backend, stage)(epoch)


@pytest.fixture(scope="module")
def data():
    return NETFLIX.scaled(4000).generate(seed=4)


class TestBadNumbers:
    """A push that is not finite is refused where it arrives, on both planes."""

    @pytest.mark.parametrize("plane", ["sim", "process"])
    def test_diverging_run_raises_instead_of_returning_nan(self, data, plane):
        if plane == "sim":
            backend = SimBackend(
                workers_platform(2), ratings=data.shuffle(0), k=8, lr=50.0, seed=0
            )
        else:
            backend = ProcessBackend(
                data, k=8, n_workers=2, lr=50.0, seed=0, barrier_timeout_s=60.0
            )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)   # the overflow itself
            with pytest.raises(WirePayloadError, match="not merged"):
                EpochEngine(backend, channel=QOnlyChannel()).run(6)
        assert np.isfinite(backend.model.Q).all()

    def test_sim_refuses_a_q_rotate_channel_like_the_process_plane(self, data):
        """``HCCMF`` with ratings trains on the sim plane; it refuses
        Q_ROTATE with the same message ``channel_for`` gives the
        process plane."""
        config = HCCConfig(k=8, comm=CommConfig(transmit=TransmitMode.Q_ROTATE))
        with pytest.raises(ValueError, match="timing plane only"):
            HCCMF(workers_platform(2), NETFLIX.scaled(data.nnz), config, ratings=data)

    def test_sim_scans_every_push_once_per_epoch(self, data):
        class Counting(QOnlyChannel):
            calls = 0

            def payload_ok(self, received):
                self.calls += 1
                return super().payload_ok(received)

        channel = Counting()
        backend = open_sim(3, data, channel)
        for epoch in range(2):
            run_stages(backend, epoch)
            assert channel.calls == 3 * (epoch + 1)

    def test_corrupt_push_is_named_by_the_wire_that_holds_it(self, data):
        backend = open_sim(
            3, data, fault_plan=FaultPlan().corrupt_payload(1, epoch=1)
        )
        run_stages(backend, 0)
        p_before = backend.model.P.copy()
        q_before = backend.model.Q.copy()
        run_stages(backend, 1, ("pull", "compute", "push"))
        nan_wires = [bool(np.isnan(w).all()) for w in backend.server.push_wires]
        assert nan_wires == [False, True, False]
        with pytest.raises(WirePayloadError) as ei:
            backend.sync(1)
        assert ei.value.rank == 1
        # worker 0's payload was fine and must not have been merged; P,
        # trained in place, is rolled back to the last synced epoch
        np.testing.assert_array_equal(bits(backend.model.Q), bits(q_before))
        np.testing.assert_array_equal(bits(backend.model.P), bits(p_before))


class TestDropOnTheWire:
    def test_dropped_push_carries_the_pull_wire_and_merges_nothing(self, data):
        dropped = open_sim(2, data, fault_plan=FaultPlan().drop_payload(1, epoch=1))
        clean = open_sim(2, data)
        for backend in (dropped, clean):
            run_stages(backend, 0)
            run_stages(backend, 1, ("pull", "compute", "push"))
        server = dropped.server
        np.testing.assert_array_equal(bits(server.push_wires[1]), bits(server.pull_wire))
        assert not np.array_equal(server.push_wires[0], server.pull_wire)
        dropped.sync(1)
        clean.server.sync(0)            # the same epoch without worker 1's delta
        np.testing.assert_array_equal(dropped.model.Q, clean.model.Q)


# ---------------------------------------------------------------------------
# column sets: a wire is the columns its worker's shard rates
# ---------------------------------------------------------------------------
@pytest.fixture(scope="module")
def sparse():
    """R1-shaped, 11,465 x 6,481: each of 2-3 workers rates 15-21 % of the
    columns, so every wire is a column set.  The sim plane is handed it
    shuffled as the process plane shuffles it (seed 0), so both planes
    cut the same shards."""
    return YAHOO_R1.scaled(4000).generate(seed=4)


SPARSE_KW = dict(k=8, lr=0.002, reg=0.05, batch_size=512, seed=0)


def open_sparse(plane, n_workers, data, **kw):
    """``data`` is the unshuffled toy; both planes end up on one partition."""
    if plane == "process":
        backend = ProcessBackend(
            data, n_workers=n_workers, barrier_timeout_s=60.0, **SPARSE_KW, **kw
        )
    else:
        backend = SimBackend(
            workers_platform(n_workers), ratings=data.shuffle(0), **SPARSE_KW, **kw
        )
    even = PartitionPlan("even", (1.0 / n_workers,) * n_workers)
    backend.open(even, QOnlyChannel(), None, 3)
    return backend


class TestColumnSetNumerics:
    CHANNELS = TestSimNumericsPinned.CHANNELS

    def sim(self, data, channel, n_workers):
        backend = SimBackend(
            workers_platform(n_workers), ratings=data.shuffle(0), **SPARSE_KW
        )
        return EpochEngine(backend, channel=channel).run(4)

    @pytest.mark.parametrize("n_workers", [2, 3])
    @pytest.mark.parametrize("name", sorted(CHANNELS))
    def test_sim_history_equals_the_whole_wire_run(
        self, sparse, monkeypatch, name, n_workers
    ):
        """The same run with the rule patched to "all" — what every run
        was before — has the same ``rmse_history`` to the bit, on FP32,
        binary16 and Strategy-3-labelled wires, and moved 5-7x the values."""
        selected = self.sim(sparse, self.CHANNELS[name], n_workers)
        monkeypatch.setattr("repro.engine.worker_proc.column_set", lambda cols, n: None)
        whole = self.sim(sparse, self.CHANNELS[name], n_workers)
        assert [float(r).hex() for r in selected.rmse_history] == [
            float(r).hex() for r in whole.rmse_history
        ]
        np.testing.assert_array_equal(bits(selected.model.Q), bits(whole.model.Q))
        np.testing.assert_array_equal(bits(selected.model.P), bits(whole.model.P))
        assert whole.wire_bytes("push") > 4 * selected.wire_bytes("push") > 0

    @pytest.mark.parametrize("channel", [QOnlyChannel(), Fp16Channel(QOnlyChannel())])
    def test_planes_account_the_same_wire(self, sparse, channel):
        """Same shards, so the same column sets: every stage detail that
        says what crossed is equal across planes, and is k * t_i values."""
        sim = self.sim(sparse, channel, 2)
        backend = ProcessBackend(
            sparse, n_workers=2, barrier_timeout_s=60.0, **SPARSE_KW
        )
        proc = EpochEngine(backend, channel=channel).run(4)
        assert sim.stage_sequence() == proc.stage_sequence()
        assert sim.epoch_updates() == proc.epoch_updates()
        assert [e.detail for e in sim.stage_trace] == [e.detail for e in proc.stage_trace]
        shuffled = sparse.shuffle(0)
        t = [
            len(np.unique(shuffled.cols[a.entries]))
            for a in partition_rows(shuffled, (0.5, 0.5), GridKind.ROW)
        ]
        push = next(e.detail for e in proc.stage_trace if e.stage == "push")
        sync = next(e.detail for e in proc.stage_trace if e.stage == "sync")
        assert push["per_worker_bytes"] == tuple(
            8 * ti * np.dtype(channel.wire_dtype).itemsize for ti in t
        )
        assert push["wire_bytes"] == sum(push["per_worker_bytes"])
        assert sync["merged_values"] == 8 * sum(t) < 8 * sparse.n


@pytest.mark.parametrize("plane", ["sim", "process"])
class TestFaultsOnAColumnSet:
    """Drop, corrupt and a diverged P, where every wire is a prefix."""

    def test_corrupt_fills_the_prefix_and_refuses_the_epoch(self, sparse, plane):
        backend = open_sparse(
            plane, 2, sparse, fault_plan=FaultPlan().corrupt_payload(1, epoch=1)
        )
        try:
            run_stages(backend, 0)
            p_before, q_before = backend.model.P.copy(), backend.model.Q.copy()
            run_stages(backend, 1, ("pull", "compute", "push"))
            server = backend.server
            assert server.columns[1] is not None
            assert np.isnan(server.pushed(1)).all()
            assert np.isfinite(server.pushed(0)).all()
            with pytest.raises(WirePayloadError) as ei:
                backend.sync(1)
            assert ei.value.rank == 1
            np.testing.assert_array_equal(bits(backend.model.Q), bits(q_before))
            np.testing.assert_array_equal(bits(backend.model.P), bits(p_before))
        finally:
            backend.close()

    def test_drop_carries_the_bases_columns_and_merges_exactly_zero(self, sparse, plane):
        backend = open_sparse(
            plane, 2, sparse, fault_plan=FaultPlan().drop_payload(1, epoch=1)
        )
        try:
            run_stages(backend, 0)
            run_stages(backend, 1, ("pull", "compute", "push"))
            server = backend.server
            cols0, cols1 = server.columns
            np.testing.assert_array_equal(
                bits(server.pushed(1)), bits(server.pull_wire[:, cols1])
            )
            assert not np.array_equal(server.pushed(0), server.pull_wire[:, cols0])
            q_before = backend.model.Q.copy()
            backend.sync(1)
            only_1 = np.setdiff1d(cols1, cols0)
            assert only_1.size
            np.testing.assert_array_equal(
                bits(backend.model.Q[:, only_1]), bits(q_before[:, only_1])
            )
            assert not np.array_equal(backend.model.Q[:, cols0], q_before[:, cols0])
        finally:
            backend.close()

    def test_non_finite_p_row_refuses_the_epoch_naming_its_owner(self, sparse, plane):
        """P never crosses a wire, so it is scanned where it was trained.
        (The drop is what makes the sim plane keep a P to roll back to:
        it snapshots only epochs with a scheduled fault.)"""
        backend = open_sparse(
            plane, 2, sparse, fault_plan=FaultPlan().drop_payload(0, epoch=1)
        )
        try:
            run_stages(backend, 0)
            p_before, q_before = backend.model.P.copy(), backend.model.Q.copy()
            run_stages(backend, 1, ("pull", "compute", "push"))
            lo, hi = backend._p_rows[1]
            backend._trained_p()[hi - 1, 3] = np.nan
            with pytest.raises(WirePayloadError, match="P rows.*not merged") as ei:
                backend.sync(1)
            assert ei.value.rank == 1
            np.testing.assert_array_equal(bits(backend.model.Q), bits(q_before))
            np.testing.assert_array_equal(bits(backend.model.P), bits(p_before))
        finally:
            backend.close()
