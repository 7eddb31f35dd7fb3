"""Process-plane start-up (docs/engine.md, "Process-plane start-up").

Workers are spawned with specs only, before the server prepares any
data; shards reach them through shared memory; ``open()`` ends with a
bounded attach handshake.  These tests pin the three consequences: a
worker that dies while booting is reported from ``open()`` within the
barrier timeout and leaks nothing, what is pickled into a worker stays
small whatever ``nnz`` is, and none of it changed the numerics.
"""

import dataclasses
import multiprocessing as mp
import multiprocessing.reduction
import multiprocessing.resource_tracker
import multiprocessing.spawn
import os
import time
import zlib

import numpy as np
import pytest

from repro.core.partition import PartitionPlan
from repro.data.datasets import YAHOO_R1
from repro.data.grid import GridKind, partition_rows
from repro.data.ratings import RatingMatrix
from repro.data.synthetic import SyntheticConfig, generate_low_rank
from repro.engine.backends import ProcessBackend, SimBackend, WorkerSyncError
from repro.engine.channels import DoubleBufferChannel, Fp16Channel, QOnlyChannel
from repro.engine.pipeline import EpochEngine
from repro.experiments.platforms import workers_platform
from repro.parallel.shm import SharedArray

PLAN = PartitionPlan("dp0", (0.5, 0.5))


def random_ratings(nnz: int, m: int = 5000, n: int = 400) -> RatingMatrix:
    rng = np.random.default_rng(0)
    return RatingMatrix(
        m, n, rng.integers(0, m, nnz), rng.integers(0, n, nnz),
        rng.uniform(1.0, 5.0, nnz),
    )


def shm_segments() -> set[str]:
    # barrier semaphores (sem.*) live as long as the backend object
    return {f for f in os.listdir("/dev/shm") if not f.startswith("sem.")}


def open_backend(backend, channel=None, epochs: int = 1) -> None:
    backend.open(PLAN, channel or QOnlyChannel(), None, epochs)


def factor_crcs(model) -> tuple[str, str]:
    """CRC32 of P and of Q: what training left, without the metric."""
    return tuple(f"{zlib.crc32(a.tobytes()):08x}" for a in (model.P, model.Q))


class TestBootstrapDeath:
    """A child that never gets as far as its handshake stamp."""

    def expect_bounded_failure(self, backend, timeout_s):
        before = shm_segments()
        t0 = time.perf_counter()
        with pytest.raises(WorkerSyncError) as ei:
            open_backend(backend)
        assert time.perf_counter() - t0 < timeout_s
        err = ei.value
        assert err.point == "bootstrap"
        assert err.missing_ranks == (0, 1)
        assert "worker-0" in str(err) and "worker-1" in str(err)
        assert "start-up" in str(err)
        assert all(not proc.is_alive() for proc in backend._procs)
        assert shm_segments() == before

    def test_interpreter_that_exits_1(self, tmp_path):
        """Both children die before Python even starts; at this nnz the
        old pickled-shard start-up blocked forever in proc.start()."""
        die = tmp_path / "die.sh"
        die.write_text("#!/bin/sh\nexit 1\n")
        die.chmod(0o755)
        backend = ProcessBackend(
            random_ratings(50_000), k=8, n_workers=2, barrier_timeout_s=20.0
        )
        # the tracker is launched with the same executable: start it first
        mp.resource_tracker.ensure_running()
        python = mp.spawn.get_executable()
        mp.spawn.set_executable(str(die))
        try:
            self.expect_bounded_failure(backend, 20.0)
        finally:
            mp.spawn.set_executable(python)
        assert [proc.exitcode for proc in backend._procs] == [1, 1]

    def test_first_attach_fails_on_stale_spec(self, monkeypatch):
        """The workers boot, then fail attaching P: exit code 1 before
        any stamp, named from open()."""
        create = SharedArray.create.__func__
        created = []

        def stale_first(cls, *args, **kwargs):
            arr = create(cls, *args, **kwargs)
            if not created:
                arr.spec = dataclasses.replace(arr.spec, name=arr.spec.name + "-gone")
            created.append(arr)
            return arr

        monkeypatch.setattr(SharedArray, "create", classmethod(stale_first))
        backend = ProcessBackend(
            random_ratings(50_000), k=8, n_workers=2, barrier_timeout_s=30.0
        )
        self.expect_bounded_failure(backend, 30.0)


class TestSpecsOnly:
    def test_pickled_process_is_small_at_a_million_ratings(self, monkeypatch):
        """What crosses the spawn pipe must fit its 64 KB buffer for any
        nnz, or proc.start() blocks until the child has booted."""
        sizes = []
        dump = mp.reduction.dump

        def measuring(obj, file, protocol=None):
            before = file.tell()
            dump(obj, file, protocol)
            if isinstance(obj, mp.process.BaseProcess):
                sizes.append(file.tell() - before)

        monkeypatch.setattr(mp.reduction, "dump", measuring)
        backend = ProcessBackend(
            random_ratings(10**6, m=40_000, n=2_000), k=8, n_workers=2,
            barrier_timeout_s=60.0,
        )
        open_backend(backend)
        backend.close()
        assert len(sizes) == 2
        assert max(sizes) < 16 * 1024


class TestNumericsPinned:
    """Training is pinned twice.  ``FACTORS`` (CRC32 of the final P and
    Q) was recorded at the parent of the change that stored the ratings
    once and passed unchanged on it: every update kept its bits.
    ``HISTORY`` was re-pinned by that change, once — RMSE is now summed
    a block at a time over the row-sorted store, which moved entries by
    at most one ulp (EXPERIMENTS.md, "Ratings stored once")."""

    HISTORY = {
        "q-only": [
            "0x1.458e11b85ab54p+0", "0x1.18f5b88224c2ap+0",
            "0x1.f8b6c00c54cc8p-1", "0x1.d29a8121b53e1p-1",
        ],
        "fp16": [
            "0x1.458ec940b4cb1p+0", "0x1.18f46c9b85c00p+0",
            "0x1.f8b5e4bc79154p-1", "0x1.d299a41ea4e6fp-1",
        ],
    }
    FACTORS = {
        "q-only": ("5f924910", "3aa0aaa2"),
        "fp16": ("772384da", "0c0488fa"),
    }

    @pytest.fixture(scope="class")
    def data(self):
        return generate_low_rank(
            SyntheticConfig(m=300, n=120, nnz=6000, rank=4), seed=7
        )

    def backend(self, data):
        return ProcessBackend(
            data, k=8, n_workers=2, lr=0.01, reg=0.01, batch_size=512, seed=3,
            barrier_timeout_s=60.0,
        )

    @pytest.mark.parametrize(
        "name, channel",
        [("q-only", QOnlyChannel()), ("fp16", Fp16Channel(QOnlyChannel()))],
    )
    def test_rmse_history_bit_identical(self, data, name, channel):
        backend = self.backend(data)
        result = EpochEngine(
            backend, channel=channel, partitions=PartitionPlan("fixed", (0.6, 0.4))
        ).run(4)
        assert factor_crcs(backend.model) == self.FACTORS[name]
        assert [float(r).hex() for r in result.rmse_history] == self.HISTORY[name]

    @pytest.fixture(scope="class")
    def with_ties(self, data):
        """Every tenth rating is rated twice more with other values, so
        the order of (row, col) ties — the shuffled one — is pinned."""
        again = np.arange(0, data.nnz, 10)
        return RatingMatrix(
            data.m, data.n,
            np.concatenate([data.rows, data.rows[again], data.rows[again]]),
            np.concatenate([data.cols, data.cols[again], data.cols[again]]),
            np.concatenate([data.vals, data.vals[again] + 1, data.vals[again] + 2]),
        )

    @staticmethod
    def assert_sorted_extracts(shards, shuffled):
        """``shards`` — one (rows, cols, vals) per worker — are the bytes
        of ``partition_rows`` -> ``extract`` -> ``sort_by_row`` over
        ``shuffled``, which the caller built from its own data: nothing
        is read back from the backend under test."""
        wanted = partition_rows(shuffled, PLAN.fractions, GridKind.ROW)
        assert len(shards) == len(wanted)
        ties = 0
        for (rows, cols, vals), assignment in zip(shards, wanted):
            want = assignment.extract(shuffled).sort_by_row()
            np.testing.assert_array_equal(rows, want.rows)
            np.testing.assert_array_equal(cols, want.cols)
            np.testing.assert_array_equal(vals, want.vals)
            assert (rows.dtype, cols.dtype, vals.dtype) == (
                want.rows.dtype, want.cols.dtype, want.vals.dtype)
            same_cell = (rows[1:] == rows[:-1]) & (cols[1:] == cols[:-1])
            ties += int((same_cell & (vals[1:] != vals[:-1])).sum())
        assert ties >= 1200         # the fixture's duplicates were compared

    def test_shared_shards_equal_sorted_extracts(self, with_ties):
        backend = self.backend(with_ties)
        open_backend(backend)
        try:
            offsets = backend._offsets.array
            assert offsets[0] == 0 and offsets[-1] == with_ties.nnz
            self.assert_sorted_extracts(
                [
                    tuple(seg.array[lo:hi] for seg in backend._shard_segs)
                    for lo, hi in zip(offsets, offsets[1:])
                ],
                with_ties.shuffle(backend.seed),
            )
        finally:
            backend.close()

    def test_sim_runtime_views_equal_sorted_extracts(self, with_ties):
        shuffled = with_ties.shuffle(3)
        backend = SimBackend(workers_platform(2), ratings=shuffled, k=8)
        open_backend(backend)
        self.assert_sorted_extracts(
            [(rt.data.rows, rt.data.cols, rt.data.vals) for rt in backend.runtimes],
            shuffled,
        )
        backend.close()


#: one overwritten element of what a worker attaches -> the ranks whose
#: check must fire
DAMAGED_RANKS = {
    "offset past the end": (0, 1),      # rank 0's hi and rank 1's lo
    "last offset past the end": (1,),
    "row out of range": (1,),
    "rows unsorted": (0,),
    "column out of range": (0,),
}


def damage(backend: ProcessBackend, how: str) -> None:
    ratings, offsets = backend.ratings, backend._offsets.array
    rows, cols, _ = (seg.array for seg in backend._shard_segs)
    array, index, value = {
        "offset past the end": (offsets, 1, ratings.nnz + 5),
        "last offset past the end": (offsets, 2, ratings.nnz + 5),
        "row out of range": (rows, ratings.nnz - 1, ratings.m),
        "rows unsorted": (rows, 0, ratings.m - 1),
        "column out of range": (cols, 0, ratings.n),
    }[how]
    array[index] = value


class TestWorkerChecksItsShard:
    """Offsets and indices reach a worker through shared memory; it
    checks its slice once, after the first start barrier, and a damaged
    one ends the attempt as a ``WorkerSyncError`` naming the rank — not
    as an out-of-bounds scatter into the shared P.  (Damaged from the
    server side: a monkeypatch does not reach a spawned worker.)"""

    @pytest.mark.parametrize("how", sorted(DAMAGED_RANKS))
    def test_damaged_shard_is_a_sync_error_naming_the_rank(self, how):
        ranks = DAMAGED_RANKS[how]
        before = shm_segments()
        backend = ProcessBackend(
            random_ratings(20_000), k=8, n_workers=2, barrier_timeout_s=30.0
        )
        open_backend(backend)
        try:
            damage(backend, how)
            backend.pull(0)
            backend.compute(0)
            with pytest.raises(WorkerSyncError) as ei:
                backend.push(0)
            assert ei.value.point == "end"
            assert ei.value.missing_ranks == ranks
            assert all(f"worker-{rank}" in str(ei.value) for rank in ranks)
            report = backend.health_report(ei.value)
        finally:
            backend.close()
        assert report.dead_ranks == ranks
        assert shm_segments() == before


class TestColumnSetNumericsPinned:
    """``FACTORS`` recorded where every wire was whole and unchanged
    since; ``HISTORY`` re-pinned once with the ratings stored once (see
    ``TestNumericsPinned``).

    The R1-shaped toy is 11,465 x 6,481 with 4,000 ratings: each of two
    workers rates 21 % of the columns, each of three 15 %, so every
    worker here decodes, trains, pushes and is merged over a column set.
    A monkeypatch does not reach a spawned worker, hence recorded values.
    """

    HISTORY = {
        (2, "q-only"): [
            "0x1.5e6fef3740765p+4", "0x1.20033973f6fbbp+4",
            "0x1.ea7a738de1bf5p+3", "0x1.aecd824632d3cp+3",
        ],
        (2, "fp16"): [
            "0x1.5e703b6de21aap+4", "0x1.2003c3111ea61p+4",
            "0x1.ea7b3b36568d3p+3", "0x1.aecdd1c26dde4p+3",
        ],
        (3, "q-only"): [
            "0x1.5f0eb05f89572p+4", "0x1.21a62007bcb2cp+4",
            "0x1.eeb1be7d28fc3p+3", "0x1.b322d475af6ecp+3",
        ],
        (3, "fp16"): [
            "0x1.5f0ef0425e7e7p+4", "0x1.21a630d73d3ccp+4",
            "0x1.eeb15924a9105p+3", "0x1.b322b53de66b4p+3",
        ],
    }
    FACTORS = {
        (2, "q-only"): ("d6d170e6", "c4f87ed4"),
        (2, "fp16"): ("793e94d6", "27c11fcc"),
        (3, "q-only"): ("fd1873bd", "e838083b"),
        (3, "fp16"): ("444385f3", "20fb0e9f"),
    }
    # rotating pull wires change which wire a column is gathered from,
    # not its bits (recorded as well: equal at the parent)
    HISTORY[2, "double-buffer"] = HISTORY[2, "q-only"]
    FACTORS[2, "double-buffer"] = FACTORS[2, "q-only"]
    CHANNELS = {
        "q-only": QOnlyChannel(),
        "fp16": Fp16Channel(QOnlyChannel()),
        "double-buffer": DoubleBufferChannel(QOnlyChannel()),
    }

    @pytest.fixture(scope="class")
    def data(self):
        return YAHOO_R1.scaled(4000).generate(seed=4)

    @pytest.mark.parametrize("n_workers, name", sorted(HISTORY))
    def test_rmse_history_bit_identical(self, data, n_workers, name):
        backend = ProcessBackend(
            data, k=8, n_workers=n_workers, lr=0.002, reg=0.05, batch_size=512,
            seed=3, barrier_timeout_s=60.0,
        )
        result = EpochEngine(backend, channel=self.CHANNELS[name]).run(4)
        assert factor_crcs(backend.model) == self.FACTORS[n_workers, name]
        assert [float(r).hex() for r in result.rmse_history] == self.HISTORY[n_workers, name]
        # every worker's wire was a column set: a fifth of Q or less crossed
        pushes = [e.detail for e in result.stage_trace if e.stage == "push"]
        itemsize = 2 if name == "fp16" else 4
        for per_worker in pushes[0]["per_worker_bytes"]:
            assert 0 < per_worker < 0.25 * 8 * data.n * itemsize
