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

import numpy as np
import pytest

from repro.core.partition import PartitionPlan
from repro.data.datasets import YAHOO_R1
from repro.data.grid import GridKind, partition_rows
from repro.data.ratings import RatingMatrix
from repro.data.synthetic import SyntheticConfig, generate_low_rank
from repro.engine.backends import ProcessBackend, WorkerSyncError
from repro.engine.channels import DoubleBufferChannel, Fp16Channel, QOnlyChannel
from repro.engine.pipeline import AdditiveDeltaSync, EpochEngine
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


def open_backend(backend: ProcessBackend, channel=None, epochs: int = 1) -> None:
    backend.open(PLAN, channel or QOnlyChannel(), AdditiveDeltaSync(), None, epochs)


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
    """Recorded at the parent commit (pickled shards, eager imports)."""

    HISTORY = {
        "q-only": [
            "0x1.458e11b85ab54p+0", "0x1.18f5b88224c2bp+0",
            "0x1.f8b6c00c54cc8p-1", "0x1.d29a8121b53e2p-1",
        ],
        "fp16": [
            "0x1.458ec940b4cb1p+0", "0x1.18f46c9b85c00p+0",
            "0x1.f8b5e4bc79154p-1", "0x1.d299a41ea4e6fp-1",
        ],
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
        result = EpochEngine(
            self.backend(data), channel=channel, partitions=(0.6, 0.4)
        ).run(4)
        assert [float(r).hex() for r in result.rmse_history] == self.HISTORY[name]

    def test_shared_shards_equal_sorted_extracts(self, data):
        backend = self.backend(data)
        open_backend(backend)
        try:
            offsets = backend._offsets.array
            assert offsets[0] == 0 and offsets[-1] == data.nnz
            shards = partition_rows(backend.data, PLAN.fractions, GridKind.ROW)
            for wid, assignment in enumerate(shards):
                want = assignment.extract(backend.data).sort_by_row()
                lo, hi = offsets[wid : wid + 2]
                rows, cols, vals = (seg.array[lo:hi] for seg in backend._shard_segs)
                np.testing.assert_array_equal(rows, want.rows)
                np.testing.assert_array_equal(cols, want.cols)
                np.testing.assert_array_equal(vals, want.vals)
                assert (rows.dtype, cols.dtype, vals.dtype) == (
                    want.rows.dtype, want.cols.dtype, want.vals.dtype)
        finally:
            backend.close()


class TestColumnSetNumericsPinned:
    """Recorded at the parent commit, where every wire was whole.

    The R1-shaped toy is 11,465 x 6,481 with 4,000 ratings: each of two
    workers rates 21 % of the columns, each of three 15 %, so every
    worker here decodes, trains, pushes and is merged over a column set.
    A monkeypatch does not reach a spawned worker, hence recorded values.
    """

    HISTORY = {
        (2, "q-only"): [
            "0x1.5e6fef3740765p+4", "0x1.20033973f6fbbp+4",
            "0x1.ea7a738de1bf4p+3", "0x1.aecd824632d3bp+3",
        ],
        (2, "fp16"): [
            "0x1.5e703b6de21aap+4", "0x1.2003c3111ea60p+4",
            "0x1.ea7b3b36568d3p+3", "0x1.aecdd1c26dde4p+3",
        ],
        (3, "q-only"): [
            "0x1.5f0eb05f89572p+4", "0x1.21a62007bcb2cp+4",
            "0x1.eeb1be7d28fc2p+3", "0x1.b322d475af6ebp+3",
        ],
        (3, "fp16"): [
            "0x1.5f0ef0425e7e7p+4", "0x1.21a630d73d3ccp+4",
            "0x1.eeb15924a9105p+3", "0x1.b322b53de66b3p+3",
        ],
    }
    # rotating pull wires change which wire a column is gathered from,
    # not its bits (recorded as well: equal at the parent)
    HISTORY[2, "double-buffer"] = HISTORY[2, "q-only"]
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
        assert [float(r).hex() for r in result.rmse_history] == self.HISTORY[n_workers, name]
        # every worker's wire was a column set: a fifth of Q or less crossed
        pushes = [e.detail for e in result.stage_trace if e.stage == "push"]
        itemsize = 2 if name == "fp16" else 4
        for per_worker in pushes[0]["per_worker_bytes"]:
            assert 0 < per_worker < 0.25 * 8 * data.n * itemsize
