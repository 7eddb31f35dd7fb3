"""Microbenchmarks of the numeric substrate's hot kernels.

These complement the paper-table benches: they measure the real NumPy
SGD throughput (this host's "computing power" in the paper's Eq. 8
sense), the communication buffers' copy discipline, and the FP16 codec.

The five ``*_epoch`` rows are the baseline table behind ROADMAP item 4
(ATOMIC / LAST_WRITE / FPSGD / DSGD / NOMAD updates/s): one pass over
one pinned synthetic matrix at one ``k``, batch size and worker count,
so their ``extra_info["updates_per_s"]`` figures compare with each
other.  ``python3 -m perf`` reports the ATOMIC kernel on each
workload's own shard as ``mf.sgd_updates_per_s``.
"""

import numpy as np

from repro.core.compression import compress_fp16, decompress_fp16
from repro.data.datasets import NETFLIX
from repro.engine.channels import Channel
from repro.mf.dsgd import DSGD
from repro.mf.fpsgd import FPSGD
from repro.mf.kernels import ConflictPolicy, sgd_epoch
from repro.mf.model import MFModel
from repro.mf.nomad import NOMAD

#: the five-kernel table's pinned workload
_NNZ, _K, _BATCH, _WORKERS = 20_000, 16, 4096, 2


def _data(nnz=_NNZ, seed=0):
    return NETFLIX.scaled(nnz).generate(seed=seed)


def _record_rate(benchmark, ratings):
    benchmark.extra_info["updates_per_round"] = ratings.nnz
    benchmark.extra_info["updates_per_s"] = (
        ratings.nnz / benchmark.stats.stats.mean
    )


def _bench_policy(benchmark, policy):
    ratings = _data()
    model = MFModel.init_for(ratings, _K, seed=0)
    benchmark(sgd_epoch, model, ratings, 0.005, 0.01, _BATCH, policy)
    _record_rate(benchmark, ratings)


def bench_sgd_epoch_atomic(benchmark):
    _bench_policy(benchmark, ConflictPolicy.ATOMIC)


def bench_sgd_epoch_last_write(benchmark):
    _bench_policy(benchmark, ConflictPolicy.LAST_WRITE)


def _bench_fit(benchmark, make_trainer):
    # fit() evaluates RMSE once per epoch, so these three rates include
    # one evaluation: comparable with each other, not with sgd_epoch
    ratings = _data()
    benchmark(lambda: make_trainer().fit(ratings, epochs=1))
    _record_rate(benchmark, ratings)


def bench_fpsgd_epoch(benchmark):
    _bench_fit(benchmark, lambda: FPSGD(
        k=_K, threads=_WORKERS, seed=0, batch_size=_BATCH))


def bench_dsgd_epoch(benchmark):
    _bench_fit(benchmark, lambda: DSGD(
        k=_K, workers=_WORKERS, seed=0, batch_size=_BATCH))


def bench_nomad_epoch(benchmark):
    _bench_fit(benchmark, lambda: NOMAD(k=_K, workers=_WORKERS, seed=0))


def bench_fp16_roundtrip(benchmark):
    arr = np.random.default_rng(0).uniform(0.01, 2.0, (128, 20_000)).astype(np.float32)

    def roundtrip():
        return decompress_fp16(compress_fp16(arr))

    out = benchmark(roundtrip)
    assert out.dtype == np.float32
    benchmark.extra_info["mbytes"] = arr.nbytes / 1e6


def bench_pull_buffer_cycle(benchmark):
    q = np.random.default_rng(0).uniform(0.0, 1.0, (64, 30_000)).astype(np.float32)
    channel, wire, out = Channel(), np.empty_like(q), np.empty_like(q)

    def cycle():
        channel.encode(q, wire)
        return channel.decode(wire, out)

    benchmark(cycle)
    benchmark.extra_info["mbytes"] = q.nbytes / 1e6


def bench_partition_rows(benchmark):
    from repro.data.grid import partition_rows

    ratings = _data(nnz=120_000, seed=3)
    parts = benchmark(partition_rows, ratings, [0.1, 0.2, 0.3, 0.4])
    assert sum(p.nnz for p in parts) == ratings.nnz
