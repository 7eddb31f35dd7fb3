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

``bench_atomic_batch`` times one ATOMIC batch of 4,096 at the
benchmark's kernel shapes three ways: the branch as it stood before
``data.ratings.stable_order`` (kept here and in
``tests/test_mf_kernels.py``, as the reference), radix grouping and
float32 counts with ``reduceat`` still over every group, and the kernel
as it is — the same plus the singleton bypass.  ``bench_scatter`` times
the scatter alone, per factor, with and without the bypass.
"""

import numpy as np
import pytest
from bench_open import shape

from repro.core.compression import compress_fp16, decompress_fp16
from repro.data.datasets import NETFLIX
from repro.data.ratings import stable_order
from repro.engine.channels import Channel
from repro.mf.dsgd import DSGD
from repro.mf.fpsgd import FPSGD
from repro.mf.kernels import ConflictPolicy, _scatter_mean, sgd_batch_update, sgd_epoch
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


# ---------------------------------------------------------------------------
# one ATOMIC batch, before and after the radix grouping
# ---------------------------------------------------------------------------
def _scatter_add_before(target, idx, updates):
    order = np.argsort(idx, kind="stable")
    sorted_idx = idx[order]
    starts = np.concatenate(([0], np.flatnonzero(np.diff(sorted_idx)) + 1))
    target[sorted_idx[starts]] += np.add.reduceat(updates[order], starts, axis=0)


def _mean_before(target, idx, updates):
    """Counts by ``bincount`` over the factor, a float64 quotient."""
    counts = np.bincount(idx, minlength=len(target))[idx]
    _scatter_add_before(target, idx, (updates / counts[:, None]).astype(np.float32, copy=False))


def _mean_every_group(target, idx, updates):
    """Radix grouping and float32 counts; ``reduceat`` over every group."""
    order = stable_order(idx, len(target))
    ids = idx[order]
    starts = np.flatnonzero(np.concatenate(([True], ids[1:] != ids[:-1])))
    sizes = np.diff(starts, append=len(ids))
    counts = np.repeat(sizes, sizes).astype(np.float32)[:, None]
    target[ids[starts]] += np.add.reduceat(updates[order] / counts, starts, axis=0)


def _mean_now(target, idx, updates):
    _scatter_mean(idx, len(target), (target, updates))


_SCATTERS = {"before": _mean_before, "every-group": _mean_every_group, "now": _mean_now}

#: row label -> the ``perf`` workload whose ratings and ``k`` it takes
_SHAPES = {
    "tall-k32": "proc_tall_compute",
    "wide-k64": "proc_wide_sync",
    "ckpt-k64": "ckpt_swap_serve",
}


def _first_batch(name):
    ratings, _, k = shape(_SHAPES[name])
    sel = np.random.default_rng(0).permutation(ratings.nnz)[:_BATCH]
    model = MFModel.init_for(ratings, k, seed=0)
    return model, ratings.rows[sel], ratings.cols[sel], ratings.vals[sel]


def _batch_with(scatter, model, rows, cols, vals, lr=0.005, reg=0.01):
    """``sgd_batch_update``'s ATOMIC step with ``scatter`` in its place."""
    P, Q = model.P, model.Q
    p, q = P[rows], Q[:, cols].T
    err = (vals - np.einsum("ij,ij->i", p, q)).astype(np.float32, copy=False)
    dp = lr * (err[:, None] * q - reg * p)
    dq = lr * (err[:, None] * p - reg * q)
    scatter(P, rows, dp)
    scatter(Q.T, cols, dq)


@pytest.mark.parametrize("name", list(_SHAPES))
@pytest.mark.parametrize("how", list(_SCATTERS))
def bench_atomic_batch(benchmark, name, how):
    model, rows, cols, vals = _first_batch(name)
    want = MFModel(model.P.copy(), model.Q.copy())
    _batch_with(_mean_before, want, rows, cols, vals)
    if how == "now":
        step = lambda m: sgd_batch_update(m, rows, cols, vals, 0.005, 0.01)  # noqa: E731
    else:
        step = lambda m: _batch_with(_SCATTERS[how], m, rows, cols, vals)  # noqa: E731
    check = MFModel(model.P.copy(), model.Q.copy())
    step(check)
    assert np.array_equal(check.P, want.P) and np.array_equal(check.Q, want.Q)
    benchmark(step, model)
    benchmark.extra_info["updates_per_s"] = _BATCH / benchmark.stats.stats.mean


@pytest.mark.parametrize("name", list(_SHAPES))
@pytest.mark.parametrize("factor", ["P", "Q"])
@pytest.mark.parametrize("how", list(_SCATTERS))
def bench_scatter(benchmark, name, factor, how):
    model, rows, cols, _ = _first_batch(name)
    target, idx = (model.P, rows) if factor == "P" else (model.Q.T, cols)
    updates = np.random.default_rng(1).standard_normal(
        (_BATCH, target.shape[1])).astype(np.float32) * 1e-3
    groups = np.bincount(idx)
    benchmark(_SCATTERS[how], target, idx, updates)
    benchmark.extra_info["singleton_share"] = float((groups == 1).sum() / _BATCH)
    benchmark.extra_info["largest_group"] = int(groups.max())
