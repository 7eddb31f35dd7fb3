"""Ratings stored once: what ``open()`` does to them, and what evaluate walks.

A backend used to shuffle the ratings into a copy, ``partition_rows``
them (a stable argsort over every entry), then ``extract`` and
``sort_by_row`` each shard (a lexsort and three gathers apiece) — three
sorts and, on the process plane, a retained copy.  It now builds one
row-sorted store with ``data.grid.row_sorted_shards``: one lexsort, on
the process plane in place over the shard segments the shuffle was
gathered into.  ``bench_open`` times the three ways at the benchmark's
four workload shapes; ``bench_rmse`` times ``MFModel.rmse`` over the
shuffled order a backend used to evaluate on against the row-sorted
store it evaluates on now.  ``bench_order`` times the orders themselves:
the comparison sorts ``open()`` and ``SeenIndex`` used to run — kept
here, as the reference — against ``data.ratings.stable_order``.

    pytest benchmarks/bench_open.py --benchmark-only

EXPERIMENTS.md, "Ratings stored once", has the table from this host.
"""

import functools

import numpy as np
import pytest

from repro.core.config import PartitionStrategy
from repro.core.cost_model import TimeCostModel
from repro.data.datasets import MOVIELENS_20M, NETFLIX
from repro.data.grid import GridKind, partition_rows, row_sorted_shards
from repro.data.ratings import RatingMatrix, stable_order
from repro.data.synthetic import SyntheticConfig, generate_low_rank
from repro.hardware.topology import paper_workstation
from repro.mf.model import MFModel

SEED = 0
HALVES = (0.5, 0.5)


@functools.lru_cache(maxsize=None)
def shape(name: str):
    """``(ratings, fractions, k)`` of one ``perf/workloads.py`` workload."""
    if name == "proc_wide_sync":
        wide = SyntheticConfig(m=20_000, n=120_000, nnz=120_000)
        return generate_low_rank(wide, seed=0), HALVES, 64
    if name == "ckpt_swap_serve":
        return MOVIELENS_20M.scaled(200_000).generate(seed=0), HALVES, 64
    tall = NETFLIX.scaled(600_000).generate(seed=0)
    if name == "proc_tall_compute":
        return tall, HALVES, 32
    plan = TimeCostModel(paper_workstation(), NETFLIX, k=32).derive_partition(
        PartitionStrategy.DP2
    )
    return tall, plan.fractions, 32


SHAPES = ["proc_tall_compute", "proc_wide_sync", "sim_hetero_dp2", "ckpt_swap_serve"]


def three_sorts(ratings: RatingMatrix, fractions) -> list[RatingMatrix]:
    shuffled = ratings.shuffle(SEED)
    return [
        a.extract(shuffled).sort_by_row()
        for a in partition_rows(shuffled, fractions, GridKind.ROW)
    ]


def one_sort(ratings: RatingMatrix, fractions):
    """The sim plane's path: the caller's shuffle, then one sorted copy."""
    return row_sorted_shards(ratings.shuffle(SEED), fractions)


def one_sort_in_place(ratings: RatingMatrix, fractions, out):
    """The process plane's path: gather the shuffle into the (here
    private) shard arrays, sort them in place."""
    perm = np.random.default_rng(SEED).permutation(ratings.nnz)
    for column, dest in zip((ratings.rows, ratings.cols, ratings.vals), out):
        np.take(column, perm, out=dest, mode="clip")
    return row_sorted_shards(
        RatingMatrix(ratings.m, ratings.n, *out), fractions, out=out
    )


@pytest.mark.parametrize("name", SHAPES)
@pytest.mark.parametrize("how", ["three-sorts", "one-sort", "one-sort-in-place"])
def bench_open(benchmark, name, how):
    ratings, fractions, _ = shape(name)
    if how == "three-sorts":
        shards = benchmark(three_sorts, ratings, fractions)
        rows = np.concatenate([s.rows for s in shards])
    else:
        args = (ratings, fractions)
        if how == "one-sort-in-place":
            args += ([np.empty_like(c) for c in (ratings.rows, ratings.cols, ratings.vals)],)
        store, offsets, _ = benchmark(
            one_sort if how == "one-sort" else one_sort_in_place, *args
        )
        rows = store.rows
        assert offsets[-1] == ratings.nnz
    assert len(rows) == ratings.nnz and (np.diff(rows) >= 0).all()
    benchmark.extra_info["nnz"] = ratings.nnz


#: key -> (the comparison sort that was there, the radix order that is)
ORDERS = {
    # ``row_sorted_shards`` / ``sort_by_row``: what ``open()`` runs
    "row-col": (
        lambda r: np.lexsort((r.cols, r.rows)),
        lambda r: stable_order(r.rows, r.m, stable_order(r.cols, r.n)),
    ),
    # ``SeenIndex.from_ratings`` / ``partition_rows``
    "row": (
        lambda r: np.argsort(r.rows, kind="stable"),
        lambda r: stable_order(r.rows, r.m),
    ),
}


@pytest.mark.parametrize("name", SHAPES)
@pytest.mark.parametrize("key", list(ORDERS))
@pytest.mark.parametrize("how", ["comparison", "radix"])
def bench_order(benchmark, name, key, how):
    shuffled = shape(name)[0].shuffle(SEED)
    comparison, radix = ORDERS[key]
    order = benchmark(comparison if how == "comparison" else radix, shuffled)
    np.testing.assert_array_equal(order, comparison(shuffled))
    benchmark.extra_info["nnz"] = shuffled.nnz


@pytest.mark.parametrize("name", SHAPES)
@pytest.mark.parametrize("order", ["shuffled", "row-sorted"])
def bench_rmse(benchmark, name, order):
    ratings, _, k = shape(name)
    walked = ratings.shuffle(SEED)
    if order == "row-sorted":
        walked = walked.sort_by_row()
    model = MFModel.init_for(ratings, k, seed=SEED)
    assert np.isfinite(benchmark(model.rmse, walked))
    benchmark.extra_info["nnz"] = ratings.nnz
