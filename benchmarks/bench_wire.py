"""Whole wire against column set: the four per-epoch passes over a push.

A worker whose shard rates ``t`` of the ``n`` Q columns decodes, encodes
and has scanned and merged ``k * t`` values instead of ``k * n``
(``core.server.column_set``).  Encode and scan run on a packed prefix
and cost the same per value; the decode gathers and the merge gathers
and scatters, which cost more per value.  This sweep is where the rule's
one constant (``core.server._SELECT_BELOW``) comes from: at each shape
the ``all`` row is the whole wire and the numbered rows are column sets
of that share of the columns, so a share pays when its four passes sum
to less than the ``all`` rows'.

    pytest benchmarks/bench_wire.py --benchmark-only

The shapes are the benchmark's two wire extremes: ``proc_wide_sync``'s
(64, 120 000) binary16 wire and ``ckpt_swap_serve``'s (64, 13 126) FP32
one.  EXPERIMENTS.md, "Column sets", has the table from this host.
"""

import numpy as np
import pytest

from repro.core.server import merge_delta, merge_scratch, wire_view
from repro.engine.channels import Fp16Channel, QOnlyChannel
from repro.engine.worker_proc import _decode_pull

SHAPES = {
    "wide-fp16": (64, 120_000, Fp16Channel(QOnlyChannel())),
    "ckpt-fp32": (64, 13_126, QOnlyChannel()),
}
SHARES = [None, 0.1, 0.3, 0.5, 0.9]


@pytest.fixture(params=[(s, f) for s in SHAPES for f in SHARES],
                ids=lambda p: f"{p[0]}-{'all' if p[1] is None else p[1]}")
def wire(request):
    """One epoch's arrays: Q, its pull wire, a column set, the local Q
    a worker holds for it and the pushed view of a trained copy."""
    shape, share = request.param
    k, n, channel = SHAPES[shape]
    rng = np.random.default_rng(0)
    Q = rng.standard_normal((k, n)).astype(np.float32)
    cols = None
    if share is not None:
        cols = np.sort(rng.choice(n, int(share * n), replace=False))
    pull_wire = np.empty((k, n), dtype=channel.wire_dtype)
    channel.encode(Q, pull_wire)
    q_local = np.empty((k, n if cols is None else cols.size), dtype=np.float32)
    _decode_pull(channel, pull_wire, cols, q_local)
    q_local += np.float32(0.01)
    pushed = wire_view(np.zeros((k, n), dtype=channel.wire_dtype), cols)
    channel.encode(q_local, pushed)
    return channel, Q, pull_wire, cols, q_local, pushed


def _values(benchmark, pushed):
    benchmark.extra_info["values"] = int(pushed.size)


def bench_decode(benchmark, wire):
    channel, _, pull_wire, cols, q_local, pushed = wire
    benchmark(_decode_pull, channel, pull_wire, cols, q_local)
    _values(benchmark, pushed)


def bench_encode(benchmark, wire):
    channel, _, _, _, q_local, pushed = wire
    benchmark(channel.encode, q_local, pushed)
    _values(benchmark, pushed)


def bench_scan(benchmark, wire):
    channel, _, _, _, _, pushed = wire
    assert benchmark(channel.payload_ok, pushed)
    _values(benchmark, pushed)


def bench_merge(benchmark, wire):
    _, Q, pull_wire, cols, _, pushed = wire
    benchmark(merge_delta, Q, pushed, pull_wire, merge_scratch(), cols)
    _values(benchmark, pushed)
