"""The parameter server: the server half of an epoch (paper 3.1/3.5).

The server owns the global P and Q.  Each epoch it encodes Q into the
pull wire every worker maps (one copy), and once the workers have
pushed it validates every push wire and folds each into the global
matrix — the "Sync" thread of Figure 4.

Merging uses an additive delta update:

    Q_global += Q_i_local - Q_epoch_base

where ``Q_epoch_base`` is the global Q snapshot the workers pulled —
the epoch's pull wire itself, read where it lies.  The wire stays
intact until the next ``begin_epoch`` encodes into it and widens to
FP32 exactly, so the server keeps no decoded copy of it, and because
the base is what the workers started from, quantization included,
wire-format error on the pull side cancels out of every delta.
This is the delta merge the cost model charges three memory
operations for (Eq. 3) and it resolves the write-after-write races
row-grid partitioning cannot avoid on Q.  Every delta applies whole:
row-grid workers train on *disjoint* samples, so their deltas are
distinct SGD steps (summing, not averaging — averaging would
under-apply the epoch's updates).

With a row grid the P rows are worker-exclusive, so workers write them
in place ("transmit Q only", Strategy 1): the server never merges P.
The same argument holds column-wise.  A Q column that no rating in a
worker's shard names comes back bit for bit as it went out — a delta of
exactly zero — so each worker's wire is its :func:`column_set`: it
decodes those columns only, trains a compact local Q and pushes them
packed into the front of its push wire, and the server scans and merges
that prefix (:func:`wire_view`) into the columns it stands for.

:class:`ParameterServer` is that half written once: both backends of
:mod:`repro.engine.backends` drive the same object, the sim plane over
private wire arrays and the process plane over its shared segments.
The worker half is :func:`repro.engine.worker_proc.worker_epoch`.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.mf.model import MFModel


#: values per block of :func:`merge_delta`: three FP32 streams of
#: 256 KB each, so a merge of any k x n stays cache-resident
_MERGE_BLOCK = 1 << 16

#: a shard that rates more than this share of the columns uses its wire
#: whole.  Per value a gathered decode costs about 2x and a scattered
#: merge about 3x their streaming forms, while encode and scan cost the
#: same, so selecting stops paying somewhere past half the columns
#: (``benchmarks/bench_wire.py``; EXPERIMENTS.md, "Column sets")
_SELECT_BELOW = 0.5


def column_set(cols: np.ndarray, n: int) -> "np.ndarray | None":
    """Sorted ids of the Q columns a shard's ``cols`` rate; ``None`` for "all".

    The one rule both halves of an epoch apply to the same shard bytes:
    the server to every shard slice it wrote, each worker to its own.
    A column outside the set is never gathered or scattered by the
    kernel, so leaving it off the wire changes no bit of the merge.
    """
    rated = np.flatnonzero(np.bincount(cols, minlength=n))
    return None if rated.size > _SELECT_BELOW * n else rated


def wire_view(wire: np.ndarray, cols: "np.ndarray | None") -> np.ndarray:
    """The part of a push wire a worker with column set ``cols`` fills.

    The ``k * t`` leading values, as a C-contiguous ``(k, t)`` array
    whose column ``j`` stands for Q column ``cols[j]``; the whole wire
    for "all".  The rest of the wire is never written, scanned or read.
    """
    if cols is None:
        return wire
    k = wire.shape[0]
    return wire.reshape(-1)[: k * cols.size].reshape(k, cols.size)


def merge_scratch() -> np.ndarray:
    """The block buffer :func:`merge_delta` computes deltas in.

    A server allocates it once per run and hands it to every merge.
    """
    return np.empty(_MERGE_BLOCK, dtype=np.float32)


def merge_delta(
    Q: np.ndarray,
    wire: np.ndarray,
    q_base: np.ndarray,
    scratch: np.ndarray,
    cols: "np.ndarray | None" = None,
) -> None:
    """``Q += wire - q_base`` in place, one scratch block at a time.

    ``wire`` is a worker's push buffer and ``q_base`` the epoch's pull
    wire, both as they crossed — FP32 or binary16.  Widening binary16 is
    exact, and the subtraction does it while it reads, so decode and
    subtract are one pass into ``scratch`` and the add is the second:
    the three memory operations per value that Eq. 3 charges, with no
    array beyond ``scratch`` (1-D FP32; its length is the block size).
    Validate the payload *before* calling: a merge is not undone.

    With ``cols`` (a :func:`column_set`) ``wire`` is the ``(k, t)``
    :func:`wire_view` of the push and only ``Q[:, cols]`` is touched:
    row by row, the base's columns are gathered, subtracted from the
    push in FP32 and added into the gathered Q values, which are then
    scattered back — the same three FP32 operations per value, so the
    selected columns get the bits the whole-wire merge gives them, and
    the gathers are two rows of at most a block each.
    """
    if not Q.flags.c_contiguous:
        raise ValueError("Q must be C-contiguous to be merged in place")
    if cols is not None:
        for q_row, wire_row, base_row in zip(Q, wire, q_base):
            for lo in range(0, cols.size, len(scratch)):
                block = cols[lo : lo + len(scratch)]
                delta = scratch[: block.size]
                np.subtract(
                    wire_row[lo : lo + block.size], base_row.take(block),
                    out=delta, dtype=np.float32,
                )
                np.add(q_row.take(block), delta, out=delta)
                q_row[block] = delta
        return
    q_flat, wire_flat, base_flat = Q.reshape(-1), wire.reshape(-1), q_base.reshape(-1)
    for lo in range(0, q_flat.size, len(scratch)):
        hi = min(lo + len(scratch), q_flat.size)
        delta = scratch[: hi - lo]
        # dtype= names the loop: two binary16 operands would otherwise
        # be subtracted in half precision and the delta rounded
        np.subtract(wire_flat[lo:hi], base_flat[lo:hi], out=delta, dtype=np.float32)
        np.add(q_flat[lo:hi], delta, out=q_flat[lo:hi])


class ParameterServer:
    """The server half of an epoch, over the wires it is given.

    A wire is a Q-shaped array of ``channel.wire_dtype``.  ``wires`` is
    ``(pull_wire, push_wires)``: the one pull wire every epoch encodes
    into and one push wire per worker.  The
    process plane passes the arrays of its shared segments; without
    ``wires`` the server allocates private ones.  ``channel`` is a
    :mod:`repro.engine.channels` stack (duck-typed — core never imports
    ``repro.engine``) and owns the codec and the payload check.

    ``columns`` holds each worker's :func:`column_set` (``None``, the
    default for every worker, is "all"): what :meth:`pushed` — and so
    the scan, the merge and the accounting — reads of its push wire.  A
    private push wire is allocated at that size.
    """

    def __init__(
        self,
        model: MFModel,
        n_workers: int,
        channel,
        wires: "tuple[np.ndarray, Sequence[np.ndarray]] | None" = None,
        columns: "Sequence[np.ndarray | None] | None" = None,
    ):
        if n_workers <= 0:
            raise ValueError("need at least one worker")
        self.model = model
        self.n_workers = n_workers
        self.channel = channel
        self.columns = list(columns) if columns is not None else [None] * n_workers
        if len(self.columns) != n_workers:
            raise ValueError("need one column set per worker")
        if wires is None:
            (k, n), dtype = model.Q.shape, channel.wire_dtype
            wires = (
                np.zeros((k, n), dtype),
                [
                    np.zeros((k, n if cols is None else cols.size), dtype)
                    for cols in self.columns
                ],
            )
        self._pull_wire, self.push_wires = wires
        self._merge_scratch = merge_scratch()
        self.epochs_started = 0

    # ------------------------------------------------------------------
    def begin_epoch(self) -> None:
        """Encode Q into this epoch's pull wire: the one copy, and the merge base.

        The wire is the exact (possibly quantized) matrix the workers
        pull, and :meth:`sync` measures every delta against it as it
        lies, so wire-format error on the pull side cancels out of the
        merge without a decoded second copy.
        """
        self.epochs_started += 1
        self.channel.encode(self.model.Q, self.pull_wire)

    def _require_epoch(self) -> None:
        if not self.epochs_started:
            raise RuntimeError("no epoch in progress: begin_epoch first")

    @property
    def pull_wire(self) -> np.ndarray:
        """The wire this epoch's workers decode and its deltas are measured
        against; every epoch encodes into the same one."""
        self._require_epoch()
        return self._pull_wire

    def pushed(self, worker_id: int) -> np.ndarray:
        """What worker ``worker_id`` deposits: its push wire, or the
        :func:`wire_view` of it that its column set fills."""
        if not (0 <= worker_id < self.n_workers):
            raise IndexError(f"worker_id {worker_id} out of range")
        return wire_view(self.push_wires[worker_id], self.columns[worker_id])

    def push(self, worker_id: int, q_local: np.ndarray) -> None:
        """Encode ``q_local`` into a worker's push wire (one copy).

        The deposit for a caller that holds the server; a worker that
        holds the wire itself encodes through ``worker_epoch``.
        """
        self._require_epoch()
        wire = self.pushed(worker_id)
        if q_local.shape != wire.shape:
            raise ValueError(f"shape mismatch: {q_local.shape} vs {wire.shape}")
        self.channel.encode(q_local, wire)

    def first_bad_push(self) -> "int | None":
        """Scan every push as it lies on the wire; the first rank refused.

        Run it before any :meth:`sync` of the epoch: the sync is
        all-or-nothing, so a garbage payload (a torn write from a dying
        worker, an injected corruption, a diverged worker) leaves the
        model at the last cleanly-synced epoch — the state a retry
        restarts from.
        """
        for worker_id in range(self.n_workers):
            if not self.channel.payload_ok(self.pushed(worker_id)):
                return worker_id
        return None

    def sync(self, worker_id: int) -> None:
        """Merge one worker's push, straight off its wire, into Q."""
        self._require_epoch()
        merge_delta(
            self.model.Q, self.pushed(worker_id), self.pull_wire,
            self._merge_scratch, self.columns[worker_id],
        )
