"""The process plane's child side: what one worker process runs.

Kept apart from :mod:`repro.engine.backends` so that a spawned worker
imports only what it executes — numpy, the SGD kernel and model, the
shared-memory and channel layers, the fault script and the timeline
phases.  ``repro.obs`` loads only when the server ships a span-ring or
profile spec (docs/engine.md, "Process-plane start-up").
"""

from __future__ import annotations

import os
import time
from contextlib import ExitStack, nullcontext

import numpy as np

from repro.core.server import column_set, wire_view
from repro.engine.channels import Channel
from repro.hardware.timeline import Phase
from repro.mf.kernels import ConflictPolicy, sgd_shard_epoch
from repro.mf.model import MFModel
from repro.parallel.shm import SharedArray, SharedArraySpec
from repro.resilience.faults import CORRUPT, DELAY, DROP, Fault, fault_at, fault_before_barrier

#: extra time workers wait on barriers beyond the server's timeout —
#: the server must always be the first to detect a broken rendezvous
#: (see worker_main)
WORKER_PATIENCE_S = 30.0

#: ``progress[rank]`` once a worker has attached every segment — the
#: "attached and alive" handshake ``ProcessBackend.open`` waits for
HANDSHAKE_STAMP = 1


def barrier_stamp(epoch: int, point: str) -> int:
    """The value ``progress[rank]`` holds from one rendezvous onwards."""
    return 2 * epoch + (2 if point == "start" else 3)


class NullRecorder:
    """Stands in for a span recorder or the stage profiler when off.

    One loop body serves instrumented and plain runs, in the worker and
    (``backends.ServerSpans``) on the server; with telemetry and
    profiling off every scope is this shared no-op, and nothing from
    ``repro.obs`` is ever imported.
    """

    _scope = nullcontext()

    def span(self, *where):
        return self._scope

    def stage(self, name: str):
        return self._scope

    def dump(self, directory: "str | None", worker_id: int) -> None:
        pass


def _stall_or_die(
    faults: tuple[Fault, ...], global_epoch: int, point: str, worker_id: int
) -> None:
    """Kill / straggler injection: what happens before a barrier stamp.

    Neither kill flavor touches the barrier: a real crashed process
    cannot abort a rendezvous, so peers find out the honest way — the
    server's barrier wait times out and the health plane reads the
    stamps and exit codes.
    """
    fault = fault_before_barrier(faults, global_epoch, point)
    if fault is None:
        return
    if fault.kind == DELAY:
        # an injected straggler, by definition  # hcclint: disable=blocking-call
        time.sleep(fault.seconds)
    elif fault.hard:
        # SIGKILL-like: no interpreter teardown at all
        os._exit(13)
    else:
        raise RuntimeError(f"injected failure in worker {worker_id}")


def attached_shard(
    segments: "tuple[np.ndarray, np.ndarray, np.ndarray]",
    lo: int,
    hi: int,
    m: int,
    n: int,
) -> "tuple[np.ndarray, np.ndarray, np.ndarray]":
    """A rank's ``[lo, hi)`` slice of the shard segments, checked once.

    Offsets and indices arrive through shared memory: a damaged one
    must end this worker — and, through the server's next rendezvous,
    the attempt, as a ``WorkerSyncError`` naming the rank — before the
    kernel scatters out of bounds into the shared P.  A NumPy slice
    clamps silently, so the bounds are checked before it is taken.
    """
    if not 0 <= lo <= hi <= len(segments[0]):
        raise ValueError(
            f"shard offsets [{lo}, {hi}) lie outside the {len(segments[0])} "
            "stored ratings"
        )
    rows, cols, vals = (seg[lo:hi] for seg in segments)
    if hi > lo:
        if rows[0] < 0 or rows[-1] >= m or (rows[1:] < rows[:-1]).any():
            raise ValueError(f"shard rows are not sorted within [0, {m})")
        if cols.min() < 0 or cols.max() >= n:
            raise ValueError(f"shard columns lie outside [0, {n})")
    return rows, cols, vals


def local_view(
    p: np.ndarray,
    shard: "tuple[np.ndarray, np.ndarray, np.ndarray]",
    n: int,
) -> "tuple[MFModel, tuple[np.ndarray, np.ndarray, np.ndarray], np.ndarray | None]":
    """What a worker trains on, once its shard is known.

    ``(model, shard, cols)``: the shared P beside a local Q that holds
    the shard's :func:`~repro.core.server.column_set` and nothing else,
    and the shard with its column ids renumbered into that Q.  The
    renumbering is monotone, so every sort, count and last-occurrence
    rule of the kernel sees the order it saw before and every update
    keeps its bits.  With the "all" set the Q is ``(k, n)`` and the
    shard is returned as it came.
    """
    rows, shard_cols, vals = shard
    cols = column_set(shard_cols, n)
    if cols is not None:
        shard = (rows, np.searchsorted(cols, shard_cols), vals)
        n = cols.size
    return MFModel(p, np.empty((p.shape[1], n), dtype=np.float32)), shard, cols


def _decode_pull(
    channel: Channel,
    pull_wire: np.ndarray,
    cols: "np.ndarray | None",
    q_local: np.ndarray,
) -> None:
    """The worker's single pull decode: its columns of the wire, widened."""
    if cols is None:
        channel.decode(pull_wire, out=q_local)
        return
    for wire_row, q_row in zip(pull_wire, q_local):
        channel.decode(wire_row.take(cols), out=q_row)


def _encode_push(
    channel: Channel,
    q_trained: np.ndarray,
    pull_wire: np.ndarray,
    push_wire: np.ndarray,
    cols: "np.ndarray | None",
    faults: tuple[Fault, ...],
    global_epoch: int,
) -> None:
    """The worker's single push encode, with drop/corrupt injection."""
    pushed = wire_view(push_wire, cols)
    if fault_at(faults, DROP, global_epoch) is not None:
        # dropped payload: the wire still carries the epoch base (the
        # pull wire's exact bits, at this worker's columns), so the
        # server merges a zero delta
        pushed[...] = pull_wire if cols is None else pull_wire[:, cols]
    else:
        channel.encode(q_trained, pushed)
    if fault_at(faults, CORRUPT, global_epoch) is not None:
        pushed[...] = np.nan


def worker_epoch(
    channel: Channel,
    model: MFModel,
    shard: "tuple[np.ndarray, np.ndarray, np.ndarray]",
    cols: "np.ndarray | None",
    pull_wire: np.ndarray,
    push_wire: np.ndarray,
    lr: float,
    reg: float,
    batch_size: int,
    policy: ConflictPolicy,
    rng: np.random.Generator,
    faults: tuple[Fault, ...],
    epoch: int,
    global_epoch: int,
    rec,
    prof,
) -> None:
    """The worker half of an epoch: pull -> train -> push, on either plane.

    ``model``, ``shard`` and ``cols`` are a :func:`local_view`: the
    shared P beside this worker's local Q, its ``(rows, cols, vals)``
    numbered into that Q, and the column set the Q holds.  ``decode``
    is the worker's single per-epoch copy out of the pull wire — of
    those columns — and ``encode`` its single copy into the
    :func:`~repro.core.server.wire_view` of its push wire (paper 3.5).
    A worker process calls this
    between its two barriers and ``SimBackend`` inline per worker;
    seeds, conflict policy and shard order are the caller's.  ``rec``
    records spans on the attempt's local ``epoch``, ``prof`` profiles
    the stages (:class:`NullRecorder` for neither); ``faults`` is this
    rank's slice of the plan, keyed on ``global_epoch``.
    """
    with rec.span(Phase.PULL, epoch), prof.stage("pull"):
        _decode_pull(channel, pull_wire, cols, model.Q)
    with rec.span(Phase.COMPUTE, epoch), prof.stage("compute"):
        sgd_shard_epoch(model, *shard, lr, reg, batch_size, policy, rng)
    with rec.span(Phase.PUSH, epoch), prof.stage("push"):
        _encode_push(
            channel, model.Q, pull_wire, push_wire, cols, faults, global_epoch
        )


def worker_main(
    worker_id: int,
    p_spec: SharedArraySpec,
    pull_spec: SharedArraySpec,
    push_spec: SharedArraySpec,
    progress_spec: SharedArraySpec,
    shard_specs: tuple[SharedArraySpec, SharedArraySpec, SharedArraySpec],
    offsets_spec: SharedArraySpec,
    channel: Channel,
    epochs: int,
    lr: float,
    reg: float,
    batch_size: int,
    seed: int,
    start_barrier,
    end_barrier,
    barrier_timeout_s: float,
    span_spec=None,
    epoch_offset: int = 0,
    faults: tuple[Fault, ...] = (),
    profile_dir: "str | None" = None,
) -> None:
    """Worker process body: epochs of pull -> train -> push.

    Everything arrives as a spec: the worker is spawned before the
    server has shuffled, partitioned or sorted anything, attaches while
    the server does that, and stamps ``HANDSHAKE_STAMP``.  The ratings
    live in one ``rows``/``cols``/``vals`` segment set (``shard_specs``)
    shared by all workers; this rank's ``[lo, hi)`` slice of it is read
    from ``offsets_spec`` after the first start barrier, which is what
    publishes the server's writes, bounds-checked once
    (:func:`attached_shard`) and trained on as zero-copy views;
    the local Q is allocated then, at the size of the shard's column set
    (:func:`local_view`), never at ``(k, n)`` first.

    The channel stack travels into the process by pickling (channels are
    stateless) and owns the wire codec: ``decode`` is the worker's
    single per-epoch copy out of the shared pull buffer, ``encode`` its
    single copy into the push buffer; every epoch reads the same pull
    buffer, which the server rewrites only after the end barrier.
    Before each barrier the worker stamps ``progress[worker_id]`` so the
    server can name missing ranks on a broken rendezvous.

    ``epoch_offset`` is how many *global* epochs already completed
    before this spawn (checkpoint resume, recovery restart): stamps and
    barriers count local epochs, while the RNG stream discards the
    completed epochs' permutation draws and fault injection
    (``faults``, this rank's slice of a
    :class:`~repro.resilience.faults.FaultPlan`) keys on global epochs.
    ``span_spec`` switches on span recording into a shared ring and
    ``profile_dir`` per-stage cProfile accumulation (one ``.pstats``
    file per stage, dumped there before exiting); both wrap the same
    loop body.
    """
    rng = np.random.default_rng(seed + 1000 * (worker_id + 1))
    # workers outwait the server on every rendezvous: the server is the
    # sole failure detector, and at its timeout the survivors must still
    # be alive (blocked here) for the health plane to tell a dead rank
    # from collateral damage; teardown reaps them right after
    patience_s = barrier_timeout_s + WORKER_PATIENCE_S
    # ExitStack closes every attached segment even if a later attach
    # fails partway through (a bare attach-then-try would leak the
    # earlier mappings on that path)
    with ExitStack() as stack:
        p_shared = stack.enter_context(SharedArray.attach(p_spec))
        pull_buf = stack.enter_context(SharedArray.attach(pull_spec))
        push_buf = stack.enter_context(SharedArray.attach(push_spec))
        progress = stack.enter_context(SharedArray.attach(progress_spec))
        shard_segs = [
            stack.enter_context(SharedArray.attach(spec)) for spec in shard_specs
        ]
        offsets = stack.enter_context(SharedArray.attach(offsets_spec))
        rec = prof = NullRecorder()
        if span_spec is not None:
            from repro.obs.spans import SpanRecorder, SpanRing

            rec = SpanRecorder(stack.enter_context(SpanRing.attach(span_spec)))
        if profile_dir is not None:
            from repro.obs.profile import WorkerStageProfiles

            prof = WorkerStageProfiles()
        progress.array[worker_id] = HANDSHAKE_STAMP
        model = shard = cols = None
        for epoch in range(epochs):
            global_epoch = epoch_offset + epoch
            _stall_or_die(faults, global_epoch, "start", worker_id)
            with rec.span(Phase.BARRIER, epoch):
                progress.array[worker_id] = barrier_stamp(epoch, "start")
                start_barrier.wait(timeout=patience_s)
            if shard is None:
                lo, hi = offsets.array[worker_id : worker_id + 2]
                n = pull_buf.array.shape[1]
                # the local Q, allocated once: every epoch's pull
                # decodes into it
                model, shard, cols = local_view(
                    p_shared.array,
                    attached_shard(
                        tuple(seg.array for seg in shard_segs), lo, hi,
                        p_shared.array.shape[0], n,
                    ),
                    n,
                )
                # replay: one permutation draw per completed epoch
                # (mirrors sgd_shard_epoch) so a warm-started run continues
                # the exact sample order of the straight-through run
                for _ in range(epoch_offset):
                    rng.permutation(len(shard[2]))
            worker_epoch(
                channel, model, shard, cols,
                pull_buf.array, push_buf.array,
                lr, reg, batch_size, ConflictPolicy.ATOMIC, rng,
                faults, epoch, global_epoch, rec, prof,
            )
            _stall_or_die(faults, global_epoch, "end", worker_id)
            with rec.span(Phase.BARRIER, epoch):
                progress.array[worker_id] = barrier_stamp(epoch, "end")
                end_barrier.wait(timeout=patience_s)
        prof.dump(profile_dir, worker_id)
