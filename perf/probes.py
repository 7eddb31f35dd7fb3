"""Per-layer micro-probes: each layer's public functions on the workload's own arrays.

The traced pass runs these after the pipeline, in process, so every
per-layer metric exists on every workload — a layer the workload's
pipeline bypasses (``core.*`` on the process plane, the wire codec on
the sim plane) is still measured at that workload's shapes, which is
what makes "no change on the bypassing workload" checkable.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

from perf import workloads
from perf.stats import percentile

_REPEATS = 5


def _timed(log, name, fn, parent, repeats=_REPEATS):
    """Median seconds of ``fn()`` over ``repeats`` calls, each one a span."""
    durations = []
    for _ in range(repeats):
        with log.span(name, parent, "probe"):
            t0 = time.perf_counter()
            fn()
            durations.append(time.perf_counter() - t0)
    return statistics.median(durations)


def training_layers(w, data, model, log, parent) -> dict[str, float]:
    """data / mf / channels / shm / core probes at the workload's shapes."""
    from repro.core.server import ParameterServer
    from repro.core.worker import WorkerRuntime
    from repro.data.grid import GridKind, partition_rows
    from repro.mf.kernels import ConflictPolicy, sgd_epoch
    from repro.mf.model import MFModel
    from repro.parallel.shm import SharedArray

    out: dict[str, float] = {}
    spec = workloads.dataset_spec(w)
    chan = workloads.channel(w)

    def shuffle_partition():
        shuffled = data.shuffle(workloads.BACKEND_SEED)
        fractions = [1.0 / w.n_workers] * w.n_workers
        for a in partition_rows(shuffled, fractions, GridKind.ROW):
            a.extract(shuffled).sort_by_row()

    out["data.shuffle_partition_s"] = _timed(
        log, "data.shuffle_partition", shuffle_partition, parent, repeats=3)

    scratch = MFModel(model.P.copy(), model.Q.copy())
    rng = np.random.default_rng(0)
    with log.span("mf.sgd_epoch", parent, "probe"):
        t0 = time.perf_counter()
        sgd_epoch(scratch, data, spec.learning_rate, spec.reg,
                  policy=ConflictPolicy.ATOMIC, rng=rng)
        out["mf.sgd_updates_per_s"] = data.nnz / (time.perf_counter() - t0)
    out["mf.rmse_eval_s_p50"] = _timed(
        log, "mf.rmse", lambda: scratch.rmse(data), parent)

    # wire codec on this workload's Q through this workload's channel stack
    wire = np.empty(model.Q.shape, dtype=chan.wire_dtype)
    out["engine.channels.encode_s_p50"] = _timed(
        log, "engine.channels.encode", lambda: chan.encode(model.Q, wire), parent)
    out["engine.channels.decode_s_p50"] = _timed(
        log, "engine.channels.decode", lambda: chan.decode(wire), parent)
    decoded = chan.decode(wire)
    out["engine.channels.payload_ok_s_p50"] = _timed(
        log, "engine.channels.payload_ok", lambda: chan.payload_ok(decoded), parent)

    def shm_create():
        SharedArray.create(model.Q.shape, chan.wire_dtype).unlink()

    out["parallel.shm_create_s"] = _timed(
        log, "parallel.shm_create", shm_create, parent, repeats=3)

    # the cost-model plane: plan derivation and the epoch it predicts
    with log.span("core.partition.plan", parent, "probe"):
        t0 = time.perf_counter()
        platform, cost_model, plan = workloads.cost_model_plan(w)
        out["core.partition.plan_s"] = time.perf_counter() - t0
    out["core.cost_model.sim_epoch_s"] = float(
        cost_model.epoch_cost(plan.fractions).total)

    # core.worker: one runtime over the whole matrix, as a 1-worker sim would
    shuffled = data.shuffle(workloads.BACKEND_SEED)
    (whole,) = partition_rows(shuffled, [1.0], GridKind.ROW)
    runtime = WorkerRuntime(0, platform.workers[0], whole, shuffled)
    out["core.worker.run_epoch_s_p50"] = _timed(
        log, "core.worker.run_epoch",
        lambda: runtime.run_epoch(scratch.P, scratch.Q, spec.learning_rate, spec.reg),
        parent, repeats=3)

    server = ParameterServer(scratch, 1, channel=chan)
    server.begin_epoch()

    def merge():
        server.push(0, scratch.Q)
        t0 = time.perf_counter()
        server.sync(0)
        return time.perf_counter() - t0

    merges = []
    for _ in range(_REPEATS):
        with log.span("core.server.sync", parent, "probe"):
            merges.append(merge())
    out["core.server.merge_s_p50"] = statistics.median(merges)
    return out


def checkpoint_load(path, log, parent) -> float:
    from repro.core.checkpoint import load_checkpoint

    return _timed(log, "core.checkpoint.load",
                  lambda: load_checkpoint(path, readonly=True), parent, repeats=3)


def serving_layers(w, scorer, requests, seen_index, candidates, log, parent):
    """Scorer split: no-mask vs mask, and the benchmark's own matmul floor."""
    snap = scorer.store.snapshot()
    P, Q = snap.quantized() if w.precision == "fp16" else (snap.P, snap.Q)
    cand = None if candidates is None else np.unique(candidates)
    reqs = requests[: w.probe_requests]

    def loop(name, fn):
        lats = []
        for users in reqs:
            with log.span(name, parent, "probe"):
                t0 = time.perf_counter()
                fn(users)
                lats.append(time.perf_counter() - t0)
        return 1e3 * percentile(lats, 50)

    def matmul(users):
        return P[users] @ (Q if cand is None else Q[:, cand])

    floor = loop("serving.matmul_floor", matmul)
    nomask = loop("serving.scorer.top_k[nomask]",
                  lambda u: scorer.top_k(u, workloads.TOP_K, candidates=candidates))
    mask = loop("serving.scorer.top_k[mask]",
                lambda u: scorer.top_k(u, workloads.TOP_K, exclude=seen_index,
                                       candidates=candidates))
    return {
        "serving.scorer.matmul_floor_ms": floor,
        "serving.scorer.topk_nomask_ms_p50": nomask,
        "serving.scorer.mask_delta_ms": mask - nomask,
        "serving.scorer.select_share": 1.0 - floor / nomask,
    }
