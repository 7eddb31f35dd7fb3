"""The measured process: one fresh interpreter per (workload, pass).

``python -m perf.child '<json spec>'`` runs one of two modes and
writes its result as JSON to ``spec["out"]``:

* ``gen``      — generate the seeded dataset into the input cache;
* ``pipeline`` — set-up -> train ``E`` epochs -> publish -> serve, either
  end-to-end (``trace`` 0: a stamping proxy, nothing else) or traced
  (``trace`` 1: spans around every layer call plus the micro-probes).

``repro`` and numpy are imported inside :func:`_import_stack` so that a
fresh interpreter's import cost is part of what ``setup_s`` measures.
"""

from __future__ import annotations

import time

T0 = time.perf_counter()   # as close to interpreter start as this file gets

import gc
import json
import math
import os
import resource
import statistics
import sys
from contextlib import contextmanager

from perf import workloads
from perf.stats import WARMUP_EPOCHS, interpolate_crossing, pair_half_median, percentile

clock = time.perf_counter


def _import_stack() -> float:
    """Seconds to import everything the pipeline uses, from a cold interpreter."""
    t0 = clock()
    import numpy  # noqa: F401
    import repro  # noqa: F401
    import repro.engine  # noqa: F401
    import repro.serving  # noqa: F401
    return clock() - t0


@contextmanager
def quiet_gc():
    """No collector pauses inside a timed phase: collect first, then freeze."""
    gc.collect()
    gc.freeze()
    try:
        yield
    finally:
        gc.unfreeze()


def _peak_rss_mb() -> float:
    kb = max(resource.getrusage(who).ru_maxrss
             for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    return kb / 1024.0


# ---------------------------------------------------------------------------
# input cache
# ---------------------------------------------------------------------------
def save_data(spec, data) -> None:
    import numpy as np

    os.makedirs(os.path.dirname(spec["data"]), exist_ok=True)
    tmp = spec["data"] + ".tmp.npz"
    np.savez(tmp, rows=data.rows, cols=data.cols, vals=data.vals,
             shape=np.array([data.m, data.n]))
    os.replace(tmp, spec["data"])


def load_data(spec):
    import numpy as np
    from repro.data.ratings import RatingMatrix

    with np.load(spec["data"]) as z:
        m, n = (int(x) for x in z["shape"])
        return RatingMatrix(m, n, z["rows"], z["cols"], z["vals"])


def seeded(data, seed):
    """This run's input: the pinned matrix, relabelled and reordered by ``seed``.

    User ids, item ids and the order of the ratings are permuted, so
    every seed gives different shards, mini-batches and factor
    initialisations for the same rating structure.  The structure itself
    is pinned because a freshly drawn matrix moves the RMSE curve, and
    with it the target crossing, by +-2 epochs (perf/README.md, "Seeds").
    """
    import numpy as np
    from repro.data.ratings import RatingMatrix

    rng = np.random.default_rng(seed)
    users, items = rng.permutation(data.m), rng.permutation(data.n)
    order = rng.permutation(data.nnz)
    return RatingMatrix(data.m, data.n, users[data.rows[order]],
                        items[data.cols[order]], data.vals[order])


# ---------------------------------------------------------------------------
# shared pipeline pieces
# ---------------------------------------------------------------------------
def _publish(store, ckpt, path, i, log=None, parent=None):
    """One publish: save_checkpoint + swap until the version advances.

    Returns ``(save_s, swap_s, ok)``; with a span log the publish is one
    trace with the save and the swap as children.
    """
    from repro.core.checkpoint import save_checkpoint

    before = store.version
    span = log.begin("publish", parent, f"publish-{i}") if log else None
    t0 = clock()
    save_checkpoint(ckpt, path)
    t1 = clock()
    result = store.swap(path)
    ok = result.ok and store.snapshot().version == before + 1
    t2 = clock()
    if log:
        log.end(span)
        log.add("core.checkpoint.save", t0, t1, span, f"publish-{i}")
        log.add("serving.store.swap", t1, t2, span, f"publish-{i}")
    return t1 - t0, t2 - t1, ok


class _Serving:
    """Everything the serve phase needs, built once from the published model."""

    def __init__(self, w, data, seed, store, trained, pub_path, alt_path):
        import numpy as np
        from repro.serving.scorer import Scorer

        from perf import serve

        self.w = w
        self.store = store
        self.scorer = Scorer(store, precision=w.precision)
        self.requests = serve.make_requests(data.m, w.batch, seed)
        self.candidates = (
            np.random.default_rng(seed).choice(data.n, size=w.candidates, replace=False)
            if w.candidates else None
        )
        self._alt_path = alt_path
        self._pub_path = pub_path
        self._by_path = {pub_path: trained}
        self._trained = trained
        self.swap_log: list[tuple] = []
        self._quantized: dict[int, tuple] = {}

    def window(self, cursor, seconds, exclude, sample_every):
        from perf import serve

        return serve.run_window(
            self.scorer, self.requests, cursor, seconds, workloads.TOP_K,
            exclude, self.candidates, sample_every,
        )

    @contextmanager
    def writing(self, interval):
        """Republish the trained model and a second one in rotation meanwhile.

        The second model is a fresh init — visibly different in both
        factors, so a torn ``(P, Q)`` pair matches neither version.
        ``interval`` 0 means this workload serves without a writer.
        """
        if not interval:
            yield
            return
        from repro.core.checkpoint import Checkpoint, save_checkpoint
        from repro.mf.model import MFModel

        from perf import serve

        if self._alt_path not in self._by_path:
            alt = MFModel.init(self._trained.m, self._trained.n, self.w.k,
                               seed=workloads.BACKEND_SEED + 1)
            save_checkpoint(Checkpoint(model=alt, epoch=0), self._alt_path)
            self._by_path[self._alt_path] = alt
        writer = serve.Writer(self.store, [self._alt_path, self._pub_path], interval)
        writer.start()
        try:
            yield
        finally:
            writer.stop()
            self.swap_log.extend(writer.log)

    def factors_for(self, version):
        """The (P, Q) a reply stamped ``version`` must have been scored with."""
        from repro.core.compression import compress_fp16, decompress_fp16

        # versions the writer did not produce came from a publish of the trained model
        path = next((p for *_t, ok, v, p in self.swap_log if ok and v == version), None)
        model = self._by_path.get(path, self._trained)
        if self.w.precision != "fp16":
            return model.P, model.Q
        key = id(model)
        if key not in self._quantized:
            self._quantized[key] = tuple(
                decompress_fp16(compress_fp16(a)) for a in (model.P, model.Q))
        return self._quantized[key]


def _sample_every(w, window, seconds_next) -> int:
    """Keep ~``oracle_per_window`` replies per window for the oracle."""
    expected = window.qps * seconds_next
    return max(1, int(expected / w.oracle_per_window))


# ---------------------------------------------------------------------------
# mode: pipeline, end-to-end pass
# ---------------------------------------------------------------------------
def headline_timings(w, proxy, history, publishes, windows):
    """The six headline timings from a run's stamps: ``(metrics, reached, epoch ends)``.

    Both passes report them through this one function, so a metric means
    the same whichever list of ``BENCHMARK.json`` names it.  Epoch ends
    are the ``evaluate`` returns counted from the first ``pull`` entry, so
    evaluation and any checkpoint write before the crossing are inside
    ``time_to_rmse_s``.
    """
    ends = [t - proxy.pull_entries[0] for t in proxy.eval_returns]
    crossing = interpolate_crossing(ends, history, w.target_rmse)
    med = statistics.median
    return {
        "time_to_rmse_s": crossing if crossing is not None else ends[-1],
        "epoch_s_p50": pair_half_median(proxy.epoch_durations()),
        "publish_s_p50": med(s + x for s, x, _ in publishes),
        "serve_latency_ms_p50": med(win.p_ms(50) for win in windows),
        "serve_latency_ms_p90": med(win.p_ms(90) for win in windows),
        "serve_qps": med(win.qps for win in windows),
    }, crossing is not None, ends


def run_end_to_end(spec, w) -> dict:
    import_s = _import_stack()
    from repro.core.checkpoint import Checkpoint
    from repro.serving.scorer import SeenIndex
    from repro.serving.store import ModelStore

    from perf import serve
    from perf.proxy import StampProxy

    data = seeded(load_data(spec), spec["seed"])
    cache = spec["cache"]
    deadline = T0 + spec["seconds"]   # the pass lasts --seconds from interpreter start

    t0 = clock()
    engine = workloads.build_engine(
        w, data, StampProxy, checkpoint_path=os.path.join(cache, "train-ckpt"))
    construct_s = clock() - t0
    proxy = engine.backend

    with quiet_gc():
        result = engine.run(w.epochs)
    history = result.rmse_history

    # publishes and serving windows alternate, so both sample the whole
    # stretch of host states instead of one contiguous slice each
    store = ModelStore()
    paths = [os.path.join(cache, f"pub-{i}") for i in (0, 1)]
    ckpt = Checkpoint(model=result.model, epoch=w.epochs, rmse_history=list(history))
    publishes, windows = [], []

    def publish():
        with quiet_gc():
            publishes.append(_publish(store, ckpt, paths[len(publishes) % 2], len(publishes)))

    publish()
    t0 = clock()
    seen = SeenIndex.from_ratings(data)
    seen_s = clock() - t0
    pieces = {"import_s": import_s, "construct_s": construct_s,
              "open_to_first_pull_s": proxy.first_pull_return - proxy.open_entry,
              "first_swap_s": publishes[0][1], "seen_index_s": seen_s}

    srv = _Serving(w, data, spec["seed"], store, result.model, paths[0],
                   os.path.join(cache, "alt"))
    exclude = seen if w.exclude_seen else None
    with quiet_gc():
        warm = srv.window(0, w.warmup_window_s, exclude, 10**9)   # discarded
    # training and publishing are fixed work; the windows share what is
    # left of --seconds, and never drop under the workload's floor
    reserve = (w.publishes - 1) * sum(publishes[0][:2])
    window_s = max(w.min_window_s, (deadline - clock() - reserve) / w.serve_windows)
    every = _sample_every(w, warm, window_s)
    cursor = warm.sent
    for i in range(max(w.serve_windows, w.publishes - 1)):
        if i < w.serve_windows:
            with quiet_gc(), srv.writing(w.swap_interval_s):
                win = srv.window(cursor, window_s, exclude, every)
            cursor += win.sent
            windows.append(win)
        if i + 1 < w.publishes:
            publish()
    pass_s = clock() - T0
    peak_rss = _peak_rss_mb()   # before the oracle allocates its own copies
    swap_log = srv.swap_log

    timings, reached, epoch_ends = headline_timings(w, proxy, history, publishes, windows)
    checked, mismatches = serve.check_samples(
        windows, srv.factors_for, srv.requests, workloads.TOP_K, exclude, srv.candidates)
    monotone = serve.versions_monotone([warm, *windows])

    requests_ok = sum(len(win.latencies) for win in windows)
    request_errors = sum(len(win.errors) for win in windows)
    swaps_failed = sum(1 for entry in swap_log if not entry[2])
    publish_failed = sum(1 for *_s, ok in publishes if not ok)
    checks = {
        "rmse_finite": all(math.isfinite(r) for r in history),
        "target_reached": reached,
        "versions_monotone": monotone,
    }
    attempted = (w.epochs + len(checks) + w.publishes + len(swap_log)
                 + requests_ok + request_errors + checked)
    failed = (sum(1 for ok in checks.values() if not ok) + publish_failed
              + swaps_failed + request_errors + mismatches)

    return {
        "metrics": {"setup_s": sum(pieces.values()), "rmse_final": history[-1],
                    "peak_rss_mb": peak_rss, **timings},
        "attempted": attempted,
        "failed": failed,
        "checks": checks,
        "errors": [e for win in windows for e in win.errors][:3],
        "notes": {
            **pieces,
            "pass_s": pass_s,
            "train_wall_s": proxy.eval_returns[-1] - proxy.pull_entries[0],
            "window_s": window_s, "requests": requests_ok,
            "requests_per_window": [len(win.latencies) for win in windows],
            "oracle_checked": checked, "oracle_mismatches": mismatches,
            "swaps": len(swap_log), "publishes": w.publishes,
            "child_wall_s": clock() - T0,
            "series": {
                "rmse": history, "epoch_s": proxy.epoch_durations(),
                "epoch_end_s": epoch_ends,
                "publish_s": [s + x for s, x, _ in publishes],
                "window_p50_ms": [win.p_ms(50) for win in windows],
                "window_p90_ms": [win.p_ms(90) for win in windows],
                "window_qps": [win.qps for win in windows],
            },
        },
    }


# ---------------------------------------------------------------------------
# mode: pipeline, traced pass
# ---------------------------------------------------------------------------
@contextmanager
def _traced_checkpoint_writes(log, proxy):
    """Span every ``save_checkpoint`` the engine issues during the run.

    The engine looks the function up on its module at call time, so the
    wrapper is installed there for the traced run only and removed after.
    """
    import repro.core.checkpoint as module

    original = module.save_checkpoint

    def traced(ckpt, path):
        trace = log.rows[proxy.epoch_span][4] if proxy.epoch_span is not None else None
        with log.span("core.checkpoint.save", proxy.epoch_span, trace):
            return original(ckpt, path)

    module.save_checkpoint = traced
    try:
        yield
    finally:
        module.save_checkpoint = original


def _union_length(intervals) -> float:
    total, reach = 0.0, None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def _stage_rows(log, proxy, name):
    """The span rows of one backend stage, one per epoch, in epoch order."""
    return [r for r in log.rows
            if r[0] == f"engine.backends.{name}" and r[3] in proxy.epoch_spans]


def _epoch_layers(log, proxy, timeline, epochs):
    """Worker-level metrics and per-epoch shares from the traced training run."""
    from repro.hardware.timeline import Phase

    rows = log.rows
    stage = {name: _stage_rows(log, proxy, name) for name in ("pull", "sync", "evaluate")}
    saves = {r[4]: r for r in rows
             if r[0] == "core.checkpoint.save" and r[3] in proxy.epoch_spans}

    # telemetry spans count from the backend's own origin: line them up
    # on the proxy's clock via the server SYNC spans both sides recorded
    first_sync = {}
    for s in timeline.spans:
        if s.worker == "server" and s.phase is Phase.SYNC:
            first_sync.setdefault(s.epoch, s.start)
    offset = statistics.median(
        stage["sync"][e][1] - first_sync[e] for e in range(epochs) if e in first_sync)
    workers = [s for s in timeline.spans if s.worker != "server"]
    names = sorted({s.worker for s in workers})

    steady = range(min(WARMUP_EPOCHS, epochs - 1), epochs)
    pulls, computes, pushes, waits, imbalance = [], [], [], [], []
    shares = {"kernel": [], "channel_sync": [], "checkpoint": [], "evaluate": []}
    for e in steady:
        mine = [s for s in workers if s.epoch == e]
        by = {(s.worker, s.phase): s for s in mine if s.phase is not Phase.BARRIER}
        epoch_compute = []
        for name in names:
            pull, comp, push = (by.get((name, ph)) for ph in
                                (Phase.PULL, Phase.COMPUTE, Phase.PUSH))
            if not (pull and comp and push):
                continue
            pulls.append(pull.duration)
            computes.append(comp.duration)
            pushes.append(push.duration)
            epoch_compute.append(comp.duration)
            barrier = [s.duration for s in mine
                       if s.worker == name and s.phase is Phase.BARRIER]
            # no barrier on the sim plane: a worker idles from the end
            # of its compute until its push is driven
            waits.append(sum(barrier) if barrier else push.start - comp.end)
            log.add(f"worker.{name}.pull", pull.start + offset, pull.end + offset,
                    proxy.epoch_spans[e], f"epoch-{e}")
            log.add(f"worker.{name}.compute", comp.start + offset, comp.end + offset,
                    proxy.epoch_spans[e], f"epoch-{e}")
            log.add(f"worker.{name}.push", push.start + offset, push.end + offset,
                    proxy.epoch_spans[e], f"epoch-{e}")
        if epoch_compute:
            imbalance.append(max(epoch_compute) / statistics.mean(epoch_compute))
        span = rows[proxy.epoch_spans[e]]
        wall = span[2] - span[1]
        shares["kernel"].append(_union_length(
            (s.start, s.end) for s in mine if s.phase is Phase.COMPUTE) / wall)
        channel = [(s.start + offset, s.end + offset) for s in mine
                   if s.phase in (Phase.PULL, Phase.PUSH)]
        channel += [(stage[n][e][1], stage[n][e][2]) for n in ("pull", "sync")]
        shares["channel_sync"].append(_union_length(channel) / wall)
        save = saves.get(f"epoch-{e}")
        shares["checkpoint"].append((save[2] - save[1]) / wall if save else 0.0)
        ev = stage["evaluate"][e]
        shares["evaluate"].append((ev[2] - ev[1]) / wall)

    med = statistics.median
    out = {
        "worker.pull_s_p50": med(pulls),
        "worker.compute_s_p50": med(computes),
        "worker.push_s_p50": med(pushes),
        "worker.barrier_wait_s_p50": med(waits),
        "worker.imbalance_ratio": med(imbalance),
    }
    out.update({f"share.{k}": med(v) for k, v in shares.items()})
    return out


def run_traced(spec, w) -> dict:
    import_s = _import_stack()
    from repro.core.checkpoint import Checkpoint
    from repro.obs import Telemetry
    from repro.serving.scorer import SeenIndex
    from repro.serving.store import ModelStore

    from perf import probes, serve
    from perf.proxy import StampProxy, TraceProxy
    from perf.spans import SpanLog

    cache = spec["cache"]
    epochs = w.traced_epochs
    log = SpanLog()
    root = log.add("run", T0, T0, None, "run")   # end patched at exit
    log.add("import", T0, T0 + import_s, root, "setup")
    m: dict[str, float] = {}

    with log.span("data.generate", root, "setup") as sid:
        data = workloads.generate(w)
    m["data.generate_s"] = log.rows[sid][2] - log.rows[sid][1]
    if not os.path.exists(spec["data"]):
        save_data(spec, data)
    data = seeded(data, spec["seed"])
    ckpt_path = os.path.join(cache, "train-ckpt")

    # reference: the end-to-end pass's training, untraced — the base of
    # obs.trace_overhead_pct and of the headline timings this pass reports
    ref_engine = workloads.build_engine(w, data, StampProxy, checkpoint_path=ckpt_path)
    with log.span("train[untraced]", root, "reference"), quiet_gc():
        ref = ref_engine.run(w.epochs)
    ref_epoch_s = pair_half_median(ref_engine.backend.epoch_durations())

    telemetry = Telemetry()
    engine = workloads.build_engine(
        w, data, lambda b: TraceProxy(b, log),
        telemetry=telemetry, checkpoint_path=ckpt_path)
    proxy = engine.backend
    with log.span("engine.pipeline.run", root, "train") as run_span:
        proxy.run_span = run_span
        with _traced_checkpoint_writes(log, proxy), quiet_gc():
            result = engine.run(epochs)

    def steady(name):
        durs = [r[2] - r[1] for r in _stage_rows(log, proxy, name)]
        return statistics.median(durs[min(WARMUP_EPOCHS, len(durs) - 1):])

    epoch_durs = [s[2] - p[1] for p, s in zip(_stage_rows(log, proxy, "pull"),
                                              _stage_rows(log, proxy, "sync"))]
    traced_epoch_s = pair_half_median(epoch_durs)
    selfs = log.self_times()
    m.update({
        "engine.backends.open_s": log.durations("engine.backends.open")[0],
        "engine.backends.close_s": log.durations("engine.backends.close")[0],
        "engine.backends.first_epoch_excess_s": epoch_durs[0] - traced_epoch_s,
        "engine.backends.pull_s_p50": steady("pull"),
        "engine.backends.push_s_p50": steady("push"),
        "engine.backends.sync_s_p50": steady("sync"),
        "engine.backends.evaluate_s_p50": steady("evaluate"),
        "engine.pipeline.self_s_per_epoch":
            (selfs[run_span] + sum(selfs[e] for e in proxy.epoch_spans)) / epochs,
        "obs.trace_overhead_pct": 100.0 * (traced_epoch_s - ref_epoch_s) / ref_epoch_s,
    })
    details = {(e, s): d for e, s, d in proxy.details}
    last = epochs - 1
    m["engine.channels.wire_bytes_per_epoch"] = float(
        details[(last, "pull")]["wire_bytes"] + details[(last, "push")]["wire_bytes"])
    m["engine.backends.merged_values"] = float(details[(last, "sync")]["merged_values"])
    m["engine.backends.updates_per_epoch"] = float(sum(details[(last, "compute")]["updates"]))
    m.update(_epoch_layers(log, proxy, telemetry.timeline, epochs))

    # publish
    store = ModelStore()
    paths = [os.path.join(cache, f"pub-{i}") for i in (0, 1)]
    ckpt = Checkpoint(model=result.model, epoch=epochs,
                      rmse_history=list(result.rmse_history))
    with quiet_gc():
        publishes = [_publish(store, ckpt, paths[i % 2], i, log, root)
                     for i in range(w.traced_publishes)]
    last_pub = paths[(w.traced_publishes - 1) % 2]
    m["core.checkpoint.save_s_p50"] = statistics.median(s for s, _, _ in publishes)
    m["serving.store.swap_s_p50"] = statistics.median(x for _, x, _ in publishes)
    m["core.checkpoint.load_s_p50"] = probes.checkpoint_load(last_pub, log, root)
    with log.span("serving.seen_index.build", root, "setup") as sid:
        seen = SeenIndex.from_ratings(data)
    m["serving.seen_index.build_s"] = log.rows[sid][2] - log.rows[sid][1]

    # serve: one idle window, one with the writer swapping underneath
    srv = _Serving(w, data, spec["seed"], store, result.model, last_pub,
                   os.path.join(cache, "alt"))
    exclude = seen if w.exclude_seen else None
    with quiet_gc():
        warm = srv.window(0, w.warmup_window_s, exclude, 10**9)
        every = _sample_every(w, warm, w.traced_window_s)
        idle = srv.window(warm.sent, w.traced_window_s, exclude, every)
        with srv.writing(w.swap_interval_s or w.traced_window_s / 4):
            swapping = srv.window(warm.sent + idle.sent, w.traced_window_s, exclude, every)
    swap_log = srv.swap_log
    windows = [idle, swapping]
    n = 0
    for win in windows:
        for start, lat in zip(win.starts, win.latencies):
            log.add("serving.scorer.top_k", start, start + lat, root, f"req-{n}")
            n += 1
    for i, (t0, t1, *_rest) in enumerate(swap_log):
        log.add("serving.store.swap", t0, t1, root, f"swap-{i}")
    idle_lats, during_lats = serve.split_by_swap(windows, swap_log)
    checked, mismatches = serve.check_samples(
        windows, srv.factors_for, srv.requests, workloads.TOP_K, exclude, srv.candidates)
    request_errors = sum(len(win.errors) for win in windows)
    requests_ok = sum(len(win.latencies) for win in windows)
    swaps_ok = (sum(1 for *_s, ok in publishes if ok)
                + sum(1 for entry in swap_log if entry[2]))
    swaps_sent = len(publishes) + len(swap_log)
    m.update({
        "serving.scorer.topk_ms_p50": idle.p_ms(50),
        "serving.scorer.topk_ms_p99": idle.p_ms(99),
        "serving.reads_idle_ms_p50": 1e3 * percentile(idle_lats, 50),
        # a swap window too short to overlap any read reports the idle figure
        "serving.reads_during_swap_ms_p50":
            1e3 * percentile(during_lats or idle_lats, 50),
        "requests_sent": float(requests_ok + request_errors),
        "requests_ok": float(requests_ok),
        "requests_failed": float(request_errors + mismatches),
        "swaps_sent": float(swaps_sent),
        "swaps_ok": float(swaps_ok),
        "swaps_failed": float(swaps_sent - swaps_ok),
        "versions_seen": float(len({v for win in windows for v in win.versions})),
    })

    # micro-probes on this workload's arrays
    with log.span("probes", root, "probe") as probe_span:
        m.update(probes.training_layers(w, data, result.model, log, probe_span))
        m.update(probes.serving_layers(
            w, srv.scorer, srv.requests, seen, srv.candidates, log, probe_span))

    log.rows[root][2] = clock()
    log.write(os.path.join(os.path.dirname(spec["out"]), "spans.jsonl"), origin=T0)

    # the headline timings over this pass's own (shorter) run: the serving
    # window is the one that matches the workload's load model
    timings, reached, _ends = headline_timings(
        w, ref_engine.backend, ref.rmse_history, publishes,
        [swapping if w.swap_interval_s else idle])
    m.update(timings)
    checks = {
        "rmse_finite": all(math.isfinite(r) for r in ref.rmse_history + result.rmse_history),
        "target_reached": reached,
        "versions_monotone": serve.versions_monotone([warm, *windows]),
        "no_spans_dropped": telemetry.dropped_spans == 0,
    }
    attempted = (w.epochs + epochs + len(checks) + swaps_sent + requests_ok
                 + request_errors + checked)
    failed = (sum(1 for ok in checks.values() if not ok) + (swaps_sent - swaps_ok)
              + request_errors + mismatches)
    m["failed_share"] = failed / attempted
    return {
        "metrics": m, "attempted": attempted, "failed": failed, "checks": checks,
        "errors": [e for win in windows for e in win.errors][:3],
        "notes": {"spans": len(log.rows), "oracle_checked": checked,
                  "ref_epoch_s": ref_epoch_s, "traced_epoch_s": traced_epoch_s,
                  "child_wall_s": clock() - T0},
    }


# ---------------------------------------------------------------------------
def run_gen(spec, w) -> dict:
    data = workloads.generate(w)
    save_data(spec, data)
    return {"nnz": data.nnz}


def main(argv) -> int:
    spec = json.loads(argv[1])
    w = workloads.get(spec["workload"], spec["scale"])
    if spec["mode"] == "gen":
        result = run_gen(spec, w)
    elif spec["trace"]:
        result = run_traced(spec, w)
    else:
        result = run_end_to_end(spec, w)
    # numpy is only ever loaded here, so the children report its build
    from repro.obs.bench import host_fingerprint

    result["numpy"] = {k: host_fingerprint()[k] for k in ("numpy", "blas")}
    tmp = spec["out"] + ".tmp"
    with open(tmp, "w") as fh:
        json.dump(result, fh)
    os.replace(tmp, spec["out"])
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
