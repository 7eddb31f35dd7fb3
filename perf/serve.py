"""Serving load: one closed-loop client, an optional writer, the oracle.

``Scorer`` is an in-process library whose callers wait for the reply,
so the load is a closed loop: the single client thread sends its next
``top_k`` batch only after the previous one returned.  The writer
thread (``ckpt_swap_serve``, and every workload's traced swap window)
republishes two alternating checkpoints while the client reads.

Correctness is checked outside the timed loop: sampled replies are
re-derived by a brute-force ``lexsort`` over the factors of the version
each reply claims, which also catches a torn ``(P, Q)`` pair.
"""

from __future__ import annotations

import threading
import time
import traceback
from dataclasses import dataclass, field

import numpy as np

from perf.stats import percentile


@dataclass
class Window:
    """One timed serving window (latencies in seconds)."""

    starts: list[float] = field(default_factory=list)
    latencies: list[float] = field(default_factory=list)
    versions: list[int] = field(default_factory=list)
    samples: list[tuple[int, object]] = field(default_factory=list)
    errors: list[str] = field(default_factory=list)
    elapsed: float = 0.0

    @property
    def sent(self) -> int:
        return len(self.latencies) + len(self.errors)

    def p_ms(self, q: float) -> float:
        return 1e3 * percentile(self.latencies, q)

    @property
    def qps(self) -> float:
        return len(self.latencies) / self.elapsed


def make_requests(m: int, batch: int, seed: int, count: int = 4096) -> np.ndarray:
    """The seeded request stream: ``count`` batches of user ids, replayed in a ring."""
    return np.random.default_rng(seed).integers(0, m, size=(count, batch))


def run_window(scorer, requests, cursor: int, seconds: float, top_k: int,
               exclude, candidates, sample_every: int) -> Window:
    """Closed loop for ``seconds``; request ``i`` is ``requests[i % len]``."""
    win = Window()
    call = scorer.top_k
    clock = time.perf_counter
    ring = len(requests)
    i = cursor
    t0 = clock()
    deadline = t0 + seconds
    while True:
        users = requests[i % ring]
        a = clock()
        try:
            reply = call(users, top_k, exclude=exclude, candidates=candidates)
        except Exception:  # a failed request is a counted outcome, not a crash
            win.errors.append(traceback.format_exc(limit=3))
            b = clock()
        else:
            b = clock()
            win.starts.append(a)
            win.latencies.append(b - a)
            win.versions.append(reply.version)
            if i % sample_every == 0:
                win.samples.append((i, reply))
        i += 1
        if b >= deadline:
            break
    win.elapsed = b - t0
    return win


class Writer(threading.Thread):
    """Republish ``paths`` in rotation every ``interval`` seconds until stopped."""

    def __init__(self, store, paths, interval: float):
        super().__init__(name="perf-writer", daemon=True)
        self.store = store
        self.paths = list(paths)
        self.interval = interval
        self._halt = threading.Event()
        #: (start, end, ok, version now serving, path) per swap
        self.log: list[tuple[float, float, bool, int, str]] = []

    def run(self) -> None:
        i = 0
        while not self._halt.wait(self.interval):
            path = self.paths[i % len(self.paths)]
            t0 = time.perf_counter()
            result = self.store.swap(path)
            self.log.append((t0, time.perf_counter(), result.ok, result.version, path))
            i += 1

    def stop(self) -> None:
        self._halt.set()
        self.join(timeout=30.0)
        if self.is_alive():
            raise RuntimeError("writer thread did not stop within 30 s")


# ---------------------------------------------------------------------------
# oracle
# ---------------------------------------------------------------------------
def oracle_top_k(P, Q, users, top_k: int, seen_index, candidates):
    """Brute force: full ``lexsort((item, -score))`` per user, then truncate."""
    cand = None if candidates is None else np.unique(np.asarray(candidates))
    scores = P[users] @ (Q if cand is None else Q[:, cand])
    out = []
    for row, user in zip(scores, users):
        ids = np.arange(row.size) if cand is None else cand
        keep = np.ones(row.size, dtype=bool)
        if seen_index is not None:
            keep &= ~np.isin(ids, seen_index.items_for(int(user)))
        idx = np.flatnonzero(keep)
        order = idx[np.lexsort((ids[idx], -row[idx]))][:top_k]
        out.append((ids[order], row[order]))
    return out


def check_samples(windows, factors_for, requests, top_k, seen_index, candidates):
    """Replay sampled replies against the oracle: ``(checked, mismatches)``.

    ``factors_for(version)`` returns the ``(P, Q)`` the reply's version
    must have been scored with; a reply mixing two versions' factors
    matches neither and is counted as a mismatch.
    """
    checked = 0
    mismatches = 0
    for win in windows:
        for i, reply in win.samples:
            P, Q = factors_for(reply.version)
            users = requests[i % len(requests)]
            expected = oracle_top_k(P, Q, users, top_k, seen_index, candidates)
            ok = all(
                np.array_equal(items, got_items) and np.array_equal(scores, got_scores)
                for (items, scores), got_items, got_scores
                in zip(expected, reply.items, reply.scores)
            )
            checked += 1
            mismatches += 0 if ok else 1
    return checked, mismatches


def versions_monotone(windows) -> bool:
    seen = [v for win in windows for v in win.versions]
    return all(a <= b for a, b in zip(seen, seen[1:]))


def split_by_swap(windows, swap_log):
    """Latencies of requests that overlapped a swap, and of those that did not."""
    intervals = [(t0, t1) for t0, t1, *_ in swap_log]
    idle, during = [], []
    for win in windows:
        for start, lat in zip(win.starts, win.latencies):
            end = start + lat
            hit = any(start < t1 and end > t0 for t0, t1 in intervals)
            (during if hit else idle).append(lat)
    return idle, during
