#!/usr/bin/env python3
"""Replay a benchmark workload's whole pass and print resident memory per phase.

Run from the repository root, after any ``python3 -m perf run`` of that
workload has filled ``perf/.cache/``:

    python3 scripts/rss_phases.py proc_wide_sync [epochs] [window_s]

The phases are the end-to-end pass's own (``perf/child.py``): load the
data, train (every backend stage of every epoch), then the workload's
publishes alternating with its serving windows, the writer thread
swapping underneath where the workload has one.  For each phase it
prints the server process's high-water mark *inside* that phase —
``VmHWM``, reset through ``/proc/self/clear_refs`` after every phase —
and what is resident at its end, split into anonymous (heap: private
copies), file-backed (mapped checkpoints, libraries) and shared memory
(wires and shards).  Where the kernel refuses the reset the peaks fall
back to the monotone ``ru_maxrss`` and the first phase that shows a jump
is the one that allocated it.  The workers' high-water is their
``ru_maxrss`` once they are reaped, at ``close``.

The two lines at the end are the two halves ``peak_rss_mb`` is the max
of; the "Measured" table in docs/engine.md, "Memory on the epoch path",
was read off them.
"""

import resource
import sys

sys.path[:0] = [".", "src"]

from perf import child, workloads  # noqa: E402

STAGES = ("open", "pull", "compute", "push", "sync", "evaluate", "finalize", "close")
KINDS = ("RssAnon", "RssFile", "RssShmem")


class Meter:
    """Per-phase high-water of this process, and what is resident, in MB."""

    def __init__(self):
        self.rows: list[tuple[str, float, tuple[float, ...]]] = []
        self.resets = self._reset()

    @staticmethod
    def _reset() -> bool:
        try:
            with open("/proc/self/clear_refs", "w") as fh:
                fh.write("5")       # VmHWM := the current resident set
            return True
        except OSError:
            return False

    def mark(self, phase: str) -> None:
        with open("/proc/self/status") as fh:
            kb = {key: int(rest.split()[0]) for key, rest in
                  (line.split(":", 1) for line in fh) if key in (*KINDS, "VmHWM")}
        peak = kb["VmHWM"] if self.resets else resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss
        self.rows.append((phase, peak / 1024, tuple(kb[k] / 1024 for k in KINDS)))
        self._reset()

    def peak(self, phases) -> float:
        return max(peak for phase, peak, _ in self.rows if phase in phases)

    def report(self) -> None:
        print(f"  {'phase':13s} {'n':>3s} {'first':>7s} {'max':>7s}   "
              f"{'anon':>6s} {'file':>6s} {'shmem':>6s}   (MB; resident at the last end)")
        for phase in dict.fromkeys(phase for phase, *_ in self.rows):
            rows = [r for r in self.rows if r[0] == phase]
            anon, file, shmem = rows[-1][2]
            print(f"  {phase:13s} {len(rows):3d} {rows[0][1]:7.1f} "
                  f"{max(r[1] for r in rows):7.1f}   {anon:6.1f} {file:6.1f} {shmem:6.1f}")


class RssProxy:
    """Pass-through backend proxy (as perf/proxy.py) that marks each stage return."""

    def __init__(self, backend, meter):
        self.__dict__.update(backend=backend, meter=meter)

    def __getattr__(self, name):
        attr = getattr(self.backend, name)
        if name not in STAGES:
            return attr

        def call(*args, **kwargs):
            out = attr(*args, **kwargs)
            self.meter.mark(name)
            return out

        return call

    def __setattr__(self, name, value):
        setattr(self.backend, name, value)


def main(argv: list[str]) -> None:
    from repro.core.checkpoint import Checkpoint
    from repro.serving.scorer import SeenIndex
    from repro.serving.store import ModelStore

    w = workloads.get(argv[0])
    epochs = int(argv[1]) if len(argv) > 1 else 3
    window_s = float(argv[2]) if len(argv) > 2 else 1.0
    cache = f"perf/.cache/{w.name}"
    meter = Meter()
    print(f"{w.name}: {epochs} epochs, {w.publishes} publishes, "
          f"{w.serve_windows} windows of {window_s:g} s; per-phase peaks "
          + ("are VmHWM, reset after every phase" if meter.resets else
             "are the monotone ru_maxrss (clear_refs refused)"))

    data = child.seeded(child.load_data({"data": f"{cache}/data.npz"}), 0)
    meter.mark("data loaded")
    engine = workloads.build_engine(
        w, data, lambda b: RssProxy(b, meter),
        checkpoint_path=f"{cache}/rss-train",
    )
    result = engine.run(epochs)
    workers_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024

    # publishes and serving windows alternate, as in child.run_end_to_end
    store = ModelStore()
    paths = [f"{cache}/rss-pub-{i}" for i in (0, 1)]
    ckpt = Checkpoint(model=result.model, epoch=epochs,
                      rmse_history=list(result.rmse_history))
    published = 0

    def publish():
        nonlocal published
        *_, ok = child._publish(store, ckpt, paths[published % 2], published)
        if not ok:
            raise SystemExit(f"publish {published} failed")
        published += 1
        meter.mark("publish")

    publish()
    seen = SeenIndex.from_ratings(data)
    meter.mark("seen index")
    srv = child._Serving(w, data, 0, store, result.model, paths[0],
                         f"{cache}/rss-alt")
    exclude = seen if w.exclude_seen else None
    cursor = srv.window(0, w.warmup_window_s, exclude, 10**9).sent
    meter.mark("serve")
    for i in range(max(w.serve_windows, w.publishes - 1)):
        if i < w.serve_windows:
            with srv.writing(w.swap_interval_s):
                cursor += srv.window(cursor, window_s, exclude, 10**9).sent
            meter.mark("serve")
        if i + 1 < w.publishes:
            publish()

    meter.report()
    server_mb = meter.peak(STAGES)
    print(f"  training high-water      {max(server_mb, workers_mb):6.1f} MB "
          f"(server {server_mb:.1f}, workers {workers_mb:.1f})")
    print(f"  publish/serve high-water {meter.peak({'publish', 'seen index', 'serve'}):6.1f} MB")


if __name__ == "__main__":  # spawned workers re-import this file
    main(sys.argv[1:])
