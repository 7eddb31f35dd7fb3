#!/usr/bin/env python3
"""Replay a benchmark workload's training and print ``ru_maxrss`` per phase.

Run from the repository root, after any ``python3 -m perf run`` of that
workload has filled ``perf/.cache/``:

    python3 scripts/rss_phases.py proc_tall_compute [epochs]

``ru_maxrss`` (max of this process and its reaped workers) only rises,
so the first phase that shows a jump is the one that allocated it; the
table in docs/engine.md, "Memory on the epoch path", was read off this.
"""

import resource
import sys

sys.path[:0] = [".", "src"]

from perf import child, workloads  # noqa: E402

STAGES = ("open", "pull", "compute", "push", "sync", "evaluate", "finalize", "close")


def rss_mb() -> float:
    return max(
        resource.getrusage(who).ru_maxrss
        for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)
    ) / 1024


class RssProxy:
    """Pass-through backend proxy (as perf/proxy.py) that marks each stage return."""

    def __init__(self, backend):
        self.__dict__.update(backend=backend, marks={})

    def __getattr__(self, name):
        attr = getattr(self.backend, name)
        if name not in STAGES:
            return attr

        def call(*args, **kwargs):
            out = attr(*args, **kwargs)
            self.marks.setdefault(name, []).append(rss_mb())
            return out

        return call

    def __setattr__(self, name, value):
        setattr(self.backend, name, value)


def main(argv: list[str]) -> None:
    w = workloads.get(argv[0])
    epochs = int(argv[1]) if len(argv) > 1 else 3
    data = child.seeded(
        child.load_data({"data": f"perf/.cache/{w.name}/data.npz"}), 0
    )
    print(f"{w.name}: data loaded {rss_mb():.1f} MB")
    engine = workloads.build_engine(
        w, data, RssProxy, checkpoint_path=f"perf/.cache/{w.name}/rss_phases.ckpt"
    )
    engine.run(epochs)
    for stage in STAGES:
        marks = engine.backend.marks[stage]
        print(f"  after {stage:9s} first {marks[0]:6.1f}  last {marks[-1]:6.1f} MB")


if __name__ == "__main__":  # spawned workers re-import this file
    main(sys.argv[1:])
