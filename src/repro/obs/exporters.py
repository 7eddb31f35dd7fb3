"""Render a :class:`MetricsRegistry` as JSONL and read it back.

One structured event per line, followed by one line per metric sample.
Greppable, diffable, replayable; the format ``repro train --metrics``
writes and the ``repro obs-report`` command reads back.
"""

from __future__ import annotations

import json
import os
from typing import Iterator

from repro.obs.registry import MetricsRegistry


def jsonl_lines(registry: MetricsRegistry) -> Iterator[str]:
    """Events first (in order), then every metric sample."""
    for event in registry.events:
        yield json.dumps({"type": "event", **event}, sort_keys=False)
    for sample in registry.samples():
        yield json.dumps(
            {
                "type": "sample",
                "name": sample.name,
                "labels": sample.labels_dict(),
                "value": sample.value,
            }
        )


def write_metrics_jsonl(registry: MetricsRegistry, path: str | os.PathLike) -> int:
    """Write the JSONL stream; returns the line count."""
    n = 0
    with open(path, "w") as fh:
        for line in jsonl_lines(registry):
            fh.write(line + "\n")
            n += 1
    return n


def read_metrics_jsonl(path: str | os.PathLike) -> tuple[list[dict], list[dict]]:
    """Parse a JSONL stream back into ``(events, samples)`` dicts."""
    events: list[dict] = []
    samples: list[dict] = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            record = json.loads(line)
            if record.get("type") == "event":
                events.append(record)
            else:
                samples.append(record)
    return events, samples

