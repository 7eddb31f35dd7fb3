#!/usr/bin/env python
"""Regenerate EXPERIMENTS.md: paper-vs-measured for every table & figure.

Run from anywhere; the script rewrites the repository's EXPERIMENTS.md
in place:

    python scripts/generate_experiments_md.py

The sections come from :func:`repro.experiments.report.build_markdown_report`;
the hand-written "Wall-clock notes" at the end of the current file are
kept byte for byte (:func:`repro.experiments.report.with_notes`).
"""

from pathlib import Path

from repro.experiments.report import build_markdown_report, with_notes

TARGET = Path(__file__).resolve().parent.parent / "EXPERIMENTS.md"


def main() -> None:
    generated = build_markdown_report()
    current = TARGET.read_bytes().decode("utf-8") if TARGET.exists() else ""
    TARGET.write_bytes(with_notes(generated, current).encode("utf-8"))


if __name__ == "__main__":
    main()
