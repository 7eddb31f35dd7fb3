"""``python -m perf``: the benchmark's command line (parent process).

``run`` executes one (workload, pass) — or all of them — each in fresh
child interpreters, prints every metric by name and unit, checks the
outputs and ends with one JSON line (the driver contract in
``BENCHMARK.json``).  ``selfcheck`` is the A/A test: two interleaved
sets of end-to-end runs of the same code must agree within each
metric's bound.

This process never imports numpy or ``repro``: environment pinning has
to be in place before numpy loads, and a fresh interpreter's import
cost belongs to ``setup_s``, so both live in :mod:`perf.child`.
"""

from __future__ import annotations

import argparse
import compileall
import functools
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

from perf import workloads
from perf.stats import iqr_spread, range_spread

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PERF = os.path.join(ROOT, "perf")
SRC = os.path.join(ROOT, "src")

#: a child that exceeds this is killed; the driver allows 180 s per run
CHILD_TIMEOUT_S = 150

#: environment pinned in every child before numpy is imported there.
#: NUMPY_MADVISE_HUGEPAGE=0: with transparent huge pages on ``madvise``
#: numpy's large temporaries trigger page compaction stalls of 0.5-1.3 s
#: at random epochs (perf/README.md, sizing fact 2)
PINNED_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMPY_MADVISE_HUGEPAGE": "0",
    "PYTHONHASHSEED": "0",
}


class BenchmarkError(RuntimeError):
    """The benchmark could not run (as opposed to: ran and failed a check)."""


def load_contract() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def _child_env() -> dict:
    env = dict(os.environ)
    env.update(PINNED_ENV)
    extra = env.get("PYTHONPATH")
    env["PYTHONPATH"] = os.pathsep.join([ROOT, SRC] + ([extra] if extra else []))
    return env


def _run_child(spec: dict) -> dict:
    """Run :mod:`perf.child` on ``spec`` to completion and return its result."""
    if os.path.exists(spec["out"]):
        os.remove(spec["out"])
    # its own session, so that a child that has to be killed takes its
    # worker processes with it
    proc = subprocess.Popen(
        [sys.executable, "-m", "perf.child", json.dumps(spec)],
        cwd=ROOT, env=_child_env(), start_new_session=True,
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
    )
    try:
        output, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        output, _ = proc.communicate()
        raise BenchmarkError(
            f"{spec['mode']} child exceeded {CHILD_TIMEOUT_S} s:\n{output}") from None
    if proc.returncode != 0 or not os.path.exists(spec["out"]):
        raise BenchmarkError(
            f"{spec['mode']} child failed (exit {proc.returncode}):\n{output}")
    with open(spec["out"]) as fh:
        return json.load(fh)


@functools.cache
def host_fingerprint() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"], cwd=ROOT, timeout=10,
            capture_output=True, text=True).stdout.strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        sha = "unknown"
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "git_sha": sha, "pinned_env": PINNED_ENV}


def _check_threads(w) -> None:
    nproc = os.cpu_count() or 1
    need = max(w.threads_training, w.threads_serving)
    if need > nproc:
        raise BenchmarkError(
            f"{w.name} needs {need} runnable threads (workers or clients) but this "
            f"host has nproc={nproc}; refusing to measure an oversubscribed run")


def _precompile() -> None:
    # first run in a fresh checkout: keep bytecode compilation out of setup_s
    for path in (os.path.join(SRC, "repro"), PERF):
        compileall.compile_dir(path, quiet=2, workers=1)


def run_pass(name: str, seed: int, seconds: "int | None", trace: int,
             scale: str = "full") -> "tuple[dict, dict]":
    """One (workload, pass): the driver-contract result, and all it measured."""
    w = workloads.get(name, scale)
    _check_threads(w)
    contract = load_contract()
    suffix = "" if scale == "full" else f"-{scale}"
    # the pinned rating matrix is cached per workload; checkpoints are
    # this run's outputs and live in a per-(workload, seed) scratch dir
    data_path = os.path.join(PERF, ".cache", f"{name}{suffix}", "data.npz")
    scratch = os.path.join(PERF, ".cache", f"{name}-{seed}{suffix}")
    out_dir = os.path.join(PERF, "out", f"{name}-s{seed}-t{trace}{suffix}")
    os.makedirs(scratch, exist_ok=True)
    os.makedirs(out_dir, exist_ok=True)
    # --seconds is the length of the pass inside the child: training and
    # publishing are fixed work, the serving windows take what is left
    # and never drop under the workload's floor
    spec = {"workload": name, "scale": scale, "seed": seed, "trace": trace,
            "seconds": seconds if seconds is not None else w.seconds,
            "data": data_path, "cache": scratch}
    try:
        if not trace and not os.path.exists(data_path):
            # untimed input generation; the traced pass times its own
            _run_child({**spec, "mode": "gen", "out": os.path.join(out_dir, "gen.json")})
        result = _run_child(
            {**spec, "mode": "pipeline", "out": os.path.join(out_dir, "result.json")})
        metrics = result["metrics"]
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    # a pass measures more than its own list names: the end-to-end pass
    # every headline metric, including those BENCHMARK.json keeps under
    # per_layer because they do not repeat within their bound on the
    # reference host (perf/README.md, "Demotions")
    declared = contract["per_layer" if trace else "end_to_end"]
    units = {d["name"]: d["unit"] for d in contract["end_to_end"] + contract["per_layer"]}
    missing = sorted({d["name"] for d in declared} - set(metrics))
    unknown = sorted(set(metrics) - set(units))
    if missing or unknown:
        raise BenchmarkError(
            f"emitted metrics do not match BENCHMARK.json: missing {missing}, "
            f"unknown {unknown}")
    failed_checks = [k for k, ok in result["checks"].items() if not ok]
    doc = {
        "correct": result["failed"] == 0,
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": {d["name"]: {"value": metrics[d["name"]], "unit": d["unit"]}
                    for d in declared},
    }
    with open(os.path.join(out_dir, "summary.json"), "w") as fh:
        json.dump({**doc, "workload": name, "seed": seed, "trace": trace,
                   "measured": metrics, "host": {**host_fingerprint(), **result["numpy"]},
                   "failed_checks": failed_checks,
                   "errors": result["errors"], "notes": result["notes"]}, fh, indent=1)

    kind = "traced (per-layer)" if trace else "end-to-end"
    print(f"== {name}  seed={seed}  {kind}  wall={result['notes']['child_wall_s']:.1f}s  "
          f"numpy={result['numpy']['numpy']} blas={result['numpy']['blas']}")
    for metric, value in metrics.items():
        other = "" if metric in doc["metrics"] else (
            "   [end_to_end]" if trace else "   [per_layer: see Demotions]")
        print(f"  {metric:<44} {value:>16.6g} {units[metric]}{other}")
    print(f"  failed_share = {doc['failed']}/{doc['attempted']} = "
          f"{doc['failed'] / doc['attempted']:.6f}"
          + (f"  FAILED CHECKS: {failed_checks}" if failed_checks else ""))
    for err in result["errors"]:
        print("  request error:", err.strip().splitlines()[-1])
    return doc, metrics


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------
def cmd_run(args) -> int:
    names = [args.workload] if args.workload else list(workloads.WORKLOADS)
    traces = [args.trace] if args.trace is not None else [0, 1]
    print("host:", json.dumps(host_fingerprint()))
    _precompile()
    docs = [run_pass(name, args.seed, args.seconds, trace, args.scale)[0]
            for name in names for trace in traces]
    if len(docs) == 1:
        print(json.dumps(docs[0]))
    else:
        print(json.dumps({
            "correct": all(d["correct"] for d in docs),
            "attempted": sum(d["attempted"] for d in docs),
            "failed": sum(d["failed"] for d in docs),
        }))
    return 0 if all(d["correct"] for d in docs) else 1


#: the demotion rule: a headline metric whose five-invocation spread
#: (max - min) / median exceeds this on any workload is not end-to-end
DEMOTION_SPREAD = 0.10


def cmd_selfcheck(args) -> int:
    """A/A: two interleaved sets (A B C D A B C D ...) of the same code.

    Every headline metric the end-to-end pass measures is judged, whether
    ``BENCHMARK.json`` lists it under ``end_to_end`` (its bound there) or
    has demoted it to ``per_layer`` (the demotion rule's 0.10): the two
    sets' medians must agree within the bound and neither set's
    (max - min) / median may exceed it, on every workload.
    """
    contract = load_contract()
    bounds = {d["name"]: d["bound"] for d in contract["end_to_end"]}
    names = list(workloads.WORKLOADS)
    print("host:", json.dumps(host_fingerprint()))
    _precompile()
    values: dict[tuple[str, str, str], list[float]] = {}
    t0 = time.perf_counter()
    for seed in range(args.runs):
        for label in ("A", "B"):
            for name in names:
                doc, measured = run_pass(name, seed, args.seconds, 0, args.scale)
                if not doc["correct"]:
                    print(f"selfcheck: {name} seed {seed} failed its own checks")
                    return 1
                for metric, value in measured.items():
                    values.setdefault((name, metric, label), []).append(value)
    rows = []
    for metric in dict.fromkeys(m for _, m, _ in values):
        bound = bounds.get(metric, DEMOTION_SPREAD)
        for name in names:
            a, b = values[(name, metric, "A")], values[(name, metric, "B")]
            med_a, med_b = statistics.median(a), statistics.median(b)
            row = {
                "workload": name, "metric": metric, "bound": bound,
                "end_to_end": metric in bounds,
                "median_a": med_a, "median_b": med_b,
                "shift": abs(med_b - med_a) / med_a,
                # the demotion rule's spread; the driver's (inter-quartile,
                # over ten seeds) is printed beside it for reference
                "range_spread": max(range_spread(a), range_spread(b)),
                "iqr_spread": max(iqr_spread(a), iqr_spread(b)) if args.runs >= 2 else 0.0,
            }
            row["ok"] = row["shift"] <= bound and row["range_spread"] <= bound
            rows.append(row)
            print(f"  {metric:<22} {name:<18} A={med_a:<11.5g} B={med_b:<11.5g} "
                  f"shift={row['shift']:.4f} range={row['range_spread']:.4f} "
                  f"iqr={row['iqr_spread']:.4f} bound={bound} "
                  f"{'ok' if row['ok'] else 'EXCEEDS'}")
    report = {"runs_per_set": args.runs, "scale": args.scale,
              "wall_s": time.perf_counter() - t0, "host": host_fingerprint(), "rows": rows}
    with open(os.path.join(PERF, "out", "selfcheck.json"), "w") as fh:
        json.dump(report, fh, indent=1)
    noisy = {r["metric"] for r in rows if not r["ok"]}
    for metric in dict.fromkeys(r["metric"] for r in rows):
        listed = "end_to_end" if metric in bounds else "per_layer"
        if metric == "setup_s" and metric in noisy:
            verdict = "EXCEEDS (the driver contract forbids demoting it)"
        elif metric in noisy:
            verdict = "DEMOTE" if metric in bounds else "stays demoted"
        else:
            verdict = "ok" if metric in bounds else "steady here: may be promoted"
        print(f"  {metric:<22} {listed:<10} {verdict}")
    bad = sorted(noisy & set(bounds))
    if bad:
        print(f"selfcheck: {bad} exceed their bound: lengthen the window or demote "
              "them to per_layer (never widen the bound)")
    return 1 if bad else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python -m perf", description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    for cmd, fn in (("run", cmd_run), ("selfcheck", cmd_selfcheck)):
        p = sub.add_parser(cmd)
        p.set_defaults(fn=fn)
        p.add_argument("--seconds", type=int, default=None,
                       help="time budget of one run (default: the workload's, 30)")
        p.add_argument("--scale", choices=workloads.SCALES, default="full")
    run = sub.choices["run"]
    run.add_argument("--workload", choices=sorted(workloads.WORKLOADS), default=None,
                     help="default: all four")
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--trace", type=int, choices=(0, 1), default=None,
                     help="0 = end-to-end pass, 1 = traced pass (default: both)")
    sub.choices["selfcheck"].add_argument("--runs", type=int, default=5,
                                          help="invocations per set and workload")
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print("perf: src/repro not found next to perf/ — nothing to benchmark",
              file=sys.stderr)
        return 2
    try:
        return args.fn(args)
    except BenchmarkError as exc:
        print(f"perf: {exc}", file=sys.stderr)
        return 2

