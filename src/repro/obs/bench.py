"""The pinned perf suite behind ``repro bench`` (the perf-trajectory plane).

"Faster" is only a claim until two runs can be compared mechanically.
This module pins a small benchmark suite over the repo's hot surfaces —

* **kernel** — SGD updates/sec for the numeric substrate: the
  vectorized kernel under both :class:`~repro.mf.kernels.ConflictPolicy`
  flavours, plus the FPSGD / DSGD / NOMAD variant trainers;
* **epoch** — end-to-end epoch seconds through the
  :class:`~repro.engine.pipeline.EpochEngine` on *both* planes
  (:class:`~repro.engine.backends.SimBackend` and
  :class:`~repro.engine.backends.ProcessBackend`);
* **wire** — bytes/sec through each channel stack's encode/decode codec
  (Q-only, FP16 wire, double-buffered transport)

— and emits one schema-versioned ``BENCH_train.json``
(:mod:`repro.obs.schema`) carrying a host fingerprint, per-metric
repeats with mean/stdev/min, and provenance (git SHA, UTC timestamp,
config).  :func:`compare_docs` diffs two such documents into per-metric
deltas with noise-aware verdicts, so a perf PR can state "moved metric
X by Y%" — and CI can fail on a regression — without anyone eyeballing
numbers.

All durations are measured with ``time.perf_counter()`` (HCC110:
timing code never reads the wall clock); the one wall-clock value in
the document is the provenance *timestamp*, which is a date, not a
duration.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import time
from dataclasses import asdict, dataclass
from datetime import datetime, timezone
from typing import Callable, Iterable, Sequence

import numpy as np

from repro.obs.schema import BENCH_SCHEMA_VERSION, validate_bench

#: the pinned *training* suite sections, in emission order.  The suite
#: registry itself is extensible — see :func:`register_suite` — and the
#: serving plane registers a fourth section ("serving") on import, so
#: ``repro bench --suites serving`` works through the same machinery.
SUITES = ("kernel", "epoch", "wire")

#: CLI exit code for "--compare found a regression" — distinct from 0
#: (clean) and 2 (usage/validation errors) so CI can branch on it
EXIT_REGRESSION = 3


class BenchValidationError(ValueError):
    """A bench document failed schema validation; lists every problem."""

    def __init__(self, path: str, problems: Sequence[str]):
        self.path = path
        self.problems = tuple(problems)
        joined = "\n  ".join(problems)
        super().__init__(f"invalid bench document {path}:\n  {joined}")


# ---------------------------------------------------------------------------
# configuration + host fingerprint
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class BenchConfig:
    """Workload knobs for one suite run — recorded as provenance.

    The defaults are the *pinned* full suite; :meth:`quick` is the CI
    smoke variant (tiny nnz, one repeat) whose numbers are only good
    for schema/plumbing checks, never for cross-PR comparison (the
    ``quick`` provenance flag says which kind a document is).
    """

    nnz: int = 20_000
    epochs: int = 2
    k: int = 16
    workers: int = 2
    repeats: int = 3
    batch_size: int = 4096
    seed: int = 0
    quick: bool = False

    def __post_init__(self) -> None:
        for field_name in ("nnz", "epochs", "k", "workers", "repeats",
                           "batch_size"):
            if getattr(self, field_name) <= 0:
                raise ValueError(f"{field_name} must be positive")

    @classmethod
    def quick_config(cls, **overrides) -> "BenchConfig":
        base = dict(nnz=2_000, epochs=2, k=8, workers=2, repeats=1,
                    quick=True)
        base.update(overrides)
        return cls(**base)


def host_fingerprint() -> dict:
    """Where the numbers came from: CPU count, python, numpy/BLAS.

    A bench document is only comparable to another from an equivalent
    host; ``--compare`` prints both fingerprints when they differ.
    """
    try:
        blas = _blas_name()
    except Exception:  # pragma: no cover - numpy internals vary
        blas = "unknown"
    return {
        "cpu_count": os.cpu_count() or 1,
        "python": sys.version.split()[0],
        "platform": sys.platform,
        "numpy": np.__version__,
        "blas": blas,
    }


def _blas_name() -> str:
    cfg = getattr(np, "__config__", None)
    if cfg is None:
        return "unknown"
    # numpy >= 1.25 exposes the build config as dicts
    show = getattr(np, "show_config", None)
    try:
        info = show(mode="dicts") if show is not None else None
    except TypeError:
        info = None
    if isinstance(info, dict):
        blas = info.get("Build Dependencies", {}).get("blas", {})
        name = blas.get("name")
        if name:
            return str(name)
    for key in ("openblas64__info", "openblas_info", "blas_mkl_info",
                "blas_opt_info"):
        if getattr(cfg, key, None):
            return key.replace("_info", "")
    return "unknown"


def _git_sha() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except OSError:  # pragma: no cover - no git binary
        return "unknown"
    if out.returncode != 0:
        return "unknown"
    return out.stdout.strip() or "unknown"


# ---------------------------------------------------------------------------
# metric results
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class MetricResult:
    """One suite metric: named, unit-ed, directed, with its raw repeats."""

    name: str
    unit: str
    #: ``throughput`` (higher is better) or ``time`` (lower is better)
    kind: str
    repeats: tuple[float, ...]
    meta: dict

    @property
    def mean(self) -> float:
        return sum(self.repeats) / len(self.repeats)

    @property
    def stdev(self) -> float:
        if len(self.repeats) < 2:
            return 0.0
        return statistics.stdev(self.repeats)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "unit": self.unit,
            "kind": self.kind,
            "repeats": list(self.repeats),
            "mean": self.mean,
            "stdev": self.stdev,
            "min": min(self.repeats),
            "max": max(self.repeats),
            "meta": self.meta,
        }


def _measure(fn: Callable[[], float], repeats: int) -> tuple[float, ...]:
    """Run ``fn`` (which returns one measured value) ``repeats`` times."""
    return tuple(fn() for _ in range(repeats))


def _elapsed(fn: Callable[[], object]) -> float:
    t0 = time.perf_counter()
    fn()
    # a sub-resolution run still needs a positive duration for the
    # rate division; the clamp is far below perf_counter resolution
    return max(time.perf_counter() - t0, 1e-9)


# ---------------------------------------------------------------------------
# workloads (shared with benchmarks/bench_kernels.py)
# ---------------------------------------------------------------------------
def kernel_workload(nnz: int = 60_000, seed: int = 0):
    """The pinned synthetic kernel workload: Netflix shape, scaled."""
    from repro.data.datasets import NETFLIX

    return NETFLIX.scaled(nnz).generate(seed=seed)


# ---------------------------------------------------------------------------
# suite sections
# ---------------------------------------------------------------------------
def _kernel_metrics(config: BenchConfig) -> list[MetricResult]:
    """SGD updates/sec: the raw kernel per ConflictPolicy + mf variants."""
    from repro.mf.dsgd import DSGD
    from repro.mf.fpsgd import FPSGD
    from repro.mf.kernels import ConflictPolicy, sgd_epoch
    from repro.mf.model import MFModel
    from repro.mf.nomad import NOMAD

    ratings = kernel_workload(config.nnz, config.seed)
    meta = {"nnz": ratings.nnz, "k": config.k,
            "batch_size": config.batch_size}
    out: list[MetricResult] = []
    for policy in (ConflictPolicy.ATOMIC, ConflictPolicy.LAST_WRITE):
        def one_epoch(policy=policy) -> float:
            model = MFModel.init_for(ratings, config.k, seed=config.seed)
            dt = _elapsed(lambda: sgd_epoch(
                model, ratings, 0.005, 0.01, config.batch_size, policy
            ))
            return ratings.nnz / dt
        out.append(MetricResult(
            name=f"kernel/sgd[{policy.value}]/updates_per_s",
            unit="updates/s", kind="throughput",
            repeats=_measure(one_epoch, config.repeats),
            meta=dict(meta, policy=policy.value),
        ))
    variants: dict[str, Callable[[], object]] = {
        "fpsgd": lambda: FPSGD(k=config.k, threads=config.workers,
                               seed=config.seed,
                               batch_size=config.batch_size),
        "dsgd": lambda: DSGD(k=config.k, workers=config.workers,
                             seed=config.seed,
                             batch_size=config.batch_size),
        "nomad": lambda: NOMAD(k=config.k, workers=config.workers,
                               seed=config.seed),
    }
    for label, make in variants.items():
        def one_fit(make=make) -> float:
            trainer = make()
            dt = _elapsed(lambda: trainer.fit(ratings, epochs=1))
            return ratings.nnz / dt
        out.append(MetricResult(
            name=f"kernel/{label}/updates_per_s",
            unit="updates/s", kind="throughput",
            repeats=_measure(one_fit, config.repeats),
            # fit() evaluates RMSE once per epoch, so the rate includes
            # one evaluation — comparable across runs, not to sgd_epoch
            meta=dict(meta, eval_included=True),
        ))
    return out


def _epoch_metrics(config: BenchConfig) -> list[MetricResult]:
    """End-to-end epoch seconds through the engine, on both planes."""
    from repro.engine import EpochEngine, ProcessBackend, QOnlyChannel, SimBackend
    from repro.experiments.platforms import workers_platform

    ratings = kernel_workload(config.nnz, config.seed)
    meta = {"nnz": ratings.nnz, "k": config.k, "epochs": config.epochs,
            "workers": config.workers, "channel": "q-only(full)"}

    def sim_epoch_seconds() -> float:
        backend = SimBackend(
            workers_platform(config.workers), ratings=ratings,
            eval_data=ratings, k=config.k, seed=config.seed,
            batch_size=config.batch_size,
        )
        engine = EpochEngine(backend, channel=QOnlyChannel())
        return _elapsed(lambda: engine.run(config.epochs)) / config.epochs

    process_rates: list[float] = []

    def process_epoch_seconds() -> float:
        backend = ProcessBackend(
            ratings, k=config.k, n_workers=config.workers,
            seed=config.seed, batch_size=config.batch_size,
        )
        result = EpochEngine(backend, channel=QOnlyChannel()).run(config.epochs)
        process_rates.append(result.updates_per_second)
        return max(result.elapsed_seconds, 1e-9) / config.epochs

    out = [
        MetricResult(
            name="epoch/sim/seconds", unit="s/epoch", kind="time",
            repeats=_measure(sim_epoch_seconds, config.repeats),
            meta=dict(meta),
        ),
        MetricResult(
            name="epoch/process/seconds", unit="s/epoch", kind="time",
            repeats=_measure(process_epoch_seconds, config.repeats),
            meta=dict(meta),
        ),
        MetricResult(
            name="epoch/process/updates_per_s", unit="updates/s",
            kind="throughput", repeats=tuple(process_rates),
            meta=dict(meta),
        ),
    ]
    return out


def _wire_metrics(config: BenchConfig) -> list[MetricResult]:
    """Bytes/sec through each channel stack's encode/decode codec."""
    from repro.engine import DoubleBufferChannel, Fp16Channel, QOnlyChannel

    n = max(config.nnz // 4, 1_000)
    rng = np.random.default_rng(config.seed)
    q = rng.uniform(0.0, 1.0, (config.k, n)).astype(np.float32)
    cycles = 2 if config.quick else 5
    out: list[MetricResult] = []
    for channel in (
        QOnlyChannel(),
        Fp16Channel(QOnlyChannel()),
        DoubleBufferChannel(QOnlyChannel()),
    ):
        wire = np.empty(q.shape, dtype=channel.wire_dtype)

        def roundtrips(channel=channel, wire=wire) -> float:
            def cycle() -> None:
                for _ in range(cycles):
                    channel.encode(q, wire)
                    channel.decode(wire)
            dt = _elapsed(cycle)
            # one encode puts wire.nbytes on the wire, one decode takes
            # them off: 2x wire bytes moved per cycle
            return 2.0 * wire.nbytes * cycles / dt

        out.append(MetricResult(
            name=f"wire/{channel.describe()}/bytes_per_s",
            unit="bytes/s", kind="throughput",
            repeats=_measure(roundtrips, config.repeats),
            meta={"k": config.k, "n": n, "cycles": cycles,
                  "wire_dtype": channel.wire_dtype,
                  "wire_bytes": int(wire.nbytes)},
        ))
    return out


_SECTIONS: dict[str, Callable[[BenchConfig], list[MetricResult]]] = {
    "kernel": _kernel_metrics,
    "epoch": _epoch_metrics,
    "wire": _wire_metrics,
}


def register_suite(
    name: str, section: Callable[[BenchConfig], list[MetricResult]]
) -> None:
    """Add a suite section to the registry (other planes extend it here).

    A section is any ``BenchConfig -> list[MetricResult]`` callable;
    once registered it runs through the same driver, document schema,
    and ``--compare`` verdicts as the pinned train sections.  Names are
    single CLI tokens and register exactly once.
    """
    if not name or "," in name or name != name.strip():
        raise ValueError(f"invalid suite name {name!r}")
    if name in _SECTIONS:
        raise ValueError(f"suite {name!r} is already registered")
    _SECTIONS[name] = section


def _ensure_extension_suites() -> None:
    # in-repo planes that extend the registry do so at import time; the
    # import is lazy so repro.obs stays importable on its own
    import repro.serving.bench  # noqa: F401


def available_suites() -> tuple[str, ...]:
    """Every registered suite section, pinned train sections first."""
    _ensure_extension_suites()
    return tuple(_SECTIONS)


# ---------------------------------------------------------------------------
# suite driver + document IO
# ---------------------------------------------------------------------------
def make_document(
    metrics: Sequence[MetricResult],
    config: BenchConfig,
    suite: str = "train",
) -> dict:
    """Assemble one schema-versioned BENCH document around ``metrics``.

    Shared by every suite kind (train, serving, ...) so provenance and
    host fingerprinting stay uniform and ``compare_docs`` works across
    all of them.
    """
    return {
        "schema_version": BENCH_SCHEMA_VERSION,
        "suite": suite,
        "provenance": {
            "git_sha": _git_sha(),
            # provenance records *when*, not a duration: the one place
            # a wall-clock read belongs in this module
            "timestamp_utc": datetime.now(timezone.utc).isoformat(),
            "quick": config.quick,
            "config": asdict(config),
        },
        "host": host_fingerprint(),
        "metrics": [m.to_dict() for m in metrics],
    }


def run_suite(
    config: BenchConfig | None = None,
    suites: Iterable[str] = SUITES,
    log: Callable[[str], None] | None = None,
    suite_label: str = "train",
) -> dict:
    """Run the named suite sections and return the BENCH document."""
    config = config if config is not None else BenchConfig()
    _ensure_extension_suites()
    names = list(suites)
    unknown = set(names) - set(_SECTIONS)
    if unknown:
        raise ValueError(
            f"unknown suites {sorted(unknown)}; available: {list(_SECTIONS)}"
        )
    metrics: list[MetricResult] = []
    for name in names:
        if log is not None:
            log(f"suite {name}: running ({config.repeats} repeat(s))")
        metrics.extend(_SECTIONS[name](config))
    return make_document(metrics, config, suite=suite_label)


def write_bench(doc: dict, path: str | os.PathLike) -> None:
    """Validate and write a bench document (schema-checked at the door)."""
    problems = validate_bench(doc)
    if problems:
        raise BenchValidationError(str(path), problems)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=False)
        fh.write("\n")


def load_bench(path: str | os.PathLike) -> dict:
    """Load and validate a bench document written by :func:`write_bench`."""
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    problems = validate_bench(doc)
    if problems:
        raise BenchValidationError(str(path), problems)
    return doc


# ---------------------------------------------------------------------------
# compare: per-metric deltas with noise-aware verdicts
# ---------------------------------------------------------------------------
#: how --compare classified one metric
VERDICTS = ("ok", "improved", "regressed", "added", "removed")


@dataclass(frozen=True)
class MetricDelta:
    """One metric's old-vs-new comparison."""

    name: str
    unit: str
    kind: str
    old_mean: float | None
    new_mean: float | None
    #: signed percent change of the mean, new vs old (None when either
    #: side is missing)
    delta_pct: float | None
    #: the margin the delta had to clear: max(threshold, 2-sigma noise)
    margin_pct: float
    verdict: str


@dataclass
class CompareReport:
    """Every metric's delta plus the run-level verdict."""

    rows: list[MetricDelta]
    threshold_pct: float
    host_changed: bool = False

    @property
    def regressions(self) -> list[MetricDelta]:
        return [r for r in self.rows if r.verdict == "regressed"]

    @property
    def ok(self) -> bool:
        return not self.regressions

    def render(self) -> str:
        from repro.experiments.tables import render_table

        def fmt(value: float | None) -> str:
            return "-" if value is None else f"{value:,.4g}"

        rows = [
            [r.name,
             fmt(r.old_mean),
             fmt(r.new_mean),
             "-" if r.delta_pct is None else f"{r.delta_pct:+.1f}%",
             f"{r.margin_pct:.1f}%",
             r.verdict.upper() if r.verdict == "regressed" else r.verdict]
            for r in self.rows
        ]
        table = render_table(
            ["metric", "old", "new", "delta", "margin", "verdict"],
            rows,
            title=f"bench compare (threshold {self.threshold_pct:g}%, "
                  f"margin = max(threshold, 2-sigma noise))",
        )
        lines = [table]
        if self.host_changed:
            lines.append(
                "note: host fingerprints differ — deltas may reflect the "
                "machine, not the code"
            )
        lines.append(
            f"compare: {'OK' if self.ok else 'REGRESSED'} "
            f"({len(self.regressions)} regression(s) in {len(self.rows)} "
            f"metric(s))"
        )
        return "\n".join(lines)


def _noise_pct(old: dict, new: dict) -> float:
    """Two-sigma of the difference of means, as a percent of old."""
    old_mean = old["mean"]
    if old_mean <= 0:
        return 0.0
    sigma = (old["stdev"] ** 2 + new["stdev"] ** 2) ** 0.5
    return 200.0 * sigma / old_mean


def compare_docs(old: dict, new: dict, threshold_pct: float = 5.0) -> CompareReport:
    """Diff two bench documents metric-by-metric.

    A metric **regresses** when its mean moved in the bad direction
    (down for throughput, up for time) by more than the margin — the
    caller's threshold or the two-sided 2-sigma noise band of the
    recorded repeats, whichever is larger.  Metrics present on only one
    side are reported (``added``/``removed``) but never fail the run:
    suites are allowed to grow.
    """
    if threshold_pct < 0:
        raise ValueError("threshold_pct must be non-negative")
    old_metrics = {m["name"]: m for m in old["metrics"]}
    new_metrics = {m["name"]: m for m in new["metrics"]}
    rows: list[MetricDelta] = []
    for name, om in old_metrics.items():
        nm = new_metrics.get(name)
        if nm is None:
            rows.append(MetricDelta(name, om["unit"], om["kind"],
                                    om["mean"], None, None,
                                    threshold_pct, "removed"))
            continue
        margin = max(threshold_pct, _noise_pct(om, nm))
        delta_pct = (
            100.0 * (nm["mean"] - om["mean"]) / om["mean"]
            if om["mean"] > 0 else 0.0
        )
        worse = -delta_pct if om["kind"] == "throughput" else delta_pct
        if worse > margin:
            verdict = "regressed"
        elif -worse > margin:
            verdict = "improved"
        else:
            verdict = "ok"
        rows.append(MetricDelta(name, om["unit"], om["kind"],
                                om["mean"], nm["mean"], delta_pct,
                                margin, verdict))
    for name, nm in new_metrics.items():
        if name not in old_metrics:
            rows.append(MetricDelta(name, nm["unit"], nm["kind"],
                                    None, nm["mean"], None,
                                    threshold_pct, "added"))
    return CompareReport(
        rows=rows,
        threshold_pct=threshold_pct,
        host_changed=old.get("host") != new.get("host"),
    )
