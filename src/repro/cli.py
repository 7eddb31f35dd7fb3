"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``datasets``
    List the Table 3 dataset registry with shape statistics.
``platforms``
    Describe the canonical platform configurations.
``train``
    Run one HCC-MF training (numeric + timing planes) and print the
    convergence curve, partition, and utilization; ``--executor
    process --hotpaths FILE`` also writes a per-stage cProfile report.
``autotune``
    Search the strategy space (transmit x FP16 x streams) for a dataset
    and report the predicted-fastest stack plus advice.
``analyze``
    Profile a dataset's structure (reuse, skew, conflict probability)
    and print the recommended strategy stack.
``reproduce``
    Regenerate paper tables/figures (all, or selected ids), with the
    Fig. 5 and 6 Gantt charts and the Fig. 7d-f convergence charts.
``ablate``
    Run the ablation sweeps (all, or selected ids).
``lint``
    Run hcclint, the domain static analyzer (every rule), over source
    paths; any finding fails the run.
``obs-report``
    Summarize an instrumented run offline from its ``--trace`` /
    ``--metrics`` / ``--hotpaths`` artifacts (ASCII Gantt, phase
    totals, metric values, stage-attributed hotpath table).
"""

from __future__ import annotations

import argparse
import sys


def _cmd_datasets(args: argparse.Namespace) -> int:
    from repro.data.datasets import DATASETS
    from repro.experiments.tables import render_table

    rows = [
        [s.name, s.m, s.n, s.nnz, s.reg, f"{s.rating_min:g}-{s.rating_max:g}",
         f"{s.reuse_ratio:,.0f}"]
        for s in DATASETS.values()
    ]
    print(render_table(
        ["dataset", "m", "n", "nnz", "reg", "scale", "nnz/(m+n)"],
        rows, title="Table 3 dataset registry",
    ))
    return 0


def _cmd_platforms(args: argparse.Namespace) -> int:
    from repro.experiments.platforms import (
        hetero_platform,
        overall_platform,
        workers_platform,
    )

    for label, platform in (
        ("overall performance (CPU_0 @ 16T)", overall_platform()),
        ("heterogeneity (CPU_0 @ 10T)", hetero_platform()),
        ("3-worker scaling config", workers_platform(3)),
    ):
        print(f"== {label} ==")
        print(platform.describe())
        print(f"hardware cost: ${platform.total_price():,.0f}\n")
    return 0


def _cmd_train(args: argparse.Namespace) -> int:
    if args.transmit == "q-rotate" and not args.timing_only:
        from repro.engine.channels import Q_ROTATE_IS_PRICED_NOT_TRAINED

        print(Q_ROTATE_IS_PRICED_NOT_TRAINED, file=sys.stderr)
        return 2
    # what each of these reports exists only after a numeric run
    # (--hotpaths: one on real worker processes)
    numeric = not args.timing_only
    needs = {"metrics": numeric, "drift": numeric,
             "hotpaths": numeric and args.executor == "process"}
    refused = [f"--{flag}" for flag, met in needs.items()
               if getattr(args, flag) and not met]
    if refused:
        print(f"{', '.join(refused)}: needs the numeric plane (drop "
              "--timing-only); --hotpaths also needs --executor process",
              file=sys.stderr)
        return 2
    if args.executor == "process":
        return _train_process(args)
    return _train_model(args)


def _train_model(args: argparse.Namespace) -> int:
    """The default executor: timing plane + in-process numeric plane."""
    from repro.core.config import CommConfig, HCCConfig, PartitionStrategy, TransmitMode
    from repro.framework import HCCMF
    from repro.data.datasets import get_dataset
    from repro.experiments.platforms import overall_platform

    spec = get_dataset(args.dataset)
    ratings = None
    if not args.timing_only:
        ratings = spec.scaled(args.nnz).generate(seed=args.seed)
    config = HCCConfig(
        k=args.k,
        epochs=args.epochs,
        learning_rate=args.lr,
        seed=args.seed,
        partition=PartitionStrategy(args.partition),
        comm=CommConfig(
            transmit=TransmitMode(args.transmit),
            fp16=args.fp16,
            streams=args.streams,
        ),
    )
    hcc = HCCMF(overall_platform(), spec, config, ratings=ratings)
    telemetry = None
    if args.metrics or args.drift:
        from repro.obs.telemetry import Telemetry

        telemetry = Telemetry()
    result = hcc.train(telemetry=telemetry)

    print(f"dataset: {spec.name}  partition: {result.plan.strategy} "
          f"({result.regime.value})")
    for worker, frac in zip(hcc.platform.workers, result.plan.fractions):
        print(f"  {worker.name:18s} {frac:6.1%}")
    if result.rmse_history:
        print("rmse:", " ".join(f"{r:.4f}" for r in result.rmse_history))
    print(f"modeled time: {result.total_time:.3f}s for {result.epochs} epochs "
          f"({result.utilization:.0%} of ideal computing power)")
    if args.trace:
        from repro.hardware.trace import export_chrome_trace

        n = export_chrome_trace(result.timeline, args.trace)
        print(f"wrote {n} trace events to {args.trace} (open in chrome://tracing)")
    if args.metrics:
        n = telemetry.write_metrics_jsonl(args.metrics)
        print(f"wrote {n} metric lines to {args.metrics}")
    if args.drift:
        # the model executor's reference is its own analytic epoch cost;
        # measured wall-clock spans are joined against Eq. 1-5 output
        report = _model_drift(telemetry, result)
        print(report.render())
    return 0


def _model_drift(telemetry, result):
    from repro.obs.drift import compare, predictions_from_epoch_cost

    predictions = predictions_from_epoch_cost(result.epoch_cost)
    # simulated-plane lanes are worker-<id>; map analytic worker names
    lanes = {wc.name: f"worker-{i}" for i, wc in enumerate(result.epoch_cost.workers)}
    predictions = {
        (lanes.get(worker, worker), phase): t
        for (worker, phase), t in predictions.items()
    }
    return compare(telemetry.timeline, predictions, result.epochs)


def _train_process(args: argparse.Namespace) -> int:
    """The wall-clock executor: real worker processes over shared memory."""
    from repro.core.config import CommConfig, TransmitMode
    from repro.data.datasets import get_dataset
    from repro.engine.backends import ProcessBackend
    from repro.engine.channels import channel_for
    from repro.engine.pipeline import EpochEngine
    from repro.obs.profile import StageProfiler
    from repro.obs.telemetry import Telemetry

    if args.timing_only:
        print("--executor process always trains numerically "
              "(drop --timing-only)", file=sys.stderr)
        return 2
    if args.transmit == "pq":
        print("--executor process is Strategy-1 by construction (P lives in "
              "shared memory); --transmit pq only applies to --executor model",
              file=sys.stderr)
        return 2
    if args.partition == "dp2":
        print("--partition dp2 staggers against *modeled* sync costs; the "
              "wall-clock plane supports even/dp0/dp1 (use --executor model)",
              file=sys.stderr)
        return 2
    spec = get_dataset(args.dataset)
    ratings = spec.scaled(args.nnz).generate(seed=args.seed)
    channel = channel_for(
        CommConfig(transmit=TransmitMode(args.transmit), fp16=args.fp16,
                   streams=args.streams),
        ratings.m, ratings.n,
    )
    partition = None
    if args.partition in ("dp0", "dp1"):
        from repro.parallel.tuning import measure_partition

        measured = measure_partition(
            ratings, args.workers, k=args.k,
            refine=args.partition == "dp1", seed=args.seed,
        )
        partition = measured.plan
        fracs = " ".join(f"{f:.1%}" for f in partition.fractions)
        print(f"measured {args.partition} partition: {fracs} "
              f"(calibration {measured.calibration_seconds:.2f}s)")
    instrumented = bool(args.trace or args.metrics or args.drift)
    telemetry = Telemetry() if instrumented else None
    backend = ProcessBackend(
        ratings, k=args.k, n_workers=args.workers,
        lr=spec.learning_rate if args.lr is None else args.lr, reg=spec.reg,
        seed=args.seed,
    )
    profiler = StageProfiler() if args.hotpaths else None
    try:
        result = EpochEngine(
            backend, channel=channel, partitions=partition,
            telemetry=telemetry, profile=profiler,
        ).run(args.epochs)
        if profiler is not None:
            profiler.report().save(args.hotpaths)
    finally:
        if profiler is not None:
            profiler.cleanup()
    print(f"dataset: {spec.name}  executor: process x{args.workers}  "
          f"channel: {channel.describe()}")
    print("rmse:", " ".join(f"{r:.4f}" for r in result.rmse_history))
    print(f"wall-clock: {result.elapsed_seconds:.3f}s for {result.epochs} epochs "
          f"({result.updates_per_second:,.0f} updates/s)")
    if telemetry is not None:
        if args.trace:
            n = telemetry.export_chrome_trace(args.trace)
            print(f"wrote {n} trace events to {args.trace} (open in Perfetto)")
        if args.metrics:
            n = telemetry.write_metrics_jsonl(args.metrics)
            print(f"wrote {n} metric lines to {args.metrics}")
        if args.drift:
            print(telemetry.drift_report().render())
    if profiler is not None:
        print(f"wrote {args.hotpaths}")
    return 0


def _cmd_obs_report(args: argparse.Namespace) -> int:
    """Offline view of an instrumented run's artifacts."""
    from repro.hardware.trace import import_chrome_trace
    from repro.obs.exporters import read_metrics_jsonl

    shown = False
    events: list = []
    samples: list = []
    if args.metrics:
        try:
            events, samples = read_metrics_jsonl(args.metrics)
        except OSError as exc:
            print(f"cannot read metrics: {exc}", file=sys.stderr)
            return 2
    if getattr(args, "hotpaths", None):
        from repro.obs.profile import StageProfileReport

        try:
            report = StageProfileReport.load(args.hotpaths)
        except (OSError, ValueError) as exc:
            print(f"cannot read hotpaths: {exc}", file=sys.stderr)
            return 2
        print(f"hotpaths: {args.hotpaths}")
        print(report.render(top_n=getattr(args, "top", 10)))
        shown = True
    if args.trace:
        try:
            timeline = import_chrome_trace(args.trace)
        except OSError as exc:
            print(f"cannot read trace: {exc}", file=sys.stderr)
            return 2
        if len(timeline):
            print(f"trace: {args.trace}  ({len(timeline)} spans, "
                  f"makespan {timeline.makespan():.4f}s)")
            print(timeline.ascii_gantt(width=64))
            for worker in timeline.workers():
                totals = ", ".join(
                    f"{phase.value} {total:.4f}s"
                    for phase, total in timeline.phase_totals(worker).items()
                    if total > 0
                )
                print(f"  {worker:12s} {totals}")
            # the run's own memory figure, beside where its time went
            for line in samples:
                if line["name"] == "peak_rss_mb":
                    print(f"  {'peak RSS':12s} {line['value']:.1f} MB "
                          "(high-water mark of the server or any worker)")
        else:
            print(f"trace: {args.trace}  (no spans)")
        shown = True
    if args.metrics:
        print(f"metrics: {args.metrics}  ({len(events)} events, "
              f"{len(samples)} samples)")
        for line in samples:
            labels = ",".join(f"{k}={v}" for k, v in sorted(line["labels"].items()))
            print(f"  {line['name']}{{{labels}}} = {line['value']:g}")
        shown = True
    if not shown:
        print("nothing to report: pass --trace, --metrics and/or --hotpaths",
              file=sys.stderr)
        return 2
    return 0


def _cmd_autotune(args: argparse.Namespace) -> int:
    from repro.core.autotune import autotune
    from repro.data.datasets import get_dataset
    from repro.experiments.platforms import overall_platform
    from repro.experiments.tables import render_table

    spec = get_dataset(args.dataset)
    report = autotune(
        overall_platform(), spec, k=args.k, epochs=args.epochs,
        include_rotation=not args.no_rotation,
    )
    rows = [
        [t.label, t.total_time, t.epoch_time * 1e3, f"{t.utilization_proxy:.1%}"]
        for t in report.ranking
    ]
    print(render_table(
        ["strategy stack", "total_s", "epoch_ms", "busy"],
        rows, title=f"auto-tuning {spec.name} ({args.epochs} epochs, k={args.k})",
    ))
    print(f"\nbest: {report.best.label}")
    print(f"advice: {report.advice}")
    return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    from repro.data.analysis import profile, render_profile
    from repro.data.datasets import get_dataset
    from repro.data.io import load_movielens_csv, load_npz, load_text

    if args.file:
        path = args.file
        if path.endswith(".npz"):
            ratings = load_npz(path)
        elif path.endswith(".csv"):
            ratings, _, _ = load_movielens_csv(path)
        else:
            ratings = load_text(path)
        print(f"file: {path}")
    else:
        spec = get_dataset(args.dataset).scaled(args.nnz)
        ratings = spec.generate(seed=args.seed)
        print(f"synthetic: {spec.name}")
    print(render_profile(profile(ratings)))
    return 0


def _indented(title: str, art: str) -> str:
    return f"\n  -- {title} --\n" + "\n".join(f"  {line}" for line in art.splitlines())


def _cmd_reproduce(args: argparse.Namespace) -> int:
    from repro.experiments.figures import ALL_EXPERIMENTS
    from repro.experiments.plots import convergence_chart

    ids = args.ids or list(ALL_EXPERIMENTS)
    unknown = set(ids) - set(ALL_EXPERIMENTS)
    if unknown:
        print(f"unknown experiment ids: {sorted(unknown)}", file=sys.stderr)
        print(f"available: {sorted(ALL_EXPERIMENTS)}", file=sys.stderr)
        return 2
    for exp_id in ids:
        result = ALL_EXPERIMENTS[exp_id]()
        print(result.render())
        for label, art in result.extra.get("gantt", {}).items():
            print(_indented(label, art))
        for dataset, curves in result.extra.get("curves", {}).items():
            print(_indented(f"{dataset}: RMSE vs modeled time (Fig. 7d-f)",
                            convergence_chart(curves, against="time")))
        print()
    return 0


def _cmd_ablate(args: argparse.Namespace) -> int:
    from repro.experiments.ablations import ALL_ABLATIONS

    ids = args.ids or list(ALL_ABLATIONS)
    unknown = set(ids) - set(ALL_ABLATIONS)
    if unknown:
        print(f"unknown ablation ids: {sorted(unknown)}", file=sys.stderr)
        print(f"available: {sorted(ALL_ABLATIONS)}", file=sys.stderr)
        return 2
    for ab_id in ids:
        print(ALL_ABLATIONS[ab_id]().render())
        print()
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    from repro.analysis.lint import all_rules, lint_paths
    from repro.analysis.reporters import render_rules, render_text

    if args.rules:
        print(render_rules(all_rules()))
        return 0
    try:
        issues = lint_paths(args.paths or ["src"])
    except FileNotFoundError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    print(render_text(issues))
    return 1 if issues else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="HCC-MF: multi-CPU/GPU collaborative SGD-based matrix factorization",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("datasets", help="list the Table 3 dataset registry")
    sub.add_parser("platforms", help="describe the canonical platforms")

    train = sub.add_parser("train", help="run one HCC-MF training")
    train.add_argument("--dataset", default="Netflix", help="Table 3 name")
    train.add_argument("--nnz", type=int, default=50_000,
                       help="scaled dataset size for the numeric plane")
    train.add_argument("--epochs", type=int, default=10)
    train.add_argument("--k", type=int, default=16, help="latent dimension")
    train.add_argument("--lr", type=float, default=None,
                       help="SGD step (default: the dataset's)")
    train.add_argument("--seed", type=int, default=0)
    train.add_argument("--partition", default="auto",
                       choices=["auto", "even", "dp0", "dp1", "dp2"])
    train.add_argument("--transmit", default="auto",
                       choices=["auto", "pq", "q", "q-rotate"])
    train.add_argument("--fp16", action="store_true", help="FP16 wire (Strategy 2)")
    train.add_argument("--streams", type=int, default=1,
                       help="async streams (Strategy 3)")
    train.add_argument("--timing-only", action="store_true",
                       help="skip the numeric plane")
    train.add_argument("--trace", metavar="FILE",
                       help="write a chrome://tracing JSON of the timeline")
    train.add_argument("--metrics", metavar="FILE",
                       help="write the run's metrics as JSONL (numeric plane)")
    train.add_argument("--executor", default="model",
                       choices=["model", "process"],
                       help="'model' = cost-model planes (default); 'process' "
                            "= real worker processes over shared memory")
    train.add_argument("--workers", type=int, default=2,
                       help="worker process count for --executor process")
    train.add_argument("--drift", action="store_true",
                       help="print the cost-model drift report")
    train.add_argument("--hotpaths", metavar="FILE",
                       help="with --executor process: profile every engine "
                            "stage (server and workers) with cProfile and "
                            "write the report as JSON (obs-report --hotpaths)")

    an = sub.add_parser("analyze", help="profile a dataset's structure")
    an.add_argument("--dataset", default="Netflix", help="Table 3 name (synthetic)")
    an.add_argument("--nnz", type=int, default=50_000, help="synthetic scale")
    an.add_argument("--seed", type=int, default=0)
    an.add_argument("--file", help="rating file (.txt triples, .csv MovieLens, .npz)")

    tune = sub.add_parser("autotune", help="search the strategy space for a dataset")
    tune.add_argument("--dataset", default="Netflix", help="Table 3 name")
    tune.add_argument("--k", type=int, default=128)
    tune.add_argument("--epochs", type=int, default=20)
    tune.add_argument("--no-rotation", action="store_true",
                      help="exclude the future-work Q-rotate mode")

    rep = sub.add_parser("reproduce", help="regenerate paper tables/figures")
    rep.add_argument("ids", nargs="*", help="experiment ids (default: all)")

    abl = sub.add_parser("ablate", help="run ablation sweeps")
    abl.add_argument("ids", nargs="*", help="ablation ids (default: all)")

    lint = sub.add_parser("lint", help="run the hcclint domain static analyzer")
    lint.add_argument("paths", nargs="*",
                      help="files or directories to lint (default: src)")
    lint.add_argument("--rules", action="store_true",
                      help="list the rule catalogue and exit")

    obs = sub.add_parser(
        "obs-report",
        help="summarize an instrumented run's trace/metrics files offline",
    )
    obs.add_argument("--trace", metavar="FILE",
                     help="chrome-trace JSON written by train --trace")
    obs.add_argument("--metrics", metavar="FILE",
                     help="metrics JSONL written by train --metrics")
    obs.add_argument("--hotpaths", metavar="FILE",
                     help="hotpath JSON written by train --hotpaths")
    obs.add_argument("--top", type=int, default=10,
                     help="hotpath entries to show (default: 10)")

    return parser


_COMMANDS = {
    "datasets": _cmd_datasets,
    "platforms": _cmd_platforms,
    "train": _cmd_train,
    "autotune": _cmd_autotune,
    "analyze": _cmd_analyze,
    "reproduce": _cmd_reproduce,
    "ablate": _cmd_ablate,
    "lint": _cmd_lint,
    "obs-report": _cmd_obs_report,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
