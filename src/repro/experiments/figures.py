"""Generators for every table and figure in the paper's evaluation.

Each function reruns the corresponding experiment on this reproduction's
platform model / numeric plane and returns an
:class:`~repro.experiments.tables.ExperimentResult`.  Paper-reported
values are attached as notes so ``render()`` output is self-contained;
EXPERIMENTS.md tabulates paper-vs-measured.
"""

from __future__ import annotations

from dataclasses import replace

from repro.core.config import (
    CommBackendKind,
    CommConfig,
    HCCConfig,
    PartitionStrategy,
    TransmitMode,
)
from repro.core.metrics import speedup as speedup_of
from repro.data.datasets import (
    MOVIELENS_20M,
    NETFLIX,
    R1_STAR,
    YAHOO_R1,
    YAHOO_R2,
)
from repro.experiments.platforms import (
    build_combo,
    combo_price,
    overall_platform,
    single,
    workers_platform,
)
from repro.experiments.runners import dataset_config, run_hcc, single_processor_time
from repro.experiments.tables import ExperimentResult
from repro.framework import HCCMF
from repro.hardware.calibration import table2_bandwidth
from repro.hardware.specs import PROCESSOR_CATALOG
from repro.hardware.streams import pipeline_schedule
from repro.hardware.timeline import Timeline
from repro.mf.cumf import CuMFSGD
from repro.mf.fpsgd import FPSGD


# ---------------------------------------------------------------------------
# Figure 3: motivation — platforms, collaborations, prices
# ---------------------------------------------------------------------------
def fig3a(epochs: int = 20, k: int = 128) -> ExperimentResult:
    """Figure 3(a): Netflix 20-epoch time across platform configurations."""
    result = ExperimentResult(
        "fig3a",
        "SGD-based MF training time on different platforms (Netflix, 20 epochs)",
        ["platform", "category", "time_s"],
    )
    for name in ("6242", "2080", "2080S", "V100"):
        cat = "CPU" if PROCESSOR_CATALOG[name].is_cpu else "GPU"
        result.add_row(name, cat, single_processor_time(name, NETFLIX, epochs, k))

    combos = [("6242", "2080"), ("6242", "2080S"), ("2080", "2080S")]
    for names in combos:
        platform, config = build_combo(list(names))
        res = run_hcc(platform, NETFLIX, replace(config, k=k, epochs=epochs))
        result.add_row("-".join(names), "Good collaboration", res.total_time)

    bad_variants = [
        ("6242-2080S(Bad communication)", dict(bad_comm=True)),
        ("6242-2080S(Unbalanced data)", dict(unbalanced=True)),
        ("6242-2080S(Bad threads conf)", dict(bad_threads=True)),
    ]
    for label, flags in bad_variants:
        platform, config = build_combo(["6242", "2080S"], **flags)
        res = run_hcc(platform, NETFLIX, replace(config, k=k, epochs=epochs))
        result.add_row(label, "Bad collaboration", res.total_time)

    result.add_note(
        "paper shape: every good collaboration beats its lone processors; "
        "each bad configuration erases the benefit (bucket effect / comm overhead)"
    )
    return result


def fig3b() -> ExperimentResult:
    """Figure 3(b): hardware platform prices."""
    result = ExperimentResult(
        "fig3b", "Hardware platform costs", ["platform", "price_usd"]
    )
    for name in ("6242", "2080", "2080S", "V100"):
        result.add_row(name, PROCESSOR_CATALOG[name].price_usd)
    for names in (["6242", "2080"], ["6242", "2080S"], ["2080", "2080S"]):
        result.add_row("-".join(names), combo_price(names))
    result.add_note(
        "paper shape: 6242-2080S reaches near-V100 performance at < 1/3 of its price"
    )
    return result


# ---------------------------------------------------------------------------
# Table 2: memory bandwidth, independent worker vs DP0 partition
# ---------------------------------------------------------------------------
def table2(k: int = 128) -> ExperimentResult:
    """Table 2: runtime memory bandwidth under IW and DP0 data partitions."""
    result = ExperimentResult(
        "table2",
        "Memory bandwidth (GB/s) of different data partitions",
        ["worker", "IW_model", "DP0_model", "IW_paper", "DP0_paper"],
    )
    platform = workers_platform(4)
    model = HCCMF(platform, NETFLIX, HCCConfig(k=k, partition=PartitionStrategy.DP0))
    plan = model.prepare()
    label = {"2080S#gpu0": "2080S", "6242-24T#cpu1": "6242", "2080#gpu1": "2080", "6242L#cpu0w": "6242L"}
    for proc, frac in zip(platform.workers, plan.fractions):
        name = label.get(proc.name, proc.name)
        result.add_row(
            name,
            proc.effective_bandwidth(1.0),
            proc.effective_bandwidth(frac),
            table2_bandwidth(name, "IW"),
            table2_bandwidth(name, "DP0"),
        )
    result.add_note(
        "paper shape: GPU bandwidth rises a few percent under DP0 (smaller "
        "working set), CPU bandwidth is nearly constant"
    )
    return result


# ---------------------------------------------------------------------------
# Figures 5 and 6: timing sequences
# ---------------------------------------------------------------------------
def fig5_timing_sequences(epochs_shown: int = 1, k: int = 128) -> ExperimentResult:
    """Figure 5: epoch timing under no optimization / DP1 / DP2."""
    result = ExperimentResult(
        "fig5",
        "Timing sequences of a training epoch (R1* shape)",
        ["configuration", "epoch_time_s", "exposed_sync_s"],
    )
    gantts: dict[str, str] = {}
    cases = [
        ("original (even partition, P&Q)", HCCConfig(
            k=k, partition=PartitionStrategy.EVEN,
            comm=CommConfig(transmit=TransmitMode.P_AND_Q),
        )),
        ("optimized, sync ignored (DP1)", HCCConfig(k=k, partition=PartitionStrategy.DP1)),
        ("optimized, sync hidden (DP2)", HCCConfig(k=k, partition=PartitionStrategy.DP2)),
    ]
    for label, config in cases:
        res = run_hcc(workers_platform(4), R1_STAR, config, epochs=epochs_shown)
        result.add_row(label, res.epoch_cost.total, res.epoch_cost.exposed_sync)
        gantts[label] = res.timeline.ascii_gantt()
    result.extra["gantt"] = gantts
    result.add_note(
        "paper shape: DP1 aligns worker finish times; DP2 staggers them so "
        "each sync hides under the next worker's compute"
    )
    return result


def fig6_async_pipeline(streams: int = 4) -> ExperimentResult:
    """Figure 6: asynchronous computing-transmission pipelines."""
    result = ExperimentResult(
        "fig6",
        "Async computing-transmission: exposed communication vs streams",
        ["streams", "epoch_time_s", "exposed_comm_s", "hidden_fraction"],
    )
    # a representative GPU worker epoch on R1's shape: comm-heavy
    model = HCCMF(workers_platform(4), YAHOO_R1, HCCConfig(k=128)).cost_model
    gpu = model.platform.workers[0]
    pull, push = model.pull_time(gpu), model.push_time(gpu)
    compute = model.compute_time(gpu, 0.4)
    gantts: dict[int, str] = {}
    for s in range(1, streams + 1):
        res = pipeline_schedule(pull, compute, push, streams=s, copy_engines=2, worker=gpu.name)
        result.add_row(s, res.epoch_time, res.exposed_comm, res.hidden_fraction)
        tl = Timeline()
        tl.extend(res.spans)
        gantts[s] = tl.ascii_gantt()
    result.extra["gantt"] = gantts
    result.add_note("paper shape: exposed transfer shrinks toward 1/streams of the serial cost")
    return result


# ---------------------------------------------------------------------------
# Figure 7: convergence rate and training speed vs FPSGD / CuMF_SGD
# ---------------------------------------------------------------------------
_FIG7_PAPER_SPEEDUPS = {
    # dataset -> (vs CuMF_SGD, vs FPSGD)
    "Netflix": (2.3, 5.75),
    "R1": (1.43, 6.96),
    "R2": (2.9, 3.13),
}


def fig7(
    max_nnz: int = 40_000,
    epochs: int = 30,
    k: int = 16,
    seed: int = 7,
) -> ExperimentResult:
    """Figure 7: RMSE-vs-epoch curves and simulated training-speed ratios.

    The numeric plane runs scaled datasets (same shape statistics) so
    convergence-per-epoch is directly comparable across HCC / FPSGD /
    CuMF_SGD; the time axis comes from the calibrated full-scale model,
    yielding the speedup factors of Figure 7(d-f).
    """
    result = ExperimentResult(
        "fig7",
        "Convergence and training speed: HCC vs FPSGD vs CuMF_SGD",
        [
            "dataset", "method", "final_rmse", "epoch_time_ms",
            "speedup_vs", "paper_speedup",
        ],
    )
    curves: dict[str, dict[str, dict[str, list[float]]]] = {}
    for spec in (NETFLIX, YAHOO_R1, YAHOO_R2):
        small = spec.scaled(max_nnz)
        # Yahoo R1's 0-100 rating scale needs a smaller step at small k
        lr = 0.002 if spec.name == "R1" else 0.01
        ratings = small.generate(seed=seed)

        # numeric plane at small k for convergence; timing plane at the
        # paper's k=128 so the time axis is comparable with the baselines
        cfg = dataset_config(spec, k=k, epochs=epochs)
        cfg = replace(cfg, learning_rate=lr, seed=seed)
        hcc = run_hcc(overall_platform(), spec, cfg, ratings=ratings)
        timing = run_hcc(overall_platform(), spec, dataset_config(spec, k=128, epochs=epochs))
        hcc_epoch = timing.total_time / epochs

        fp = FPSGD(k=k, threads=4, lr=lr, reg=small.reg, seed=seed)
        fp.fit(ratings, epochs=epochs)
        fp_epoch = single_processor_time("6242", spec, epochs=1, k=128, threads=24)

        cu = CuMFSGD(k=k, gpu_threads=4096, lr=lr, reg=small.reg, seed=seed)
        cu.fit(ratings, epochs=epochs)
        cu_epoch = single_processor_time("2080S", spec, epochs=1, k=128)

        curves[spec.name] = {
            "HCC": {"rmse": hcc.rmse_history, "time": timing.time_axis()},
            "FPSGD": {
                "rmse": fp.history.rmse,
                "time": [fp_epoch * (i + 1) for i in range(epochs)],
            },
            "cuMF_SGD": {
                "rmse": cu.history.rmse,
                "time": [cu_epoch * (i + 1) for i in range(epochs)],
            },
        }
        paper_cu, paper_fp = _FIG7_PAPER_SPEEDUPS[spec.name]
        result.add_row(spec.name, "HCC", hcc.final_rmse, hcc_epoch * 1e3, 1.0, 1.0)
        result.add_row(
            spec.name, "cuMF_SGD", cu.history.final_rmse, cu_epoch * 1e3,
            speedup_of(cu_epoch, hcc_epoch), paper_cu,
        )
        result.add_row(
            spec.name, "FPSGD", fp.history.final_rmse, fp_epoch * 1e3,
            speedup_of(fp_epoch, hcc_epoch), paper_fp,
        )
    result.extra["curves"] = curves
    result.add_note(
        "speedup_vs = single-processor epoch time / HCC epoch time "
        "(equal-convergence-per-epoch, the paper's Figure 7d-f framing)"
    )
    return result


# ---------------------------------------------------------------------------
# Table 4: computing power and utilization
# ---------------------------------------------------------------------------
_TABLE4_PAPER_UTIL = {"Netflix": 0.86, "R1": 0.62, "R2": 0.88, "MovieLens-20m": 0.46}


def table4(epochs: int = 20, k: int = 128) -> ExperimentResult:
    """Table 4: per-processor computing power, ideal vs HCC, utilization."""
    result = ExperimentResult(
        "table4",
        "Computing power of 20-epoch training (updates/s)",
        [
            "dataset", "6242-24T", "6242-16T", "2080", "2080S",
            "Ideal", "HCC", "utilization", "paper_util",
        ],
    )
    platform = overall_platform()
    for spec in (NETFLIX, YAHOO_R1, YAHOO_R2, MOVIELENS_20M):
        rates = {}
        for label, name, threads in (
            ("6242-24T", "6242", 24),
            ("6242-16T", "6242", 16),
            ("2080", "2080", None),
            ("2080S", "2080S", None),
        ):
            rates[label] = spec.nnz / single_processor_time(name, spec, 1, k, threads)
        res = run_hcc(platform, spec, dataset_config(spec, k=k, epochs=epochs))
        # Table 4's "Ideal" column always sums the four processors'
        # independent powers, even when the active configuration (e.g.
        # R1's async streams) drops the time-shared special worker
        ideal = sum(rates.values())
        result.add_row(
            spec.name,
            rates["6242-24T"], rates["6242-16T"], rates["2080"], rates["2080S"],
            ideal, res.power, res.power / ideal,
            _TABLE4_PAPER_UTIL[spec.name],
        )
    result.add_note(
        "paper shape: >85% utilization on Netflix/R2, ~62% on R1, "
        "~46% on MovieLens (comm-bound, section 4.6)"
    )
    return result


# ---------------------------------------------------------------------------
# Figure 8: data-partition strategy phase breakdowns
# ---------------------------------------------------------------------------
def fig8(epochs: int = 20, k: int = 128) -> ExperimentResult:
    """Figure 8: cumulative pull/computing/push per worker, DP0/DP1/DP2."""
    result = ExperimentResult(
        "fig8",
        "Time statistics of 20 epochs under different partition strategies",
        [
            "dataset", "workers", "strategy", "worker",
            "pull_s", "computing_s", "push_s", "total_s",
        ],
    )
    cases = [
        (NETFLIX, ("dp0", "dp1")),
        (YAHOO_R2, ("dp0", "dp1")),
        (R1_STAR, ("dp1", "dp2")),
    ]
    reductions: dict[tuple[str, int, str], float] = {}
    for spec, strategies in cases:
        for n_workers in (3, 4):
            totals = {}
            for strat in strategies:
                config = HCCConfig(k=k, epochs=epochs, partition=PartitionStrategy(strat))
                res = run_hcc(workers_platform(n_workers), spec, config)
                totals[strat] = epochs * res.epoch_cost.total
                for wname, phases in res.phase_totals.items():
                    result.add_row(
                        spec.name, n_workers, strat, wname,
                        phases["pull"], phases["computing"], phases["push"],
                        phases["total"],
                    )
            a, b = strategies
            reductions[(spec.name, n_workers, b)] = 1.0 - totals[b] / totals[a]
    result.extra["reductions"] = reductions
    result.add_note(
        "paper shape: DP1 cuts ~12.2% (Netflix) / ~10% (R2) vs DP0; "
        "DP2 cuts ~12.1% vs DP1 on R1*-4workers"
    )
    return result


# ---------------------------------------------------------------------------
# Table 5: communication time under the optimization strategies
# ---------------------------------------------------------------------------
_TABLE5_PAPER = {
    # (backend, dataset, optimization) -> seconds
    ("COMM", "Netflix", "P&Q"): 3.289744, ("COMM", "Netflix", "Q"): 0.180084684,
    ("COMM", "Netflix", "half-Q"): 0.056680425,
    ("COMM", "R1", "P&Q"): 19.569929, ("COMM", "R1", "Q"): 6.729931,
    ("COMM", "R1", "half-Q"): 2.04014235,
    ("COMM", "R2", "P&Q"): 7.0763885, ("COMM", "R2", "Q"): 0.9467911,
    ("COMM", "R2", "half-Q"): 0.31296455,
    ("COMM-P", "Netflix", "P&Q"): 21.8169325, ("COMM-P", "Netflix", "Q"): 1.461305316,
    ("COMM-P", "Netflix", "half-Q"): 0.53061025,
    ("COMM-P", "R1", "P&Q"): 140.821585, ("COMM-P", "R1", "Q"): 50.57931,
    ("COMM-P", "R1", "half-Q"): 24.5123435,
    ("COMM-P", "R2", "P&Q"): 51.00871, ("COMM-P", "R2", "Q"): 7.190965,
    ("COMM-P", "R2", "half-Q"): 4.039398,
}


def table5(epochs: int = 20, k: int = 128) -> ExperimentResult:
    """Table 5: 20-epoch communication time, COMM vs COMM-P x strategies."""
    result = ExperimentResult(
        "table5",
        "The communication time of 20 epochs",
        ["backend", "dataset", "optimization", "cost_time_s", "speedup", "paper_s", "paper_speedup"],
    )
    modes = [
        ("P&Q", TransmitMode.P_AND_Q, False),
        ("Q", TransmitMode.Q_ONLY, False),
        ("half-Q", TransmitMode.Q_ONLY, True),
    ]
    for backend_label, backend in (("COMM", CommBackendKind.COMM), ("COMM-P", CommBackendKind.COMM_P)):
        for spec in (NETFLIX, YAHOO_R1, YAHOO_R2):
            base_time = None
            paper_base = _TABLE5_PAPER[(backend_label, spec.name, "P&Q")]
            for label, tm, fp16 in modes:
                config = HCCConfig(
                    k=k, epochs=epochs,
                    comm=CommConfig(transmit=tm, fp16=fp16, backend=backend),
                )
                res = run_hcc(workers_platform(4), spec, config)
                comm_time = res.comm_time
                if base_time is None:
                    base_time = comm_time
                paper_t = _TABLE5_PAPER[(backend_label, spec.name, label)]
                result.add_row(
                    backend_label, spec.name, label, comm_time,
                    base_time / comm_time, paper_t, paper_base / paper_t,
                )
    result.add_note(
        "paper shape: Q-only speedup ~18x Netflix / ~2.9x R1 / ~7.5x R2; "
        "FP16 >= 2x more; COMM ~7x faster than ps-lite COMM-P"
    )
    return result


# ---------------------------------------------------------------------------
# Figure 9: computing power vs system scale
# ---------------------------------------------------------------------------
def fig9(epochs: int = 20, k: int = 128) -> ExperimentResult:
    """Figure 9: stacked computing power as workers join, HCC vs Ideal."""
    result = ExperimentResult(
        "fig9",
        "Computing power after adding heterogeneous processors in turn",
        ["dataset", "scale", "worker", "hcc_power", "ideal_power", "hcc_total", "ideal_total"],
    )
    efficiencies: dict[tuple[str, str], float] = {}
    for spec in (NETFLIX, YAHOO_R2, YAHOO_R1, R1_STAR):
        # Figure 9(c) stops at 3 workers for R1: the 4th (time-shared)
        # worker's extra sync outweighs its capacity on that dataset
        max_workers = 3 if spec.name == "R1" else 4
        for n in range(1, max_workers + 1):
            platform = workers_platform(n)
            # one consistent configuration across scales, so each added
            # worker's contribution is directly comparable
            config = HCCConfig(k=k, epochs=epochs)
            res = run_hcc(platform, spec, config)
            ideal_each = {
                w.name: (w.with_time_share(1.0) if w.time_share < 1 else w).update_rate(
                    k, spec, 1.0
                )
                for w in platform.workers
            }
            for wname, power in res.worker_powers.items():
                result.add_row(
                    spec.name, n, wname, power, ideal_each[wname],
                    res.power, res.ideal_power,
                )
                if n == max_workers:
                    efficiencies[(spec.name, wname)] = power / ideal_each[wname]
    result.extra["worker_efficiency"] = efficiencies
    result.add_note(
        "paper shape: power rises monotonically with workers; ordinary "
        "workers contribute >80% of their own power on Netflix/R2, ~45% on "
        "R1/R1*; the time-shared special worker >70%"
    )
    return result


# ---------------------------------------------------------------------------
# Table 6: the MovieLens-20m limitation
# ---------------------------------------------------------------------------
def table6(epochs: int = 20, k: int = 128) -> ExperimentResult:
    """Table 6: adding a GPU barely helps when comm ~ compute."""
    result = ExperimentResult(
        "table6",
        "Limitation shown with MovieLens-20m (20-epoch phase times)",
        ["config", "worker", "pull_s", "computing_s", "push_s", "cost_s"],
    )
    single_gpu, cfg1 = build_combo(["2080S"])
    res1 = run_hcc(single_gpu, MOVIELENS_20M, replace(cfg1, k=k, epochs=epochs))
    for wname, ph in res1.phase_totals.items():
        result.add_row("HCC 2080S", wname, ph["pull"], ph["computing"], ph["push"], res1.total_time)

    dual_gpu, cfg2 = build_combo(["2080S", "2080"])
    res2 = run_hcc(dual_gpu, MOVIELENS_20M, replace(cfg2, k=k, epochs=epochs))
    for wname, ph in res2.phase_totals.items():
        result.add_row("HCC 2080S-2080", wname, ph["pull"], ph["computing"], ph["push"], res2.total_time)

    cumf_compute = single_processor_time("2080S", MOVIELENS_20M, epochs, k)
    # CuMF_SGD moves the feature matrices on/off the GPU once per run
    model = HCCMF(single_gpu, MOVIELENS_20M, HCCConfig(k=k)).cost_model
    gpu = single_gpu.workers[0]
    once = model.pull_time(gpu) + model.push_time(gpu)
    result.add_row("CuMF_SGD 2080S", gpu.name, once / 2, cumf_compute, once / 2, cumf_compute + once)

    result.extra["totals"] = {"single": res1.total_time, "dual": res2.total_time}
    result.add_note(
        "paper shape: 0.559s -> 0.449s only (communication does not shrink "
        "with more workers; nnz/(m+n) ~ 74 << 1e3, section 3.4's bound)"
    )
    return result


#: experiment id -> generator, for harness iteration
ALL_EXPERIMENTS = {
    "fig3a": fig3a,
    "fig3b": fig3b,
    "table2": table2,
    "fig5": fig5_timing_sequences,
    "fig6": fig6_async_pipeline,
    "fig7": fig7,
    "table4": table4,
    "fig8": fig8,
    "table5": table5,
    "fig9": fig9,
    "table6": table6,
}
