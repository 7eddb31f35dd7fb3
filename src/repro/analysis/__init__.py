"""Static analysis and dynamic race detection for HCC-MF invariants.

Three layers, all guarding properties the paper only *assumes*:

* :mod:`repro.analysis.lint` — **hcclint**, a lint framework whose
  AST rules (:mod:`repro.analysis.rules`, HCC1xx) guard the concurrency
  and cost-model invariants (shared-memory lifecycle, hot-path
  allocation, FP32 kernel hygiene, P/Q ownership, worker-loop blocking,
  bytes-vs-seconds unit mixing).
* :mod:`repro.analysis.flow` — flow-sensitive HCC2xx rules over a
  CFG/dataflow framework (:mod:`repro.analysis.cfg`): path-aware
  resource lifecycle, exception safety in the engine/resilience layer,
  float64 taint into kernels, and backend stage-protocol conformance.
  Every ``repro lint`` run applies both tiers.
* :mod:`repro.analysis.race` — a dynamic race / ownership detector that
  replays the pull/train/push/sync epoch structure against a
  vector-clock access log and flags cross-worker P-row overlap or
  violations of the one-copy buffer discipline (paper section 3.4/3.5).

Lint findings print as text through :mod:`repro.analysis.reporters`.

Entry points: ``repro lint`` and ``repro race-check`` on the CLI, or
:func:`lint_paths` / :func:`race_check` from Python.
"""

from repro.analysis.cfg import CFG, Block, build_cfg
from repro.analysis.flow import (
    FlowAnalysis,
    FunctionSummary,
    module_summaries,
    reaching_definitions,
    run_analysis,
    summarize_function,
)
from repro.analysis.lint import (
    FileContext,
    LintIssue,
    Rule,
    all_rules,
    lint_paths,
    lint_source,
)
from repro.analysis.race import (
    Access,
    RaceLog,
    RaceReport,
    RaceViolation,
    check_row_ownership,
    race_check,
    tracked_train,
)
from repro.analysis.reporters import render_text

__all__ = [
    "Access",
    "Block",
    "CFG",
    "FileContext",
    "FlowAnalysis",
    "FunctionSummary",
    "LintIssue",
    "RaceLog",
    "RaceReport",
    "RaceViolation",
    "Rule",
    "all_rules",
    "build_cfg",
    "check_row_ownership",
    "lint_paths",
    "lint_source",
    "module_summaries",
    "race_check",
    "reaching_definitions",
    "render_text",
    "run_analysis",
    "summarize_function",
    "tracked_train",
]
