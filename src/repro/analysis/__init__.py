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

Entry points: ``repro lint`` on the CLI, or
:func:`repro.analysis.lint.lint_paths` from Python.  The race detector has no command: it runs as tier-1 tests
(``tests/test_analysis_race.py``) over the DP0/DP1/DP2 plans and a
deliberately overlapping one.
"""
