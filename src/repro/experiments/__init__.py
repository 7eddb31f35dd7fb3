"""Reproduction harness: one generator per paper table and figure.

Each ``figN``/``tableN`` function runs the corresponding experiment on
the calibrated platform model (plus the numeric plane where convergence
is under study) and returns an
:class:`~repro.experiments.tables.ExperimentResult` whose ``render()`` prints the same rows/series the paper reports.

See DESIGN.md section 4 for the experiment index and EXPERIMENTS.md for
paper-vs-measured values.
"""
