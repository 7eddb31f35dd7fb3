"""The repo benchmark: four train -> publish -> serve workloads.

``python -m perf run`` drives the pipeline through the existing front
doors (``EpochEngine.run``, ``save_checkpoint``, ``ModelStore.swap``,
``Scorer.top_k``), prints every metric by name and unit, and checks the
outputs.  ``BENCHMARK.json`` at the repo root is the contract; the
metric dictionary, workload rationale and sizing facts are in
``perf/README.md``.

The parent process (:mod:`perf.runner`, :mod:`perf.workloads`,
:mod:`perf.stats`) never imports ``repro`` or numpy: the environment is
pinned before numpy loads, and a fresh interpreter's ``import repro`` is
part of ``setup_s``, so only the children (:mod:`perf.child`) pay it.
"""
