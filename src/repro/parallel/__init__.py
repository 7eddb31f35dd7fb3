"""Real shared-memory parallel execution substrate.

The paper implements HCC-MF with one *process* per worker and shared
pinned memory for the pull/push buffers (section 3.5).  This subpackage
holds those mechanics' host-CPU substrate: named
:mod:`multiprocessing.shared_memory` segments (:mod:`repro.parallel.shm`)
and the wall-clock DP0/DP1 measurement (:mod:`repro.parallel.tuning`).
The server and worker processes that train over them are
:class:`repro.engine.backends.ProcessBackend` under
:class:`repro.engine.pipeline.EpochEngine`; the calibrated timing plane
(:mod:`repro.hardware`) models the paper's actual CPU+GPU testbed.
"""
