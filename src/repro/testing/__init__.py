"""repro.testing: the cross-plane chaos-parity harness.

The differential enforcement mechanism for the resilience plane
(docs/resilience.md): seeded fault scenarios (:mod:`repro.testing.chaos`)
run through *both* compute backends, and the outcomes are held to a
parity contract (:mod:`repro.testing.parity`) — identical recovery
decisions, identical final partition fractions and RMSE within
tolerance.  ``tests/test_chaos_parity.py`` runs it: named scenarios
through both planes, the whole default matrix and a 50-scenario
randomized sweep sim-side.
"""
