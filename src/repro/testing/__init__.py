"""repro.testing: the cross-plane chaos-parity harness.

The differential enforcement mechanism for the resilience plane
(docs/resilience.md): seeded fault scenarios (:mod:`repro.testing.chaos`)
run through *both* compute backends, and the outcomes are held to a
parity contract (:mod:`repro.testing.parity`) — identical recovery
decisions, identical final partition fractions and RMSE within
tolerance.  ``repro chaos-parity`` is the CLI entry
point; ``tests/test_chaos_parity.py`` the pytest one.
"""

from repro.testing.chaos import (
    ChaosScenario,
    default_matrix,
    generate_scenarios,
    parity_platform,
)
from repro.testing.parity import (
    ParityCheck,
    ParityReport,
    PlaneOutcome,
    check_invariants,
    check_parity,
    run_scenario,
)

__all__ = [
    "ChaosScenario",
    "ParityCheck",
    "ParityReport",
    "PlaneOutcome",
    "check_invariants",
    "check_parity",
    "default_matrix",
    "generate_scenarios",
    "parity_platform",
    "run_scenario",
]
