"""repro.serving — the serving plane: top-k queries over trained models.

Training produces checkpoints; this package turns them into a service
(the north star's "millions of users under heavy traffic" read path):

* :mod:`repro.serving.store` — :class:`ModelStore` loads
  :mod:`repro.core.checkpoint` checkpoints and atomically hot-swaps
  snapshots under live traffic; readers always see one consistent
  ``(P, Q, version)`` triple, and a failed swap degrades to the last
  good snapshot (counted as ``serving_swap_failed``), never a crash;
* :mod:`repro.serving.scorer` — :class:`Scorer` answers batched top-k
  queries by vectorized P·Qᵀ with exclude-seen masks, allow-list
  candidates, per-request k, deterministic tie-breaking, and an
  optional FP16-precision path matching the wire codec's semantics.

See docs/serving.md for the architecture; ``python3 -m perf`` measures
it under load (``perf/serve.py``).
"""

from repro.serving.scorer import PRECISIONS, Scorer, SeenIndex, TopKResult
from repro.serving.store import (
    SWAP_FAILURE_REASONS,
    ModelSnapshot,
    ModelStore,
    ServingError,
    SwapResult,
)

__all__ = [
    "PRECISIONS",
    "SWAP_FAILURE_REASONS",
    "ModelSnapshot",
    "ModelStore",
    "Scorer",
    "SeenIndex",
    "ServingError",
    "SwapResult",
    "TopKResult",
]
