"""Partition providers: who decides the per-worker shard fractions.

The engine does not care *how* a :class:`~repro.core.partition.PartitionPlan`
was derived — evenly, from independently measured throughput (DP0),
from the runtime compensation loop (DP1), from sync staggering (DP2),
or handed in fixed.  A provider is anything with
``plan(n_workers) -> PartitionPlan``; this module supplies the adapters
both planes use:

* :class:`FixedPlanProvider` — wrap an existing plan (the sim plane's
  cost-model-derived DP0/DP1/DP2 plans, or a wall-clock-measured plan
  from :mod:`repro.parallel.tuning`);
* :class:`FractionsProvider` — raw shard fractions;
* :class:`EvenProvider` — the DSGD-style uniform baseline;
* :class:`CostModelProvider` — derive the plan from a calibrated
  :class:`~repro.core.cost_model.TimeCostModel` on demand.

:func:`as_provider` coerces the loose inputs ``EpochEngine(partitions=)``
accepts (``None``, a fraction list, a plan, a provider) into one of the above.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol, runtime_checkable

from repro.core.config import PartitionStrategy
from repro.core.partition import PartitionPlan, even_partition


@runtime_checkable
class PartitionProvider(Protocol):
    """Anything that can produce a partition plan for ``n_workers``."""

    def plan(self, n_workers: int) -> PartitionPlan:
        """Return the shard-fraction plan for this many workers."""
        ...  # pragma: no cover - protocol


@dataclass(frozen=True)
class EvenProvider:
    """Uniform split — the heterogeneity-blind baseline."""

    def plan(self, n_workers: int) -> PartitionPlan:
        return even_partition(n_workers)


@dataclass(frozen=True)
class FixedPlanProvider:
    """A pre-derived plan; worker count must match at use time."""

    fixed: PartitionPlan

    def plan(self, n_workers: int) -> PartitionPlan:
        if self.fixed.n_workers != n_workers:
            raise ValueError(
                f"partition plan has {self.fixed.n_workers} fractions "
                f"but the backend runs {n_workers} workers"
            )
        return self.fixed


@dataclass(frozen=True)
class FractionsProvider:
    """Raw shard fractions (validated onto the unit simplex)."""

    fractions: tuple[float, ...]
    strategy: str = "fixed"

    def plan(self, n_workers: int) -> PartitionPlan:
        if len(self.fractions) != n_workers:
            raise ValueError(
                f"{len(self.fractions)} fractions for {n_workers} workers"
            )
        return PartitionPlan(self.strategy, tuple(float(f) for f in self.fractions))


@dataclass(frozen=True)
class CostModelProvider:
    """Derive the plan from a calibrated cost model (the sim plane's path)."""

    cost_model: object  # TimeCostModel (duck-typed to avoid a heavy import)
    strategy: PartitionStrategy = PartitionStrategy.AUTO

    def plan(self, n_workers: int) -> PartitionPlan:
        derived = self.cost_model.derive_partition(self.strategy)
        if derived.n_workers != n_workers:
            raise ValueError(
                f"cost model derived {derived.n_workers} fractions "
                f"but the backend runs {n_workers} workers"
            )
        return derived


def as_provider(partition) -> PartitionProvider:
    """Coerce the engine's loose ``partitions=`` argument to a provider.

    Accepts ``None`` (even split), a :class:`PartitionPlan`, a sequence
    of fractions, or any object already satisfying the protocol.
    """
    if partition is None:
        return EvenProvider()
    if isinstance(partition, PartitionPlan):
        return FixedPlanProvider(partition)
    if isinstance(partition, (list, tuple)):
        return FractionsProvider(tuple(float(f) for f in partition))
    if isinstance(partition, PartitionProvider):
        return partition
    raise TypeError(
        f"cannot interpret {type(partition).__name__} as a partition provider"
    )
