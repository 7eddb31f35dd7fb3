"""Fault injection for both planes (docs/resilience.md).

A :class:`FaultPlan` is an immutable script of failures to inject into
a run of either backend of :mod:`repro.engine.backends`.  Faults are
keyed by *global* epoch (checkpoint-resumed and recovery-restarted runs
keep counting where they left off) and worker rank, and each fires at
most once: after a failure the engine prunes everything at or before
the failed epoch (:meth:`FaultPlan.without_epochs_through`), so a
retried epoch does not trip over the fault that killed it.

Four fault kinds cover the failure taxonomy:

* ``kill`` — the worker dies at the top of the epoch.  Soft kills raise
  inside the worker (a crashing process that still runs interpreter
  teardown); hard kills ``os._exit`` without any cleanup (SIGKILL-like).
  Neither touches the barrier — a real crashed process cannot abort a
  rendezvous — so the server detects the death from the exit code.
* ``delay`` — the worker sleeps before stamping one barrier, turning
  it into a straggler; a delay past ``barrier_timeout_s`` surfaces as
  a :class:`~repro.engine.backends.WorkerSyncError`.
* ``drop`` — the worker's push payload is lost on the wire: the push
  wire carries the epoch base instead of the trained result, so the
  server merges a zero delta (the epoch's work from that worker
  silently vanishes — which the additive merge tolerates by design).
* ``corrupt`` — the push payload arrives as garbage (NaN), which the
  server's payload validation rejects as a
  :class:`~repro.engine.backends.WirePayloadError`.

``drop`` and ``corrupt`` fire inside the one push encode both planes
run (``worker_proc._encode_push``) and reach the server through the
wire; ``kill`` and ``delay`` are looked up with
:func:`fault_before_barrier` by a worker process before it stamps and
by ``SimBackend``'s simulated rendezvous.

Plans are plain frozen dataclasses, so they pickle into spawned worker
processes unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

KILL = "kill"
DELAY = "delay"
DROP = "drop"
CORRUPT = "corrupt"

_KINDS = (KILL, DELAY, DROP, CORRUPT)
_BARRIER_POINTS = ("start", "end")


@dataclass(frozen=True)
class Fault:
    """One injected failure: what happens to which rank at which epoch."""

    kind: str
    rank: int
    epoch: int
    #: delay only: how long the worker stalls before stamping
    seconds: float = 0.0
    #: delay only: which barrier the stall precedes
    point: str = "start"
    #: kill only: die via os._exit (no cleanup) instead of abort+raise
    hard: bool = False

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}; one of {_KINDS}")
        if self.rank < 0:
            raise ValueError("rank must be non-negative")
        if self.epoch < 0:
            raise ValueError("epoch must be non-negative")
        if self.seconds < 0:
            raise ValueError("seconds must be non-negative")
        if self.point not in _BARRIER_POINTS:
            raise ValueError(f"point must be one of {_BARRIER_POINTS}")
        if self.kind != DELAY and self.seconds:
            raise ValueError(f"seconds only applies to {DELAY!r} faults")
        if self.hard and self.kind != KILL:
            raise ValueError(f"hard only applies to {KILL!r} faults")

    def describe(self) -> str:
        detail = ""
        if self.kind == DELAY:
            detail = f" by {self.seconds:g}s before the {self.point} barrier"
        elif self.kind == KILL and self.hard:
            detail = " (hard)"
        return f"{self.kind} worker-{self.rank} at epoch {self.epoch}{detail}"


@dataclass(frozen=True)
class FaultPlan:
    """An immutable script of faults; built fluently, pickled to workers.

    ``FaultPlan().kill(1, epoch=2).delay_barrier(0, epoch=4, seconds=3)``
    """

    faults: tuple[Fault, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "faults", tuple(self.faults))

    # -- builders --------------------------------------------------------
    def _with(self, fault: Fault) -> "FaultPlan":
        return replace(self, faults=self.faults + (fault,))

    def kill(self, rank: int, epoch: int, hard: bool = False) -> "FaultPlan":
        """Worker ``rank`` dies at the top of ``epoch``."""
        return self._with(Fault(KILL, rank, epoch, hard=hard))

    def delay_barrier(
        self, rank: int, epoch: int, seconds: float, point: str = "start"
    ) -> "FaultPlan":
        """Worker ``rank`` stalls before stamping one of ``epoch``'s barriers."""
        return self._with(Fault(DELAY, rank, epoch, seconds=seconds, point=point))

    def drop_payload(self, rank: int, epoch: int) -> "FaultPlan":
        """Worker ``rank``'s push for ``epoch`` is lost on the wire."""
        return self._with(Fault(DROP, rank, epoch))

    def corrupt_payload(self, rank: int, epoch: int) -> "FaultPlan":
        """Worker ``rank``'s push for ``epoch`` arrives as garbage."""
        return self._with(Fault(CORRUPT, rank, epoch))

    # -- queries ---------------------------------------------------------
    def for_rank(self, rank: int) -> tuple[Fault, ...]:
        """The faults one worker process needs to carry with it."""
        return tuple(f for f in self.faults if f.rank == rank)

    def without_epochs_through(self, epoch: int) -> "FaultPlan":
        """Drop every fault at or before ``epoch`` (already fired).

        Called by the engine after a recovery restart: the failed epoch
        is re-run, and a fault keyed to it must not fire twice.
        """
        return replace(
            self, faults=tuple(f for f in self.faults if f.epoch > epoch)
        )

    def remap_ranks(
        self, dead_ranks: "tuple[int, ...] | list[int] | set[int]", n_workers: int
    ) -> "FaultPlan":
        """Renumber pending faults after a redistribution removes ranks.

        ``redistribute()`` compacts the survivors onto ranks
        ``0..n-1``, so a fault scheduled for (old) rank ``r`` must
        follow the worker it was aimed at to that worker's *new* rank.
        Faults aimed at a dead rank are dropped — their target no
        longer exists — as are faults on ranks outside the plan.
        """
        dead = set(dead_ranks)
        new_rank: dict[int, int] = {}
        for rank in range(n_workers):
            if rank in dead:
                continue
            new_rank[rank] = len(new_rank)
        kept = tuple(
            replace(f, rank=new_rank[f.rank])
            for f in self.faults
            if f.rank in new_rank
        )
        return replace(self, faults=kept)

    def __len__(self) -> int:
        return len(self.faults)

    def __bool__(self) -> bool:
        return bool(self.faults)

    def describe(self) -> str:
        if not self.faults:
            return "no faults"
        return "; ".join(f.describe() for f in self.faults)


def fault_at(
    faults: tuple[Fault, ...], kind: str, epoch: int
) -> Fault | None:
    """First fault of ``kind`` scheduled for ``epoch`` (worker-side lookup)."""
    for fault in faults:
        if fault.kind == kind and fault.epoch == epoch:
            return fault
    return None


def fault_before_barrier(
    faults: tuple[Fault, ...], epoch: int, point: str
) -> Fault | None:
    """The kill or delay that keeps a rank from stamping one barrier.

    A kill fires at the top of its epoch, so it belongs to the start
    barrier and wins over a delay there; a delay belongs to the barrier
    its ``point`` names.
    """
    if point == "start":
        kill = fault_at(faults, KILL, epoch)
        if kill is not None:
            return kill
    delay = fault_at(faults, DELAY, epoch)
    if delay is not None and delay.point == point:
        return delay
    return None
