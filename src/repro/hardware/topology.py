"""Platform topology: processors wired to a parameter server by buses.

Models the multi-CPU/GPU architecture of paper Figure 2: a star whose
centre is the server and whose edges, one per worker, carry
:class:`BusSpec` channels.  "As long as these connection channels are
sufficient, processors can communicate in parallel without losing
bandwidth" — hence each worker's pull/push uses its own edge bandwidth,
concurrently with the others.

The canonical instance is :func:`paper_workstation` — the section 4.1
testbed: two Xeon Gold 6242 (CPU_0 hosting the server), an RTX 2080 and
an RTX 2080 Super on PCI-E 3.0 x16, CPU_1 over UPI.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.hardware.processor import Processor
from repro.hardware.specs import (
    BusSpec,
    PCIE3_X16,
    ProcessorSpec,
    RTX_2080,
    RTX_2080S,
    SHARED_MEMORY,
    UPI,
    XEON_6242,
)


@dataclass
class Platform:
    """A multi-CPU/GPU machine: one server plus worker processors."""

    server: Processor
    _workers: list[Processor] = field(default_factory=list)
    #: worker name -> the bus joining it to the server
    _buses: dict[str, BusSpec] = field(default_factory=dict)
    _channels: dict[str, str | None] = field(default_factory=dict)

    # ------------------------------------------------------------------
    def add_worker(
        self,
        processor: Processor,
        bus: BusSpec,
        channel: str | None = None,
    ) -> Processor:
        """Attach a worker to the server via a bus channel.

        ``channel`` names the *physical* link: workers that share a
        channel id split its bandwidth when they transfer concurrently.
        The paper's Figure 2 assumes "these connection channels are
        sufficient" — separate x16 slots per GPU; leaving ``channel``
        None models exactly that (each worker's link is exclusive).
        """
        if processor.name == self.server.name or processor.name in self._buses:
            raise ValueError(f"duplicate processor name {processor.name!r}")
        self._buses[processor.name] = bus
        self._workers.append(processor)
        self._channels[processor.name] = channel
        return processor

    def channel_of(self, worker: Processor | str) -> str | None:
        """The physical channel id this worker was attached with."""
        name = worker if isinstance(worker, str) else worker.name
        if name not in self._channels:
            raise KeyError(f"no worker named {name!r}")
        return self._channels[name]

    def channel_sharing(self, worker: Processor | str) -> int:
        """How many workers contend on this worker's physical channel."""
        name = worker if isinstance(worker, str) else worker.name
        if name not in self._channels:
            raise KeyError(f"no worker named {name!r}")
        channel = self._channels[name]
        if channel is None:
            return 1
        return sum(1 for c in self._channels.values() if c == channel)

    @property
    def workers(self) -> list[Processor]:
        return list(self._workers)

    @property
    def processors(self) -> list[Processor]:
        return [self.server, *self._workers]

    @property
    def n_workers(self) -> int:
        return len(self._workers)

    def worker(self, name: str) -> Processor:
        for w in self._workers:
            if w.name == name:
                return w
        raise KeyError(f"no worker named {name!r}")

    def bus(self, worker: Processor | str) -> BusSpec:
        """The channel connecting a worker to the server."""
        name = worker if isinstance(worker, str) else worker.name
        try:
            return self._buses[name]
        except KeyError as exc:
            raise KeyError(f"no bus between server and {name!r}") from exc

    def counts(self) -> tuple[int, int]:
        """(number of CPU workers, number of GPU workers) — (c, g) in Table 1."""
        c = sum(1 for w in self._workers if w.is_cpu)
        g = sum(1 for w in self._workers if w.is_gpu)
        return c, g

    def total_price(self) -> float:
        """Hardware cost of the distinct physical processors (Figure 3b).

        A time-shared worker (``time_share < 1``) reuses the server's
        physical CPU and therefore adds no cost.
        """
        total = self.server.spec.price_usd
        for p in self._workers:
            if p.time_share < 1.0:
                continue
            total += p.spec.price_usd
        return total

    def describe(self) -> str:
        lines = [f"server: {self.server.name} ({self.server.kind.value})"]
        for w in self._workers:
            bus = self.bus(w)
            lines.append(
                f"worker: {w.name} ({w.kind.value}, {w.threads} threads) "
                f"via {bus.name} @ {bus.bandwidth_gbs:g} GB/s"
            )
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------------
def paper_workstation(
    cpu0_threads: int = 16,
    include_special_worker: bool = True,
    special_worker_share: float = 0.85,
) -> Platform:
    """The section 4.1 testbed.

    CPU_0 hosts the parameter server and (unless Strategy 3 is active)
    a time-shared "special worker"; CPU_1 is a full worker over UPI; the
    two GPUs hang off CPU_0's PCI-E 3.0 x16 slots.  The paper runs
    CPU_0 with 16 threads for peak performance or 10 threads "to
    increase the heterogeneity" — pass ``cpu0_threads`` accordingly.
    """
    server = Processor(XEON_6242, threads=cpu0_threads, instance="cpu0")
    platform = Platform(server=server)
    if include_special_worker:
        special = Processor(
            XEON_6242,
            threads=cpu0_threads,
            instance="cpu0w",
            time_share=special_worker_share,
        )
        platform.add_worker(special, SHARED_MEMORY)
    platform.add_worker(Processor(XEON_6242, threads=24, instance="cpu1"), UPI)
    platform.add_worker(Processor(RTX_2080S, instance="gpu0"), PCIE3_X16)
    platform.add_worker(Processor(RTX_2080, instance="gpu1"), PCIE3_X16)
    return platform


def single_processor(spec: ProcessorSpec, threads: int | None = None) -> Platform:
    """A degenerate platform: one processor computing alone.

    The server role is nominal (no cross-processor communication), used
    for the independent-worker baselines of Figure 3(a) and Table 4.
    """
    server = Processor(XEON_6242, threads=16, instance="host")
    platform = Platform(server=server)
    platform.add_worker(
        Processor(spec, threads=threads),
        SHARED_MEMORY if spec.is_cpu else PCIE3_X16,
    )
    return platform


def custom_platform(
    workers: list[tuple[ProcessorSpec, int | None, BusSpec]],
    server_spec: ProcessorSpec = XEON_6242,
    server_threads: int = 16,
) -> Platform:
    """Assemble an arbitrary platform from (spec, threads, bus) triples."""
    server = Processor(server_spec, threads=server_threads, instance="srv")
    platform = Platform(server=server)
    for i, (spec, threads, bus) in enumerate(workers):
        platform.add_worker(Processor(spec, threads=threads, instance=f"w{i}"), bus)
    return platform
