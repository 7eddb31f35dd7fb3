"""What-if platform exploration: hypothetical hardware under the model.

The calibrated cost model prices *any* platform the catalog can
describe, so it can answer design questions the paper's fixed testbed
cannot: what would NVLink buy?  How many GPUs before communication
saturates?  Is a V100 pool better value than 2080-class cards?

These helpers build hypothetical platforms and sweep them against a
dataset, returning plain result rows (used by the ablation benches and
the ``heterogeneous_scaling`` example's what-if section).
"""

from __future__ import annotations

from dataclasses import dataclass, replace as dc_replace

from repro.core.config import CommConfig, HCCConfig
from repro.data.datasets import DatasetSpec
from repro.framework import HCCMF
from repro.hardware.processor import Processor
from repro.hardware.specs import (
    BusKind,
    BusSpec,
    PCIE3_X16,
    PROCESSOR_CATALOG,
    ProcessorSpec,
    XEON_6242,
)
from repro.hardware.topology import Platform

#: faster interconnect generations for what-if sweeps
PCIE4_X16 = BusSpec(name="PCI-E 4.0 x16", kind=BusKind.PCIE, bandwidth_gbs=31.5)
NVLINK2 = BusSpec(name="NVLink 2.0", kind=BusKind.NVLINK, bandwidth_gbs=75.0)

BUS_GENERATIONS: dict[str, BusSpec] = {
    "pcie3": PCIE3_X16,
    "pcie4": PCIE4_X16,
    "nvlink": NVLINK2,
}


def gpu_pool(
    gpu_name: str,
    count: int,
    bus: BusSpec = PCIE3_X16,
    server_threads: int = 16,
    shared_channel: bool = False,
) -> Platform:
    """A host CPU serving ``count`` identical GPUs.

    ``shared_channel=True`` hangs every GPU off one physical link (a
    PCI-E switch / bifurcated slot): their transfers then contend —
    the violation of Figure 2's "channels are sufficient" assumption.
    """
    if count <= 0:
        raise ValueError("count must be positive")
    try:
        spec = PROCESSOR_CATALOG[gpu_name]
    except KeyError as exc:
        raise KeyError(f"unknown processor {gpu_name!r}") from exc
    if not spec.is_gpu:
        raise ValueError(f"{gpu_name} is not a GPU")
    server = Processor(XEON_6242, threads=server_threads, instance="host")
    platform = Platform(server=server)
    channel = "shared-slot" if shared_channel else None
    for i in range(count):
        platform.add_worker(Processor(spec, instance=f"g{i}"), bus, channel=channel)
    return platform


def sweep_channel_contention(
    dataset: DatasetSpec,
    gpu_name: str = "2080S",
    max_gpus: int = 4,
    k: int = 128,
    epochs: int = 20,
) -> list[WhatIfRow]:
    """Exclusive x16 slots vs one shared link, as GPUs are added.

    Quantifies the paper's Figure 2 caveat: collaboration only scales
    "as long as these connection channels are sufficient".
    """
    rows = []
    for shared in (False, True):
        for count in range(1, max_gpus + 1):
            platform = gpu_pool(gpu_name, count, shared_channel=shared)
            res = HCCMF(platform, dataset, HCCConfig(k=k, epochs=epochs)).train()
            label = "shared link" if shared else "exclusive slots"
            rows.append(
                WhatIfRow(
                    label=f"{count}x {gpu_name}, {label}",
                    total_time=res.total_time,
                    power=res.power,
                    utilization=res.utilization,
                    price=platform.total_price(),
                )
            )
    return rows


@dataclass(frozen=True)
class WhatIfRow:
    """One evaluated hypothetical configuration."""

    label: str
    total_time: float
    power: float
    utilization: float
    price: float

    @property
    def power_per_dollar(self) -> float:
        return self.power / self.price if self.price > 0 else float("inf")


def sweep_gpu_count(
    dataset: DatasetSpec,
    gpu_name: str = "2080S",
    max_gpus: int = 8,
    bus: BusSpec = PCIE3_X16,
    k: int = 128,
    epochs: int = 20,
    comm: CommConfig | None = None,
) -> list[WhatIfRow]:
    """Total time and value as identical GPUs are added.

    Shows where communication/synchronization saturate the scaling —
    the Table 6 effect generalized to any dataset shape.
    """
    rows = []
    for count in range(1, max_gpus + 1):
        platform = gpu_pool(gpu_name, count, bus=bus)
        config = HCCConfig(k=k, epochs=epochs, comm=comm or CommConfig())
        res = HCCMF(platform, dataset, config).train()
        rows.append(
            WhatIfRow(
                label=f"{count}x {gpu_name} ({bus.name})",
                total_time=res.total_time,
                power=res.power,
                utilization=res.utilization,
                price=platform.total_price(),
            )
        )
    return rows


def sweep_interconnect(
    dataset: DatasetSpec,
    gpu_name: str = "2080S",
    count: int = 2,
    k: int = 128,
    epochs: int = 20,
) -> list[WhatIfRow]:
    """The same GPU pool across interconnect generations."""
    rows = []
    for label, bus in BUS_GENERATIONS.items():
        platform = gpu_pool(gpu_name, count, bus=bus)
        res = HCCMF(platform, dataset, HCCConfig(k=k, epochs=epochs)).train()
        rows.append(
            WhatIfRow(
                label=f"{count}x {gpu_name} over {label}",
                total_time=res.total_time,
                power=res.power,
                utilization=res.utilization,
                price=platform.total_price(),
            )
        )
    return rows


def hypothetical_gpu(
    name: str,
    base: str = "2080S",
    rate_multiplier: float = 1.0,
    memory_gb: float | None = None,
    price_usd: float | None = None,
) -> ProcessorSpec:
    """Derive a hypothetical GPU spec from a catalog entry.

    Useful for roadmap questions ("a 2x-faster 2080S with 16 GB"): the
    derived spec plugs into any Platform like a real one.
    """
    if rate_multiplier <= 0:
        raise ValueError("rate_multiplier must be positive")
    spec = PROCESSOR_CATALOG[base]
    return dc_replace(
        spec,
        name=name,
        base_rate_k128=spec.base_rate_k128 * rate_multiplier,
        bandwidth_anchors=tuple(
            (t, b * rate_multiplier) for t, b in spec.bandwidth_anchors
        ),
        memory_gb=memory_gb if memory_gb is not None else spec.memory_gb,
        price_usd=price_usd if price_usd is not None else spec.price_usd,
    )
