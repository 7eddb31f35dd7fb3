"""Multi-CPU/GPU platform substrate (simulated).

The paper's testbed is a workstation with two Xeon Gold 6242 CPUs, one
RTX 2080 and one RTX 2080 Super, wired by PCI-E 3.0 x16 and Intel UPI
(section 4.1).  No such hardware is available here, so this subpackage
implements the platform as a *calibrated analytical model*: the paper's
own time-cost analysis (Eq. 2-4) says SGD-MF compute is
memory-bandwidth-bound and communication is bus-bandwidth-bound, and we
implement exactly that machinery, with throughput constants calibrated
to the paper's measurements (Table 2 bandwidths, Table 4 update rates).

See DESIGN.md section 2 for the substitution rationale and section 5
for the calibration details.
"""

from repro._lazy import lazy_exports

__all__ = [
    "ProcessorKind",
    "ProcessorSpec",
    "BusSpec",
    "BusKind",
    "XEON_6242",
    "XEON_6242L_10T",
    "RTX_2080",
    "RTX_2080S",
    "TESLA_V100",
    "PCIE3_X16",
    "UPI",
    "QPI",
    "SHARED_MEMORY",
    "PROCESSOR_CATALOG",
    "BUS_CATALOG",
    "table2_bandwidth",
    "table4_rate",
    "locality_factor",
    "REFERENCE_K",
    "Processor",
    "Platform",
    "paper_workstation",
    "single_processor",
    "Phase",
    "Span",
    "Timeline",
    "pipeline_schedule",
    "PipelineResult",
    "measure_copy_bandwidth_gbs",
    "measure_update_rate",
    "export_chrome_trace",
    "timeline_to_trace_events",
    "EnergyReport",
    "processor_energy",
    "run_energy",
    "IDLE_POWER_FRACTION",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.hardware.specs": (
        "ProcessorKind", "ProcessorSpec", "BusSpec", "BusKind", "XEON_6242",
        "XEON_6242L_10T", "RTX_2080", "RTX_2080S", "TESLA_V100", "PCIE3_X16", "UPI",
        "QPI", "SHARED_MEMORY", "PROCESSOR_CATALOG", "BUS_CATALOG",
    ),
    "repro.hardware.calibration": (
        "table2_bandwidth", "table4_rate", "locality_factor", "REFERENCE_K",
    ),
    "repro.hardware.processor": ("Processor",),
    "repro.hardware.topology": ("Platform", "paper_workstation", "single_processor"),
    "repro.hardware.timeline": ("Phase", "Span", "Timeline"),
    "repro.hardware.streams": ("pipeline_schedule", "PipelineResult"),
    "repro.hardware.profiler": ("measure_copy_bandwidth_gbs", "measure_update_rate"),
    "repro.hardware.trace": ("export_chrome_trace", "timeline_to_trace_events"),
    "repro.hardware.energy": (
        "EnergyReport", "processor_energy", "run_energy", "IDLE_POWER_FRACTION",
    ),
})
