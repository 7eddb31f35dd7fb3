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
