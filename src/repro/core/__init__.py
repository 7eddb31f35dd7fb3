"""HCC-MF core: the paper's primary contribution.

Orchestrates heterogeneous CPU/GPU collaborative SGD-based matrix
factorization in the "asynchronous + synchronous" parameter-server mode
of paper Figure 4: a server CPU manages data distribution and
synchronization while worker CPUs/GPUs compute asynchronously on their
row-grid assignments.

The public entry point, :class:`repro.framework.HCCMF`, sits above this
package and :mod:`repro.engine`; nothing here imports either.
"""
