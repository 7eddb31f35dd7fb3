"""Configuration types for HCC-MF training runs."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace


class PartitionStrategy(enum.Enum):
    """Which data-partition strategy the DataManager applies (paper 3.3).

    * ``EVEN`` — equal nnz per worker regardless of speed (the DSGD-style
      baseline; produces Figure 3(a)'s "Unbalanced data" bar on a
      heterogeneous platform).
    * ``DP0`` — proportional to independently-measured worker throughput
      (Eq. 6).
    * ``DP1`` — DP0 followed by the heterogeneous-load-balance
      compensation loop (Algorithm 1).
    * ``DP2`` — DP1 followed by hidden-synchronization staggering (Eq. 7).
    * ``AUTO`` — the paper's default: DP1 when synchronization is
      negligible (``max{T_i}/T_sync >= lambda``), else DP2 (Eq. 5).
    """

    EVEN = "even"
    DP0 = "dp0"
    DP1 = "dp1"
    DP2 = "dp2"
    AUTO = "auto"


class TransmitMode(enum.Enum):
    """Which feature matrices travel each epoch (paper 3.4, Strategy 1).

    ``Q_ROTATE`` is this reproduction's implementation of the paper's
    future work (section 6: "HCC-MF still has limitations in
    communication ... We will try to solve this problem in the future"):
    each worker *owns* one column block of Q and the blocks rotate
    around a worker ring.  Ownership makes the server's WAW-resolving
    sync unnecessary, and every transfer is a peer-to-peer hop of Q/p
    values that overlaps the rotation step's compute — so the *exposed*
    communication finally shrinks as workers are added, fixing the
    Table 6 limitation.  The mode is priced, not trained: it exists on
    the timing plane (the cost model's rotation branch) only.
    """

    P_AND_Q = "pq"       # both matrices every epoch (unoptimized)
    Q_ONLY = "q"         # Q every epoch, P pushed once at the end
    Q_ROTATE = "q-rotate"  # ring-rotated Q ownership (future-work mode)
    AUTO = "auto"        # Q_ONLY when the row grid applies (m >= n)


class CommBackendKind(enum.Enum):
    """Which communication implementation carries pull/push traffic."""

    COMM = "comm"        # HCC-MF's shared-pinned-memory one-copy module
    COMM_P = "comm-p"    # the ps-lite-based baseline of Table 5


@dataclass(frozen=True)
class CommConfig:
    """Communication-optimization switches (paper 3.4).

    ``streams > 1`` enables Strategy 3 (asynchronous computing-
    transmission) on workers that have copy engines; ``fp16`` enables
    Strategy 2; ``transmit`` selects Strategy 1.
    """

    transmit: TransmitMode = TransmitMode.AUTO
    fp16: bool = False
    streams: int = 1
    backend: CommBackendKind = CommBackendKind.COMM

    def __post_init__(self) -> None:
        if self.streams < 1:
            raise ValueError("streams must be >= 1")

    @property
    def uses_async(self) -> bool:
        return self.streams > 1

    def resolve_transmit(self, m: int, n: int) -> TransmitMode:
        """Resolve AUTO: transmit only the smaller-side matrix.

        With a row grid (m >= n) local P rows never conflict, so only Q
        needs to travel; the symmetric case transmits P only, which this
        codebase realizes by transposing the problem, so the resolved
        mode is always expressed as Q_ONLY.
        """
        if self.transmit is not TransmitMode.AUTO:
            return self.transmit
        return TransmitMode.Q_ONLY


@dataclass(frozen=True)
class RecoveryPolicy:
    """How the epoch engine reacts to worker failures (docs/resilience.md).

    The three escalation levels mirror the failure taxonomy: a
    *transient* failure (straggler, corrupted payload) retries the
    epoch with exponential backoff; a *dead* worker triggers a
    redistribution of its shard across the survivors (degraded-mode
    continuation); and repeated failure past ``max_retries`` — or a
    death that would leave fewer than ``min_workers`` survivors —
    checkpoints (when a checkpoint path is configured) and aborts with
    :class:`~repro.resilience.TrainingAborted`.
    """

    #: transient-failure retries of the same epoch before aborting
    max_retries: int = 2
    #: first retry waits this long; each further retry multiplies by
    #: ``backoff_factor`` (0.0 disables the wait, handy in tests)
    backoff_base_s: float = 0.1
    backoff_factor: float = 2.0
    #: on worker death, reassign the dead shard across survivors and
    #: continue degraded (False: any death aborts)
    redistribute: bool = True
    #: abort instead of degrading below this many surviving workers
    min_workers: int = 1
    #: write a final checkpoint before raising TrainingAborted (needs a
    #: checkpoint path on the run)
    checkpoint_on_abort: bool = True

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError("max_retries must be non-negative")
        if self.backoff_base_s < 0:
            raise ValueError("backoff_base_s must be non-negative")
        if self.backoff_factor < 1.0:
            raise ValueError("backoff_factor must be >= 1")
        if self.min_workers < 1:
            raise ValueError("min_workers must be >= 1")

    def backoff_s(self, retries_so_far: int) -> float:
        """Wait before retry number ``retries_so_far + 1``."""
        if retries_so_far < 0:
            raise ValueError("retries_so_far must be non-negative")
        return self.backoff_base_s * self.backoff_factor**retries_so_far


@dataclass(frozen=True)
class HCCConfig:
    """Full configuration of an HCC-MF training run."""

    k: int = 128
    epochs: int = 20
    learning_rate: float | None = None   # None: take the dataset's
    reg: float | None = None             # None: take the dataset's
    partition: PartitionStrategy = PartitionStrategy.AUTO
    comm: CommConfig = field(default_factory=CommConfig)
    lambda_threshold: float = 10.0       # Eq. 5's lambda (paper uses 10)
    batch_size: int = 4096
    seed: int = 0

    def __post_init__(self) -> None:
        if self.k <= 0:
            raise ValueError("k must be positive")
        if self.epochs <= 0:
            raise ValueError("epochs must be positive")
        if self.lambda_threshold <= 0:
            raise ValueError("lambda_threshold must be positive")
        if self.batch_size <= 0:
            raise ValueError("batch_size must be positive")

    def with_comm(self, **kwargs) -> "HCCConfig":
        """Convenience: a copy with updated communication settings."""
        return replace(self, comm=replace(self.comm, **kwargs))
