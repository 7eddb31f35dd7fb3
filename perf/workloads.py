"""The four benchmark workloads: every constant is fixed here.

The seed changes only the order of the ratings and the request stream;
the rating matrix, sizes, epochs, targets, channel stacks and serving
shapes are constants, so a number always means the same work.  Why each workload
exists — which layers it stresses and which it bypasses — is in
``perf/README.md`` and, in one line, in ``BENCHMARK.json``.

``repro`` is imported inside the builders only: the runner's parent
process must stay numpy-free (see :mod:`perf`).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

SCALES = ("full", "smoke")

#: model-init / shuffle seed handed to the backends: fixed, so the
#: ``--seed`` argument moves the input and nothing else
BACKEND_SEED = 0

#: generator seed of every workload's rating matrix (see child.seeded)
DATA_SEED = 0

#: serving asks for the ten best items everywhere
TOP_K = 10


@dataclass(frozen=True)
class Workload:
    """One train -> publish -> serve pipeline, fully pinned."""

    name: str
    plane: str                  # "process" | "sim"
    dataset: str                # "netflix" | "wide" | "movielens" (see generate)
    nnz: int                    # ratings in the generated matrix
    k: int
    epochs: int                 # E: the fixed training length
    target_rmse: float          # time_to_rmse_s stops the clock here
    channel: str                # "q-only" | "fp16" | "double-buffer" (see channel)
    batch: int                  # users per top_k request
    publishes: int              # save_checkpoint + swap repetitions
    checkpoint_every: int = 0
    exclude_seen: bool = False
    precision: str = "fp32"
    candidates: int = 0         # allow-list size (0 = score every item)
    swap_interval_s: float = 0.0   # > 0: a writer thread republishes
    n_workers: int = 2          # process plane only
    # run shape (scaled down by smoke())
    seconds: int = 30           # default --seconds: the length of one pass
    serve_windows: int = 6
    min_window_s: float = 2.5
    warmup_window_s: float = 0.5
    traced_epochs: int = 10
    traced_publishes: int = 3
    traced_window_s: float = 1.5
    probe_requests: int = 150   # per serving micro-probe
    oracle_per_window: int = 20  # replies re-derived by brute force

    @property
    def threads_training(self) -> int:
        return self.n_workers if self.plane == "process" else 1

    @property
    def threads_serving(self) -> int:
        # one closed-loop client, plus the writer where there is one;
        # the traced pass runs a writer on every workload
        return 2


def smoke(w: Workload) -> Workload:
    """The same pipeline at toy size: every code path, no meaningful timing."""
    return replace(
        w, nnz=max(2_000, w.nnz // 40), k=8, epochs=4, target_rmse=float("inf"),
        batch=min(w.batch, 8), publishes=2, candidates=min(w.candidates, 32),
        swap_interval_s=0.05 if w.swap_interval_s else 0.0,
        seconds=1, serve_windows=2, min_window_s=0.15, warmup_window_s=0.05,
        traced_epochs=4, traced_publishes=2,
        traced_window_s=0.2, probe_requests=10, oracle_per_window=3,
    )


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        # kernel-bound: Q is 177 KB, so channels + sync are noise; tiny n
        # makes serving's per-user mask/select loops dominate the matmul
        Workload(
            name="proc_tall_compute", plane="process", dataset="netflix",
            nnz=600_000, k=32, epochs=24, target_rmse=0.71, channel="q-only",
            batch=64, publishes=8, exclude_seen=True,
        ),
        # the paper's sync-bound regime (Table 6): n/nnz raised until
        # encode/decode/validate/merge are ~40 % of a steady epoch;
        # serving 120 k items is matmul- and select-bound.  One publish of
        # its 36 MB checkpoint costs ~1.9 s, so it publishes 4 times, not
        # 8, to keep the driver's 92 runs inside their time cap
        Workload(
            name="proc_wide_sync", plane="process", dataset="wide",
            nnz=120_000, k=64, epochs=22, target_rmse=0.75, channel="fp16",
            batch=8, publishes=4, traced_publishes=2,
            oracle_per_window=3,    # one brute-force check here costs ~0.1 s
        ),
        # the "second training path" (core.worker/server/partition/
        # cost_model) on a DP2 plan over four unequal workers; serving
        # takes the allow-list + quantised-factor code paths
        Workload(
            name="sim_hetero_dp2", plane="sim", dataset="netflix",
            nnz=600_000, k=32, epochs=24, target_rmse=0.71, channel="q-only",
            batch=128,              # 64 users x 512 candidates reply in under 1 ms
            publishes=8, precision="fp16", candidates=512,
        ),
        # writes beside reads: a checkpoint every epoch while training,
        # and a writer thread swapping snapshots under the serving client
        Workload(
            name="ckpt_swap_serve", plane="process", dataset="movielens",
            nnz=200_000, k=64, epochs=20, target_rmse=0.76,
            channel="double-buffer", batch=32, publishes=8,
            checkpoint_every=1, swap_interval_s=0.5,
            oracle_per_window=8,    # 32 lexsorts over 13 k items per replay
        ),
    )
}


def get(name: str, scale: str = "full") -> Workload:
    if scale not in SCALES:
        raise ValueError(f"scale must be one of {SCALES}")
    if name not in WORKLOADS:
        raise KeyError(f"unknown workload {name!r}; known: {sorted(WORKLOADS)}")
    w = WORKLOADS[name]
    return smoke(w) if scale == "smoke" else w


# ---------------------------------------------------------------------------
# builders (import repro lazily — child process only)
# ---------------------------------------------------------------------------
def dataset_spec(w: Workload):
    """The full-scale :class:`DatasetSpec` the cost model prices."""
    from repro.data.datasets import MOVIELENS_20M, NETFLIX, DatasetSpec

    if w.dataset == "netflix":
        return NETFLIX
    if w.dataset == "movielens":
        return MOVIELENS_20M
    m, n = _wide_shape(w)
    return DatasetSpec(name="wide", m=m, n=n, nnz=w.nnz)


def _wide_shape(w: Workload) -> tuple[int, int]:
    # 20 k users x 120 k items at nnz = 120 k; smoke shrinks both sides
    return max(200, w.nnz // 6), w.nnz


def generate(w: Workload):
    """This workload's (pinned) rating matrix."""
    from repro.data.synthetic import SyntheticConfig, generate_low_rank

    if w.dataset == "wide":
        m, n = _wide_shape(w)
        return generate_low_rank(SyntheticConfig(m=m, n=n, nnz=w.nnz), seed=DATA_SEED)
    return dataset_spec(w).scaled(w.nnz).generate(seed=DATA_SEED)


def channel(w: Workload):
    from repro.engine.channels import (
        DoubleBufferChannel, Fp16Channel, QOnlyChannel,
    )

    if w.channel == "q-only":
        return QOnlyChannel()
    if w.channel == "fp16":
        return Fp16Channel(QOnlyChannel())
    if w.channel == "double-buffer":
        return DoubleBufferChannel(QOnlyChannel())
    raise ValueError(f"unknown channel stack {w.channel!r}")


def cost_model_plan(w: Workload):
    """``(platform, cost_model, plan)``: DP2 on the paper's workstation.

    The sim workload trains on this plan; every workload's traced pass
    times it as ``core.partition.plan_s``.
    """
    from repro.core.config import PartitionStrategy
    from repro.core.cost_model import TimeCostModel
    from repro.hardware.topology import paper_workstation

    platform = paper_workstation()
    model = TimeCostModel(platform, dataset_spec(w), k=w.k)
    return platform, model, model.derive_partition(PartitionStrategy.DP2)


def build_engine(w: Workload, data, wrap, telemetry=None, checkpoint_path=None):
    """The engine for one training run, over ``wrap(backend)`` (a perf.proxy).

    The sim workload is assembled exactly as ``HCCMF._train_numeric``
    does it — cost model on the full-scale spec, DP2 plan, shuffled
    ratings, ``SimBackend`` with the cost model attached — from the
    same public pieces.
    """
    from repro.engine.backends import ProcessBackend, SimBackend
    from repro.engine.pipeline import EpochEngine

    spec = dataset_spec(w)
    kwargs = {}
    if w.checkpoint_every:
        kwargs = {"checkpoint_every": w.checkpoint_every,
                  "checkpoint_path": checkpoint_path}
    if w.plane == "sim":
        platform, cost_model, plan = cost_model_plan(w)
        backend = SimBackend(
            platform, ratings=data.shuffle(BACKEND_SEED), k=w.k,
            lr=spec.learning_rate, reg=spec.reg, seed=BACKEND_SEED,
            cost_model=cost_model,
        )
        kwargs["partitions"] = plan
    else:
        backend = ProcessBackend(
            data, k=w.k, n_workers=w.n_workers, lr=spec.learning_rate,
            reg=spec.reg, seed=BACKEND_SEED,
        )
    return EpochEngine(wrap(backend), channel=channel(w), telemetry=telemetry, **kwargs)
