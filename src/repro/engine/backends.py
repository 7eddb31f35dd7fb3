"""Compute backends: what each pipeline stage means on a real substrate.

Two substrates implement the :class:`~repro.engine.pipeline.ComputeBackend`
protocol:

* :class:`SimBackend` — the in-process plane.  Workers are
  :class:`~repro.core.worker.WorkerRuntime` objects taking turns on the
  host; feature traffic flows through a
  :class:`~repro.core.server.ParameterServer`'s pull/push buffers; an
  optional :class:`~repro.core.cost_model.TimeCostModel` advances the
  simulated clock one epoch cost per epoch (the "cost-model advance").
* :class:`ProcessBackend` — the wall-clock plane.  The calling process
  is the server, every worker is an OS process (paper 3.5), and all
  feature traffic crosses :class:`~repro.parallel.shm.SharedArray`
  segments whose dtype is the channel stack's wire format, so Q-only
  payloads, FP16 wire and double-buffered pulls run for real.  What a
  worker process runs lives in :mod:`repro.engine.worker_proc`, which
  imports far less than this module does.

Both backends execute the identical stage sequence under
:class:`~repro.engine.pipeline.EpochEngine`; the ``engine-parity`` CI
stage diffs their stage traces and per-worker update counts.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import threading
import time
from contextlib import ExitStack, contextmanager
from typing import TYPE_CHECKING, Mapping

import numpy as np

from repro.core.server import ParameterServer, merge_delta, merge_scratch
from repro.data.grid import GridKind, partition_rows
from repro.data.ratings import RatingMatrix
from repro.engine.channels import Channel
from repro.engine.worker_proc import (
    HANDSHAKE_STAMP,
    NullRecorder,
    barrier_stamp,
    worker_main,
)
from repro.hardware.timeline import Phase, Span, Timeline
from repro.mf.model import MFModel
from repro.parallel.shm import SharedArray
from repro.resilience.faults import CORRUPT, DELAY, DROP, KILL, Fault, FaultPlan
from repro.resilience.health import HealthReport, classify

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.pipeline import SyncPolicy
    from repro.obs import Telemetry

#: Default ceiling on any cross-process rendezvous (barriers, joins);
#: overridable per run via ``HCCConfig.barrier_timeout_s``.
DEFAULT_BARRIER_TIMEOUT_S = 120.0

#: ring slots per epoch when instrumented: pull + compute + push + two
#: barrier waits, plus one spare
_SPANS_PER_EPOCH = 6

#: grace period between terminate() and the kill() escalation when
#: reaping straggler worker processes
_TERMINATE_GRACE_S = 5.0


class WorkerSyncError(RuntimeError):
    """A rendezvous failed; names the ranks that never arrived.

    ``point`` is ``"start"`` or ``"end"`` for an epoch barrier, and
    ``"bootstrap"`` for the attach handshake ``ProcessBackend.open``
    waits for before it returns.
    """

    def __init__(self, point: str, epoch: int, missing_ranks: tuple[int, ...],
                 timeout_s: float):
        self.point = point
        self.epoch = epoch
        self.missing_ranks = missing_ranks
        names = ", ".join(f"worker-{r}" for r in missing_ranks) or "unknown rank"
        if point == "bootstrap":
            what = (f"a worker process failed during start-up: {names} did "
                    f"not attach and stamp its handshake")
        else:
            what = (f"a worker process failed mid-epoch: {names} did not "
                    f"reach the {point} barrier of epoch {epoch}")
        super().__init__(
            f"{what} within {timeout_s:.0f}s; shared state has been cleaned up"
        )


class ServerSpans:
    """Span scope for what one attempt does on the server's clock.

    ``span(lane, phase, epoch)`` times its body with ``perf_counter``
    and, if the body returns, adds the span to ``timeline`` on the
    run's axes: run-origin time, global epoch, attempt tag.  Without
    telemetry the backends hold a :class:`NullRecorder` instead, so
    each stage method has one body.
    """

    def __init__(self, timeline: Timeline, origin: float, epoch_offset: int,
                 attempt: int):
        self.timeline = timeline
        self._origin = origin
        self._epoch_offset = epoch_offset
        self._attempt = attempt

    @contextmanager
    def span(self, lane: str, phase: Phase, epoch: int):
        t0 = time.perf_counter()
        yield
        self.timeline.add(
            lane, phase, t0 - self._origin, time.perf_counter() - self._origin,
            epoch + self._epoch_offset, self._attempt,
        )


class WirePayloadError(RuntimeError):
    """A pushed payload failed validation; names the offending rank.

    Raised *before* any merge of the epoch: the server validates every
    worker's push first, so a garbage payload (a torn write from a
    dying worker, an injected corruption) never leaves the global Q
    half-merged.  The model still holds the last cleanly-synced epoch,
    which is what makes a retry of the epoch sound.
    """

    def __init__(self, rank: int, epoch: int):
        self.rank = rank
        self.epoch = epoch
        self.missing_ranks = (rank,)
        super().__init__(
            f"a worker process failed mid-epoch: worker-{rank} pushed a "
            f"corrupt payload (non-finite values) for epoch {epoch}; the "
            f"epoch was not merged"
        )


# ---------------------------------------------------------------------------
# sim backend (in-process numerics + cost-model clock)
# ---------------------------------------------------------------------------
class SimBackend:
    """In-process workers over buffer objects, with a simulated clock.

    ``ratings`` must already be in row-grid orientation and shuffled
    (what :meth:`repro.core.framework.HCCMF.prepare` produces); the
    backend partitions them by the engine-resolved plan.  ``cost_model``
    is optional: when given, every epoch advances :attr:`sim_seconds`
    by that plan's analytic epoch cost — priced over the *surviving*
    workers after a redistribution, which is the cost model's
    degraded-epoch path.

    ``fault_plan`` executes the same
    :class:`~repro.resilience.faults.FaultPlan` kinds the process plane
    injects, surfacing each at the exact detection point the server
    would see it: kills and over-timeout stragglers raise a
    :class:`WorkerSyncError` at the epoch's barriers, corrupt payloads
    raise :class:`WirePayloadError` before any merge, dropped payloads
    silently merge a zero delta, and benign stragglers stretch the
    simulated clock.
    """

    name = "sim"

    def __init__(
        self,
        platform,
        ratings: RatingMatrix,
        eval_data: RatingMatrix | None = None,
        k: int = 32,
        lr: float = 0.005,
        reg: float = 0.01,
        batch_size: int = 4096,
        seed: int = 0,
        cost_model=None,
        fault_plan: FaultPlan | None = None,
        barrier_timeout_s: float = DEFAULT_BARRIER_TIMEOUT_S,
    ):
        if k <= 0:
            raise ValueError("k must be positive")
        if barrier_timeout_s <= 0:
            raise ValueError("barrier_timeout_s must be positive")
        self.platform = platform
        self.ratings = ratings
        self.eval_data = eval_data
        self.k = k
        self.lr = lr
        self.reg = reg
        self.batch_size = batch_size
        self.seed = seed
        self.cost_model = cost_model
        #: the injected-failure script (docs/resilience.md); pruned by
        #: the engine after each recovery so faults fire at most once
        self.fault_plan = fault_plan if fault_plan is not None else FaultPlan()
        self.barrier_timeout_s = float(barrier_timeout_s)
        self.n_workers = platform.n_workers
        self.model: MFModel | None = None
        self.sim_seconds = 0.0
        #: warm-start state the engine sets for checkpoint resume and
        #: recovery restarts: factors to start from, and how many global
        #: epochs already completed (replayed out of each worker's RNG
        #: stream so a resumed run continues the exact sample order)
        self.initial_model: MFModel | None = None
        self.epoch_offset = 0
        #: the platform workers still alive — pruned by
        #: :meth:`remap_fault_ranks` when a redistribution removes ranks,
        #: so degraded epochs are priced over the survivors
        self._platform_workers = list(platform.workers)
        #: per synced epoch: (global epoch, modeled cost, degraded?) —
        #: the chaos-parity harness reads degraded-epoch costs off this
        self.cost_log: list[tuple[int, float, bool]] = []
        #: simulated process exit codes for killed ranks (13 hard, 1
        #: soft), feeding classify() exactly as real exit codes would
        self._sim_exitcodes: dict[int, int] = {}
        self._attempt = -1
        self._run_timeline: Timeline | None = None
        self._run_origin: float | None = None
        self._p_snapshot: np.ndarray | None = None

    # -- lifecycle -------------------------------------------------------
    def open(self, plan, channel: Channel, sync_policy: "SyncPolicy",
             telemetry, epochs: int) -> None:
        from repro.core.worker import WorkerRuntime

        data = self.ratings
        self._eval_set = self.eval_data if self.eval_data is not None else data
        self._fractions = plan.fractions
        self._channel = channel
        self._sync_policy = sync_policy
        registry = telemetry.registry if telemetry is not None else None
        if self.initial_model is not None:
            # warm start (checkpoint resume): once-per-run private copies
            # so training never writes into the caller's checkpoint arrays
            warm = self.initial_model
            p0 = warm.P.copy()  # hcclint: disable=hot-copy
            q0 = warm.Q.copy()  # hcclint: disable=hot-copy
            self.model = MFModel(p0, q0)
        else:
            self.model = MFModel.init_for(data, self.k, seed=self.seed)
        assignments = partition_rows(data, plan.fractions, GridKind.ROW)
        self.runtimes = [
            WorkerRuntime(
                i, proc, assignment, data,
                batch_size=self.batch_size, seed=self.seed, metrics=registry,
            )
            for i, (proc, assignment) in enumerate(
                zip(self._platform_workers, assignments)
            )
        ]
        # replay already-completed epochs out of each worker's RNG
        # stream: one permutation draw per epoch (WorkerRuntime.run_epoch
        # draws exactly one), so a resumed run is bitwise-identical to
        # the straight-through run it continues
        for _ in range(self.epoch_offset):
            for rt in self.runtimes:
                rt.rng.permutation(rt.nnz)
        self.server = ParameterServer(
            self.model, self.n_workers, channel=channel, metrics=registry,
        )
        # degraded-epoch costing: after a redistribution the plan's
        # fractions cover only the surviving workers, so the epoch is
        # priced over that subset (Eq. 1-5 with renormalized x_i)
        self._epoch_sim_cost = (
            self.cost_model.epoch_cost(
                plan.fractions, workers=self._platform_workers
            ).total
            if self.cost_model is not None
            else 0.0
        )
        self._attempt += 1
        self._sim_exitcodes = {}
        self._p_snapshot = None
        if self._attempt == 0:
            self.sim_seconds = 0.0
        # wall-clock spans only when telemetry opts the run in; the
        # timeline and its clock origin persist across recovery
        # re-opens so no attempt's spans are lost
        if telemetry is None:
            self._spans = NullRecorder()
        else:
            if self._run_timeline is None:
                self._run_timeline = Timeline()
                self._run_origin = time.perf_counter()
            self._spans = ServerSpans(
                self._run_timeline, self._run_origin, self.epoch_offset,
                self._attempt,
            )
        # each worker's local Q, allocated once: every pull decodes into it
        self._q_locals = [
            np.empty(self.model.Q.shape, dtype=np.float32) for _ in self.runtimes
        ]
        self._q_news: list[np.ndarray] = []

    # -- fault injection -------------------------------------------------
    def _faults_at(self, kind: str, epoch: int) -> list[Fault]:
        """Pending faults of ``kind`` keyed to this *local* epoch.

        Fault plans speak global epochs; stale entries aimed at ranks
        outside the current (possibly degraded) plan are ignored.
        """
        g = epoch + self.epoch_offset
        return [
            f for f in self.fault_plan.faults
            if f.kind == kind and f.epoch == g and f.rank < self.n_workers
        ]

    def _inject_epoch_top(self, epoch: int) -> None:
        """Kill / start-straggler injection, at process-plane semantics.

        A killed rank never reaches the start barrier, so the failure
        surfaces exactly as the process server sees it: a start-point
        :class:`WorkerSyncError` before any compute ran, with the dead
        ranks' exit codes (13 hard, 1 soft) recorded for the health
        plane to classify.  A delay past the barrier timeout is a fatal
        straggler (no exit code: the rank is alive, just late); a
        shorter delay stretches the simulated clock by the longest
        stall, since real stragglers hold the rendezvous in parallel.
        """
        kills = self._faults_at(KILL, epoch)
        if kills:
            for f in kills:
                self._sim_exitcodes[f.rank] = 13 if f.hard else 1
            ranks = tuple(sorted({f.rank for f in kills}))
            raise WorkerSyncError("start", epoch, ranks, self.barrier_timeout_s)
        delays = [f for f in self._faults_at(DELAY, epoch) if f.point == "start"]
        late = tuple(sorted(
            {f.rank for f in delays if f.seconds > self.barrier_timeout_s}
        ))
        if late:
            raise WorkerSyncError("start", epoch, late, self.barrier_timeout_s)
        if delays:
            self.sim_seconds += max(f.seconds for f in delays)

    def _restore_p(self) -> None:
        """Roll P back to its pre-epoch state on a failed epoch.

        The process plane only copies P out of shared memory after all
        payloads validate, so a failed epoch's P updates are discarded
        there; the sim trains P in place and must undo the same way.
        """
        if self._p_snapshot is not None:
            np.copyto(self.model.P, self._p_snapshot)
            self._p_snapshot = None

    # -- stages ----------------------------------------------------------
    def pull(self, epoch: int) -> Mapping:
        if self.fault_plan:
            self._inject_epoch_top(epoch)
        self.server.begin_epoch()
        for rt, q_local in zip(self.runtimes, self._q_locals):
            with self._spans.span(f"worker-{rt.worker_id}", Phase.PULL, epoch):
                self.server.pull(worker=rt.worker_id, out=q_local)
        nbytes = self.server.pull_buffer.nbytes
        return {"wire_bytes": nbytes * self.n_workers, "per_worker_bytes": nbytes}

    def compute(self, epoch: int) -> Mapping:
        if self.fault_plan:
            fails_after_compute = self._faults_at(CORRUPT, epoch) or any(
                f.point == "end" and f.seconds > self.barrier_timeout_s
                for f in self._faults_at(DELAY, epoch)
            )
            if fails_after_compute:
                self._p_snapshot = self.model.P.copy()  # hcclint: disable=hot-copy
        self._q_news = []
        for rt, q_local in zip(self.runtimes, self._q_locals):
            with self._spans.span(f"worker-{rt.worker_id}", Phase.COMPUTE, epoch):
                q_new, _ = rt.run_epoch(self.model.P, q_local, self.lr, self.reg)
            self._q_news.append(q_new)
        return {"updates": tuple(rt.nnz for rt in self.runtimes)}

    def push(self, epoch: int) -> Mapping:
        drop_ranks = {f.rank for f in self._faults_at(DROP, epoch)}
        for rt, q_new in zip(self.runtimes, self._q_news):
            # dropped payload: the wire carries the epoch base, so the
            # server merges an exactly-zero delta.  run_epoch trained
            # q_new *in place*, so pushing it would not be a drop — the
            # base must come back from the server.
            dropped = rt.worker_id in drop_ranks
            with self._spans.span(f"worker-{rt.worker_id}", Phase.PUSH, epoch):
                self.server.push(
                    rt.worker_id, self.server.q_base if dropped else q_new
                )
        end_delays = [
            f for f in self._faults_at(DELAY, epoch) if f.point == "end"
        ]
        late = tuple(sorted(
            {f.rank for f in end_delays if f.seconds > self.barrier_timeout_s}
        ))
        if late:
            self._restore_p()
            raise WorkerSyncError("end", epoch, late, self.barrier_timeout_s)
        if end_delays:
            self.sim_seconds += max(f.seconds for f in end_delays)
        nbytes = self.server.push_buffers[0].nbytes
        return {"wire_bytes": nbytes * self.n_workers, "per_worker_bytes": nbytes}

    def sync(self, epoch: int) -> Mapping:
        corrupt = self._faults_at(CORRUPT, epoch)
        if corrupt:
            # validation precedes any merge (the epoch is all-or-nothing
            # on the process plane), so the model rolls back whole
            self._restore_p()
            raise WirePayloadError(min(f.rank for f in corrupt), epoch)
        for i, rt in enumerate(self.runtimes):
            weight = self._sync_policy.weight(i, self._fractions)
            with self._spans.span("server", Phase.SYNC, epoch):
                self.server.sync(rt.worker_id, weight)
        self.sim_seconds += self._epoch_sim_cost
        self.cost_log.append((
            epoch + self.epoch_offset,
            self._epoch_sim_cost,
            len(self._platform_workers) < self.platform.n_workers,
        ))
        return {"merges": self.n_workers,
                "merged_values": int(self.model.Q.size) * self.n_workers}

    def evaluate(self, epoch: int) -> float:
        with self._spans.span("server", Phase.EVAL, epoch):
            return self.model.rmse(self._eval_set)

    # -- resilience ------------------------------------------------------
    def health_report(self, err: Exception | None = None) -> HealthReport:
        """Classify the sim workers exactly as the process plane would.

        The same :func:`~repro.resilience.health.classify` call, fed
        simulated exit codes instead of reaped process ones: a killed
        rank carries 13 (hard) or 1 (soft), a straggler carries none —
        so both planes hand :func:`~repro.resilience.policy.decide`
        identical evidence.
        """
        missing = tuple(getattr(err, "missing_ranks", ()) or ())
        exitcodes = [self._sim_exitcodes.get(r) for r in range(self.n_workers)]
        return classify(
            self.n_workers, missing, exitcodes, cause=str(err) if err else ""
        )

    def drop_faults_through(self, epoch: int) -> None:
        """Retire injected faults at or before ``epoch`` (already fired)."""
        self.fault_plan = self.fault_plan.without_epochs_through(epoch)

    def remap_fault_ranks(self, dead_ranks) -> None:
        """Follow a redistribution: prune the dead, renumber the faults.

        The engine calls this with the *old* rank numbering, before it
        shrinks ``n_workers`` to the survivor count; subsequent opens
        build runtimes — and price epochs — over the survivors only.
        """
        dead = set(dead_ranks)
        self._platform_workers = [
            w for r, w in enumerate(self._platform_workers) if r not in dead
        ]
        self.fault_plan = self.fault_plan.remap_ranks(dead, self.n_workers)

    def finalize(self, telemetry) -> None:
        if telemetry is not None and self._run_timeline is not None:
            telemetry.timeline = self._run_timeline

    def close(self) -> None:
        # everything sized by the run goes with it — the server's wire
        # buffers and epoch base, the workers' local Qs and shards —
        # so a backend kept for its ``model`` (publish, serving) holds
        # the factors and nothing else
        self._q_locals = []
        self._q_news = []
        self.server = None
        self.runtimes = []


# ---------------------------------------------------------------------------
# process backend (OS workers over shared memory)
# ---------------------------------------------------------------------------
class ProcessBackend:
    """OS worker processes over shared memory (wall-clock plane).

    The calling process acts as the server: per epoch it encodes Q onto
    the wire (pull stage), releases the start barrier, awaits the end
    barrier (push stage), and applies the sync policy's delta merge
    against the wire-accurate epoch base — the exact matrix workers
    decoded, so FP16 pull quantization cancels out of the deltas.
    """

    name = "process"

    def __init__(
        self,
        ratings: RatingMatrix,
        k: int = 32,
        n_workers: int = 2,
        lr: float = 0.005,
        reg: float = 0.01,
        batch_size: int = 4096,
        seed: int = 0,
        barrier_timeout_s: float = DEFAULT_BARRIER_TIMEOUT_S,
        fault_plan: FaultPlan | None = None,
    ):
        if n_workers <= 0:
            raise ValueError("n_workers must be positive")
        if k <= 0:
            raise ValueError("k must be positive")
        if barrier_timeout_s <= 0:
            raise ValueError("barrier_timeout_s must be positive")
        self.ratings = ratings
        self.k = k
        self.n_workers = n_workers
        self.lr = lr
        self.reg = reg
        self.batch_size = batch_size
        self.seed = seed
        self.barrier_timeout_s = float(barrier_timeout_s)
        #: the injected-failure script (docs/resilience.md); pruned by
        #: the engine after each recovery so faults fire at most once
        self.fault_plan = fault_plan if fault_plan is not None else FaultPlan()
        self.model: MFModel | None = None
        self.data: RatingMatrix | None = None
        self._stack: ExitStack | None = None
        #: warm-start state the engine sets for checkpoint resume and
        #: recovery restarts (see EpochEngine)
        self.initial_model: MFModel | None = None
        self.epoch_offset = 0
        #: worker-profile drop directory the engine sets when profiling
        #: (EpochEngine(profile=...)); one attempt-N subdir per open
        self.profile_dir: str | None = None
        self._procs: list = []
        self._rings: list = []
        self._attempt = -1
        #: one clock origin for the whole run, fixed at the first open,
        #: so spans preserved across recovery attempts share a time base
        self._run_origin: float | None = None
        #: spans rescued from earlier attempts' rings before their
        #: shared segments unlink (the rings die with each close)
        self._kept_spans: list[Span] = []
        self._kept_dropped = 0
        self._finalized = False

    @staticmethod
    def _terminate_stragglers(procs: list, grace_s: float = _TERMINATE_GRACE_S) -> None:
        """Reap every still-live worker, escalating terminate -> kill.

        A worker ignoring (or masking) SIGTERM must never leave a
        zombie child holding shared-memory mappings, so after a join
        grace period the survivors get SIGKILL, which cannot be caught.
        """
        live = [proc for proc in procs if proc.is_alive()]
        for proc in live:
            proc.terminate()
        deadline = time.perf_counter() + grace_s
        for proc in live:
            proc.join(timeout=max(0.0, deadline - time.perf_counter()))
        for proc in live:
            if proc.is_alive():
                proc.kill()
                proc.join(timeout=grace_s)

    # -- lifecycle -------------------------------------------------------
    def open(self, plan, channel: Channel, sync_policy: "SyncPolicy",
             telemetry, epochs: int) -> None:
        if channel.transmits_p:
            raise ValueError(
                "the process plane is Strategy-1 by construction (P lives in "
                "shared memory and is updated in place); use a Q-only channel "
                f"stack, not {channel.describe()!r}"
            )
        traffic = channel.traffic(2, 1, 1)
        if traffic.sync_values == 0:
            raise ValueError(
                "q-rotate channels have no pull/push/sync stages; the "
                "rotation loop runs only on the sim plane"
            )
        ratings = self.ratings
        warm = self.initial_model
        k = warm.k if warm is not None else self.k
        ctx = mp.get_context("spawn")

        self._channel = channel
        self._sync_policy = sync_policy
        self._fractions = plan.fractions
        self._start_barrier = ctx.Barrier(self.n_workers + 1)
        self._end_barrier = ctx.Barrier(self.n_workers + 1)
        # the epoch base and the merge's block buffer, allocated once and
        # rewritten in place every epoch; close() drops them
        self._q_base = np.empty((k, ratings.n), dtype=np.float32)
        self._merge_scratch = merge_scratch()
        self._epochs = epochs
        self._procs: list = []
        self._rings: list = []
        self._attempt += 1
        if self._run_origin is None:
            self._run_origin = time.perf_counter()
        # this attempt's server-side spans, already on the run's axes
        self._spans = NullRecorder() if telemetry is None else ServerSpans(
            Timeline(), self._run_origin, self.epoch_offset, self._attempt
        )
        attempt_profile_dir = None
        if self.profile_dir is not None:
            # one subdir per engine attempt so recovered runs keep every
            # attempt's worker dumps (mirrors the attempt-tagged rings)
            attempt_profile_dir = os.path.join(
                self.profile_dir, f"attempt-{self._attempt}"
            )
            os.makedirs(attempt_profile_dir, exist_ok=True)

        # register each segment's unlink the moment it exists: if a later
        # create (or anything else) raises, the earlier segments are
        # still destroyed instead of leaking until reboot
        self._stack = ExitStack()
        try:
            # every size follows from (m, n, nnz, k, n_workers), so all
            # segments exist — and all workers are spawned, with specs
            # only — before the server touches a single rating
            wire = channel.wire_dtype
            self._p_shared = SharedArray.create((ratings.m, k), "float32")
            self._stack.callback(self._p_shared.unlink)
            self._pull_bufs = []
            for _ in range(max(1, channel.depth)):
                buf = SharedArray.create((k, ratings.n), wire)
                self._stack.callback(buf.unlink)
                self._pull_bufs.append(buf)
            self._push_bufs = []
            for _ in range(self.n_workers):
                buf = SharedArray.create((k, ratings.n), wire)
                self._stack.callback(buf.unlink)
                self._push_bufs.append(buf)
            # per-rank progress stamps: the attach handshake, then one
            # per barrier, read only to diagnose a broken rendezvous (no
            # synchronization on the happy path)
            self._progress = SharedArray.create((self.n_workers,), "int64")
            self._stack.callback(self._progress.unlink)
            # the ratings, placed once where every worker can address
            # them (paper 3.5): shard i is [offsets[i], offsets[i+1])
            self._shard_segs = []
            for dtype in ("int64", "int64", "float32"):
                seg = SharedArray.create((max(1, ratings.nnz),), dtype)
                self._stack.callback(seg.unlink)
                self._shard_segs.append(seg)
            self._offsets = SharedArray.create((self.n_workers + 1,), "int64")
            self._stack.callback(self._offsets.unlink)
            if telemetry is not None:
                from repro.obs.spans import SpanRing

                for wid in range(self.n_workers):
                    ring = SpanRing.create(
                        capacity=epochs * _SPANS_PER_EPOCH,
                        worker=f"worker-{wid}",
                        attempt=self._attempt,
                    )
                    self._stack.callback(ring.unlink)
                    self._rings.append(ring)
            # LIFO: registered last so stragglers die before any unlink
            self._stack.callback(self._terminate_stragglers, self._procs)

            for wid in range(self.n_workers):
                proc = ctx.Process(
                    target=worker_main,
                    args=(
                        wid,
                        self._p_shared.spec,
                        tuple(buf.spec for buf in self._pull_bufs),
                        self._push_bufs[wid].spec,
                        self._progress.spec,
                        tuple(seg.spec for seg in self._shard_segs),
                        self._offsets.spec,
                        channel,
                        epochs,
                        self.lr,
                        self.reg,
                        self.batch_size,
                        self.seed,
                        self._start_barrier,
                        self._end_barrier,
                        self.barrier_timeout_s,
                        self._rings[wid].spec if telemetry is not None else None,
                        self.epoch_offset,
                        self.fault_plan.for_rank(wid),
                        attempt_profile_dir,
                    ),
                    daemon=True,
                )
                proc.start()
                self._procs.append(proc)

            # the server's own preparation overlaps the workers'
            # interpreter bootstrap; the first start barrier publishes
            # everything written here
            data = ratings.shuffle(self.seed)
            assignments = partition_rows(data, plan.fractions, GridKind.ROW)
            self._shard_nnz = [a.nnz for a in assignments]
            self._offsets.array[1:] = np.cumsum(self._shard_nnz)
            for a, lo in zip(assignments, self._offsets.array):
                # a.extract(data).sort_by_row(), written straight into
                # the shard's slice of the shared segments
                by_row = a.entries[
                    np.lexsort((data.cols[a.entries], data.rows[a.entries]))
                ]
                for seg, column in zip(
                    self._shard_segs, (data.rows, data.cols, data.vals)
                ):
                    seg.array[lo : lo + a.nnz] = column[by_row]
            self.data = data
            if warm is None:
                self.model = MFModel.init_for(data, self.k, seed=self.seed)
            else:
                # once-per-run server-side snapshot  # hcclint: disable=hot-copy
                self.model = MFModel(warm.P.copy(), warm.Q.copy())
            np.copyto(self._p_shared.array, self.model.P)
            self._wait_stamps(HANDSHAKE_STAMP, "bootstrap", 0, exits_count=False)
        except BaseException:
            self._stack.close()
            self._stack = None
            raise

    def _missing(self, expected: int, exits_count: bool) -> tuple[int, ...]:
        """Ranks whose stamp is short of ``expected``.

        With ``exits_count`` a rank also counts as missing when its
        process already exited abnormally: a killed worker may have
        stamped *before* dying, and the stamps alone would misname it.
        """
        stamps = self._progress.array
        return tuple(
            rank
            for rank in range(self.n_workers)
            if stamps[rank] < expected
            or (exits_count and self._procs[rank].exitcode not in (None, 0))
        )

    def _wait_stamps(
        self, expected: int, point: str, epoch: int, exits_count: bool = True
    ) -> None:
        """Poll stamps and exit codes until every rank reached ``expected``.

        Bounded by ``barrier_timeout_s``.  A missing rank whose process
        already exited can never arrive, so a dead worker is detected
        as soon as its exit code lands (milliseconds) — the full
        timeout only applies to stragglers, which might still make it.
        """
        deadline = time.perf_counter() + self.barrier_timeout_s
        while True:
            missing = self._missing(expected, exits_count)
            if not missing:
                return
            dead = any(self._procs[rank].exitcode is not None for rank in missing)
            if dead or time.perf_counter() >= deadline:
                raise WorkerSyncError(
                    point, epoch, missing, self.barrier_timeout_s
                )
            # liveness poll, not a lock wait: bounded by the deadline
            time.sleep(0.002)  # hcclint: disable=blocking-call

    def _await(self, barrier, point: str, epoch: int) -> None:
        """Rendezvous with every worker, detecting failures server-side.

        The server must never time out *inside* the barrier: a timed-out
        ``Barrier.wait`` breaks the barrier, which instantly kills every
        blocked survivor with ``BrokenBarrierError`` — destroying the
        exact evidence (who is still alive and waiting) the health plane
        needs.  So the server first watches the progress stamps and
        process states from outside (:meth:`_wait_stamps`), and only
        enters the barrier once every rank has stamped this rendezvous;
        workers wait with a longer timeout (``WORKER_PATIENCE_S``), so
        at detection time the survivors are still blocked, classifiable,
        and are then reaped by ``close()``.
        """
        expected = barrier_stamp(epoch, point)
        self._wait_stamps(expected, point, epoch)
        try:
            barrier.wait(timeout=self.barrier_timeout_s)
        except threading.BrokenBarrierError as exc:
            raise WorkerSyncError(
                point, epoch, self._missing(expected, exits_count=True),
                self.barrier_timeout_s,
            ) from exc

    # -- stages ----------------------------------------------------------
    def pull(self, epoch: int) -> Mapping:
        buf = self._pull_bufs[epoch % len(self._pull_bufs)]
        self._channel.encode(self.model.Q, buf.array)
        # the merge base is the exact matrix workers decode off the wire,
        # so pull-side quantization error cancels out of the deltas
        self._channel.decode(buf.array, out=self._q_base)
        self._await(self._start_barrier, "start", epoch)
        nbytes = buf.array.nbytes
        return {"wire_bytes": nbytes * self.n_workers, "per_worker_bytes": nbytes}

    def compute(self, epoch: int) -> Mapping:
        # the SGD itself runs in the worker processes between the two
        # barriers; the server-side stage records the shard workloads
        return {"updates": tuple(self._shard_nnz)}

    def push(self, epoch: int) -> Mapping:
        self._await(self._end_barrier, "end", epoch)
        nbytes = self._push_bufs[0].array.nbytes
        return {"wire_bytes": nbytes * self.n_workers, "per_worker_bytes": nbytes}

    def sync(self, epoch: int) -> Mapping:
        with self._spans.span("server", Phase.SYNC, epoch):
            # validate every push *before* merging any of them, as it
            # lies on the wire: the epoch's sync is all-or-nothing, so a
            # garbage payload (torn write from a dying worker, injected
            # corruption) leaves the model at the last cleanly-synced
            # epoch — the state a retry restarts from
            for wid, buf in enumerate(self._push_bufs):
                if not self._channel.payload_ok(buf.array):
                    raise WirePayloadError(wid, epoch)
            np.copyto(self.model.P, self._p_shared.array)
            for wid, buf in enumerate(self._push_bufs):
                # additive delta merge: workers trained on disjoint
                # row-grid shards, so their Q deltas are distinct SGD
                # steps and all of them apply
                merge_delta(
                    self.model.Q, buf.array, self._q_base,
                    self._sync_policy.weight(wid, self._fractions),
                    self._merge_scratch,
                )
        return {"merges": self.n_workers,
                "merged_values": int(self.model.Q.size) * self.n_workers}

    def evaluate(self, epoch: int) -> float:
        with self._spans.span("server", Phase.EVAL, epoch):
            return self.model.rmse(self.data)

    # -- resilience ------------------------------------------------------
    def health_report(self, err: Exception | None = None) -> HealthReport:
        """Classify every worker at failure time (the health plane).

        Must run *before* :meth:`close` — teardown terminates the
        stragglers this report is meant to distinguish from the dead.
        Fuses the barrier progress evidence carried by ``err``
        (``missing_ranks``) with each process's live/exit state.

        A worker that crashed *moments* before the report would still
        show ``exitcode is None`` (the OS has not reaped it yet), so
        each missing rank gets a short grace join for its exit code to
        settle; a genuine straggler survives the grace and stays
        classified as straggling.
        """
        missing = tuple(getattr(err, "missing_ranks", ()) or ())
        deadline = time.perf_counter() + 1.0
        for rank in missing:
            if rank < len(self._procs) and self._procs[rank].exitcode is None:
                grace = max(0.0, deadline - time.perf_counter())
                self._procs[rank].join(timeout=grace)
        exitcodes = [proc.exitcode for proc in self._procs]
        return classify(
            self.n_workers, missing, exitcodes, cause=str(err) if err else ""
        )

    def drop_faults_through(self, epoch: int) -> None:
        """Retire injected faults at or before ``epoch`` (already fired).

        The engine calls this before a recovery restart so the fault
        that broke the epoch does not fire again on the re-run.
        """
        self.fault_plan = self.fault_plan.without_epochs_through(epoch)

    def remap_fault_ranks(self, dead_ranks) -> None:
        """Renumber pending faults after a redistribution compacts ranks.

        Called by the engine with the *old* numbering, before it
        shrinks ``n_workers``, so a fault aimed at a surviving worker
        follows that worker to its new rank instead of landing on
        whichever rank inherited the number.
        """
        self.fault_plan = self.fault_plan.remap_ranks(
            set(dead_ranks), self.n_workers
        )

    # -- teardown --------------------------------------------------------
    def finalize(self, telemetry) -> None:
        for proc in self._procs:
            proc.join(timeout=self.barrier_timeout_s)
        if telemetry is not None:
            self._finalize_telemetry(telemetry)

    def close(self) -> None:
        # the per-epoch buffers are sized k x n; a backend kept for its
        # model (publish, serving) must not keep them alive
        self._q_base = None
        self._merge_scratch = None
        if self._stack is not None:
            # failure path (finalize never ran): the attempt's spans
            # would die with the rings' unlink, so reap the stragglers
            # (ordering their last ring writes before our reads) and
            # rescue the records first
            if self._rings and not self._finalized:
                self._terminate_stragglers(self._procs)
                spans, dropped = self._drain_attempt_spans()
                self._kept_spans.extend(spans)
                self._kept_dropped += dropped
            self._stack.close()
            self._stack = None

    def _drain_attempt_spans(self) -> tuple[list[Span], int]:
        """This attempt's ring + server spans on the *run's* axes.

        Ring records carry attempt-local epochs and absolute clock
        times; the run's Timeline speaks global epochs and run-origin
        time (as the server's own spans already do), so spans from
        different attempts interleave correctly.
        """
        origin = self._run_origin or 0.0
        spans: list[Span] = []
        dropped = 0
        for ring in self._rings:
            for rec in ring.drain():
                spans.append(Span(
                    ring.worker, rec.phase, rec.start - origin,
                    rec.end - origin, rec.epoch + self.epoch_offset,
                    rec.attempt,
                ))
            dropped += ring.dropped
        spans.extend(self._spans.timeline.spans)
        return spans, dropped

    def _finalize_telemetry(self, telemetry: "Telemetry") -> None:
        """Drain the span rings into the run's Timeline and registry.

        Runs after the workers joined and *before* the rings unlink
        (close()'s ExitStack teardown), so every record is final and
        readable.  Spans rescued from earlier recovery attempts are
        stitched in ahead of the final attempt's.
        """
        from repro.obs.drift import HostRunInfo

        spans, dropped = self._drain_attempt_spans()
        timeline = Timeline()
        timeline.extend(self._kept_spans)
        timeline.extend(spans)
        dropped += self._kept_dropped
        self._finalized = True
        registry = telemetry.registry
        # wire-accurate per-epoch bytes: the actual shared-segment sizes,
        # so FP16 stacks report half the FP32 traffic
        pull_bytes = self._pull_bufs[0].array.nbytes
        push_bytes = self._push_bufs[0].array.nbytes
        epochs = self._epochs
        updates = registry.counter("updates_total", "SGD updates applied")
        pulled = registry.counter("bytes_pulled_total", "bytes pulled per worker")
        pushed = registry.counter("bytes_pushed_total", "bytes pushed per worker")
        barrier = registry.histogram(
            "barrier_wait_seconds", "time workers spent waiting at barriers"
        )
        merge = registry.histogram(
            "merge_seconds", "server delta-merge time per epoch"
        )
        rate = registry.gauge("updates_per_second", "achieved per-worker rate")
        for wid, ring in enumerate(self._rings):
            worker = ring.worker
            updates.inc(self._shard_nnz[wid] * epochs, worker=worker)
            pulled.inc(pull_bytes * epochs, worker=worker)
            pushed.inc(push_bytes * epochs, worker=worker)
            compute_s = timeline.phase_total(Phase.COMPUTE, worker)
            if compute_s > 0:
                rate.set(self._shard_nnz[wid] * epochs / compute_s, worker=worker)
        for span in timeline.spans:
            if span.phase is Phase.BARRIER:
                barrier.observe(span.duration, worker=span.worker)
            elif span.phase is Phase.SYNC:
                merge.observe(span.duration)
        telemetry.attach_run(
            timeline,
            dropped,
            HostRunInfo(
                worker_names=tuple(r.worker for r in self._rings),
                shard_nnz=tuple(self._shard_nnz),
                k=self.k,
                m=self.data.m,
                n=self.data.n,
                epochs=epochs,
            ),
            ratings=self.data,
        )
