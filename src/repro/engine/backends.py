"""Compute backends: what each pipeline stage means on a real substrate.

Two substrates implement the :class:`~repro.engine.pipeline.ComputeBackend`
protocol:

* :class:`SimBackend` — the in-process plane.  Workers take turns on
  the host, each running the worker half of the epoch inline over
  private wire arrays; an optional
  :class:`~repro.core.cost_model.TimeCostModel` advances the simulated
  clock one epoch cost per epoch (the "cost-model advance").
* :class:`ProcessBackend` — the wall-clock plane.  The calling process
  is the server, every worker is an OS process (paper 3.5), and the
  wires are :class:`~repro.parallel.shm.SharedArray` segments, so
  Q-only payloads and the FP16 wire cross process boundaries for real.
  What a worker process runs lives in :mod:`repro.engine.worker_proc`,
  which imports far less than this module does.

Both run one epoch over one wire: :class:`_EpochBackend` drives a
:class:`~repro.core.server.ParameterServer` (the server half), the
workers run :func:`~repro.engine.worker_proc.worker_epoch` (the worker
half), and the two classes keep what really differs — where the workers
run and what a rendezvous with them is.  The ``engine-parity`` CI stage
diffs their stage traces and per-worker update counts.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import threading
import time
from contextlib import ExitStack, contextmanager
from typing import Mapping

import numpy as np

from repro.core.server import ParameterServer, column_set
from repro.data.grid import row_sorted_shards
from repro.data.ratings import RatingMatrix
from repro.engine.channels import Channel, all_finite
from repro.engine.worker_proc import (
    HANDSHAKE_STAMP,
    NullRecorder,
    barrier_stamp,
    local_view,
    worker_epoch,
    worker_main,
)
from repro.hardware.timeline import Phase, Timeline
from repro.mf.model import MFModel
from repro.parallel.shm import SharedArray
from repro.resilience.faults import DELAY, FaultPlan, fault_before_barrier
from repro.resilience.health import HealthReport, classify

#: Default ceiling on any cross-process rendezvous (barriers, joins);
#: overridable per run via the backends' ``barrier_timeout_s=``.
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
    """Span scope for one lane of what an attempt does on the server's clock.

    ``span(phase, epoch)`` — the worker-side ``SpanRecorder``'s
    signature — times its body with ``perf_counter`` and, if the body
    returns, adds the span to ``timeline`` on the run's axes:
    run-origin time, global epoch, attempt tag.  Without telemetry the
    backends hold a :class:`NullRecorder` instead, so each stage method
    has one body.
    """

    def __init__(self, timeline: Timeline, lane: str, origin: float,
                 epoch_offset: int, attempt: int):
        self.timeline = timeline
        self._lane = lane
        self._origin = origin
        self._epoch_offset = epoch_offset
        self._attempt = attempt

    @contextmanager
    def span(self, phase: Phase, epoch: int):
        t0 = time.perf_counter()
        yield
        self.timeline.add(
            self._lane, phase, t0 - self._origin,
            time.perf_counter() - self._origin,
            epoch + self._epoch_offset, self._attempt,
        )


class WirePayloadError(RuntimeError):
    """What a worker handed back failed validation; names the offending rank.

    Raised *before* any merge of the epoch: the server validates every
    worker's push — and the P rows each trained in place — first, so a
    garbage payload (a torn write from a dying worker, an injected
    corruption, a diverged worker) never leaves the global Q
    half-merged or reaches the server's P.  The model still holds the
    last cleanly-synced epoch, which is what makes a retry of the epoch
    sound.
    """

    def __init__(self, rank: int, epoch: int, what: str = "pushed a corrupt payload"):
        self.rank = rank
        self.epoch = epoch
        self.missing_ranks = (rank,)
        super().__init__(
            f"a worker process failed mid-epoch: worker-{rank} {what} "
            f"(non-finite values) for epoch {epoch}; the epoch was not merged"
        )


# ---------------------------------------------------------------------------
# what both planes share
# ---------------------------------------------------------------------------
class _EpochBackend:
    """The run's knobs and the server half of the stage pipeline.

    A subclass opens the attempt (workers, wires, ``self.server``) and
    says what a rendezvous with its workers is (:meth:`_rendezvous`),
    where a failed worker's exit code comes from (:meth:`_exitcodes`),
    where the P an epoch trained lies (:meth:`_trained_p`) and what
    accepting or refusing its updates means (:meth:`_accept_epoch`,
    :meth:`_refuse_epoch`); everything else an epoch does on the server
    is written here once.
    """

    def __init__(
        self,
        ratings: RatingMatrix,
        n_workers: int,
        k: int,
        lr: float,
        reg: float,
        batch_size: int,
        seed: int,
        barrier_timeout_s: float,
        fault_plan: FaultPlan | None,
    ):
        if n_workers <= 0:
            raise ValueError("n_workers must be positive")
        if k <= 0:
            raise ValueError("k must be positive")
        if barrier_timeout_s <= 0:
            raise ValueError("barrier_timeout_s must be positive")
        self.ratings = ratings
        self.n_workers = n_workers
        self.k = k
        self.lr = lr
        self.reg = reg
        self.batch_size = batch_size
        self.seed = seed
        self.barrier_timeout_s = float(barrier_timeout_s)
        #: the injected-failure script (docs/resilience.md); pruned by
        #: the engine after each recovery so faults fire at most once
        self.fault_plan = fault_plan if fault_plan is not None else FaultPlan()
        self.model: MFModel | None = None
        self.server: ParameterServer | None = None
        #: warm-start state the engine sets for checkpoint resume and
        #: recovery restarts: factors to start from, and how many global
        #: epochs already completed (replayed out of each worker's RNG
        #: stream so a resumed run continues the exact sample order)
        self.initial_model: MFModel | None = None
        self.epoch_offset = 0
        self._attempt = -1
        #: one clock origin and (with telemetry) one timeline for the
        #: whole run, fixed at the first open, so spans from every
        #: recovery attempt share a time base and none are lost
        self._run_origin: float | None = None
        self._run_timeline: Timeline | None = None

    # -- attempt set-up --------------------------------------------------
    def _begin_attempt(self, channel: Channel, telemetry, epochs: int) -> None:
        self._channel = channel
        self._epochs = epochs
        self._attempt += 1
        if self._run_origin is None:
            self._run_origin = time.perf_counter()
            if telemetry is not None:
                self._run_timeline = Timeline()
        self._spans = self._recorder("server")

    def _recorder(self, lane: str):
        """This attempt's span scope for one timeline lane."""
        if self._run_timeline is None:
            return NullRecorder()
        return ServerSpans(
            self._run_timeline, lane, self._run_origin, self.epoch_offset,
            self._attempt,
        )

    def _initial_model(self, data: RatingMatrix, mean: float | None = None) -> MFModel:
        warm = self.initial_model
        if warm is None:
            return MFModel.init_for(data, self.k, seed=self.seed, mean=mean)
        # warm start: once-per-run private copies, so training never
        # writes into the caller's checkpoint arrays  # hcclint: disable=hot-copy
        return MFModel(warm.P.copy(), warm.Q.copy())

    # -- stages ----------------------------------------------------------
    def _pushed(self) -> list[np.ndarray]:
        """Per worker, what crosses each way in an epoch: the ``k * t_i``
        values of its column set, as they lie on its push wire."""
        return [self.server.pushed(wid) for wid in range(self.n_workers)]

    def _wire_detail(self) -> Mapping:
        per_worker = tuple(pushed.nbytes for pushed in self._pushed())
        return {"wire_bytes": sum(per_worker), "per_worker_bytes": per_worker}

    def pull(self, epoch: int) -> Mapping:
        self.server.begin_epoch()
        self._rendezvous("start", epoch)
        return self._wire_detail()

    def compute(self, epoch: int) -> Mapping:
        # the SGD runs in the workers; the stage records their workloads
        return {"updates": tuple(self._shard_nnz)}

    def push(self, epoch: int) -> Mapping:
        self._rendezvous("end", epoch)
        return self._wire_detail()

    def sync(self, epoch: int) -> Mapping:
        with self._spans.span(Phase.SYNC, epoch):
            # every push is validated before any is merged
            # (ParameterServer.first_bad_push): a refused epoch leaves
            # the model at the last cleanly-synced one
            bad = self.server.first_bad_push()
            if bad is not None:
                self._refuse_epoch()
                raise WirePayloadError(bad, epoch)
            # P never crosses a wire (Strategy 1): each worker's rows
            # are scanned where it trained them, before the server
            # takes them
            trained = self._trained_p()
            for wid, (lo, hi) in enumerate(self._p_rows):
                if not all_finite(trained[lo:hi]):
                    self._refuse_epoch()
                    raise WirePayloadError(wid, epoch, "diverged in its P rows")
            self._accept_epoch(epoch)
            for wid in range(self.n_workers):
                # additive delta merge: workers trained on disjoint
                # row-grid shards, so their Q deltas are distinct SGD
                # steps and all of them apply
                self.server.sync(wid)
        return {"merges": self.n_workers,
                "merged_values": sum(pushed.size for pushed in self._pushed())}

    def evaluate(self, epoch: int) -> float:
        with self._spans.span(Phase.EVAL, epoch):
            return self.model.rmse(self._eval_set)

    # -- resilience ------------------------------------------------------
    def health_report(self, err: Exception | None = None) -> HealthReport:
        """Classify every worker at failure time (the health plane).

        Fuses the barrier progress evidence carried by ``err``
        (``missing_ranks``) with each rank's exit code — a reaped
        process's on the process plane, the simulated one (13 hard
        kill, 1 soft, none for a straggler) on the sim plane — so both
        planes hand :func:`~repro.resilience.policy.decide` identical
        evidence.  Must run *before* :meth:`close`: teardown terminates
        the stragglers this report tells from the dead.
        """
        missing = tuple(getattr(err, "missing_ranks", ()) or ())
        return classify(
            self.n_workers, missing, self._exitcodes(missing),
            cause=str(err) if err else "",
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

    # -- telemetry -------------------------------------------------------
    def _record_run(self, registry) -> None:
        """The final attempt's per-worker counters and span histograms.

        Bytes are wire-accurate — what each worker's column set moves
        at the wire itemsize, so FP16 stacks report half the FP32
        traffic and a sparse shard its share of the columns.
        """
        timeline, epochs = self._run_timeline, self._epochs
        wire_bytes = [pushed.nbytes for pushed in self._pushed()]
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
        for wid, nnz in enumerate(self._shard_nnz):
            worker = f"worker-{wid}"
            updates.inc(nnz * epochs, worker=worker)
            pulled.inc(wire_bytes[wid] * epochs, worker=worker)
            pushed.inc(wire_bytes[wid] * epochs, worker=worker)
            compute_s = timeline.phase_total(Phase.COMPUTE, worker)
            if compute_s > 0:
                rate.set(nnz * epochs / compute_s, worker=worker)
        for span in timeline.spans:
            if span.phase is Phase.BARRIER:
                barrier.observe(span.duration, worker=span.worker)
            elif span.phase is Phase.SYNC:
                merge.observe(span.duration)


# ---------------------------------------------------------------------------
# sim backend (in-process numerics + cost-model clock)
# ---------------------------------------------------------------------------
class SimBackend(_EpochBackend):
    """In-process workers over private wire arrays, with a simulated clock.

    ``ratings`` must already be in row-grid orientation and shuffled
    (what :meth:`repro.framework.HCCMF.prepare` produces); the
    backend partitions them by the engine-resolved plan.  ``cost_model``
    is optional: when given, every epoch advances :attr:`sim_seconds`
    by that plan's analytic epoch cost — priced over the *surviving*
    workers after a redistribution, which is the cost model's
    degraded-epoch path.

    ``fault_plan`` takes the path it takes on the process plane:
    dropped and corrupted payloads are written by the worker half's own
    push encode and found (or not) by the server's scan of the wires,
    which also catches a worker that genuinely diverged; kills and
    stragglers surface at the simulated rendezvous
    (:meth:`_rendezvous`) as the :class:`WorkerSyncError` the process
    server would raise, and benign stragglers stretch the simulated
    clock.
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
        super().__init__(
            ratings, platform.n_workers, k, lr, reg, batch_size, seed,
            barrier_timeout_s, fault_plan,
        )
        self.platform = platform
        self.eval_data = eval_data
        self.cost_model = cost_model
        self.sim_seconds = 0.0
        #: the platform workers still alive — pruned by
        #: :meth:`remap_fault_ranks` when a redistribution removes ranks,
        #: so degraded epochs are priced over the survivors
        self._platform_workers = list(platform.workers)

    # -- lifecycle -------------------------------------------------------
    def open(self, plan, channel: Channel, telemetry, epochs: int) -> None:
        from repro.core.worker import WorkerRuntime

        self._begin_attempt(channel, telemetry, epochs)
        data = self.ratings
        self.model = self._initial_model(data)
        # the plane's one copy of the ratings: row-sorted, trained on
        # shard by shard and evaluated over whole
        store, offsets, self._p_rows = row_sorted_shards(data, plan.fractions)
        self._eval_set = self.eval_data if self.eval_data is not None else store
        # a runtime carries its view of the store, the sim plane's seed
        # stream and its conflict policy into the shared worker half
        self.runtimes = [
            WorkerRuntime(
                i, proc, None,
                RatingMatrix(
                    data.m, data.n,
                    store.rows[lo:hi], store.cols[lo:hi], store.vals[lo:hi],
                ),
                batch_size=self.batch_size, seed=self.seed,
            )
            for i, (proc, lo, hi) in enumerate(
                zip(self._platform_workers, offsets, offsets[1:])
            )
        ]
        # replay already-completed epochs out of each worker's RNG
        # stream: one permutation draw per epoch (sgd_shard_epoch draws
        # exactly one), so a resumed run is bitwise-identical to the
        # straight-through run it continues
        for _ in range(self.epoch_offset):
            for rt in self.runtimes:
                rt.rng.permutation(rt.nnz)
        self._shard_nnz = [rt.nnz for rt in self.runtimes]
        # per worker, allocated once: the shared P beside a local Q every
        # pull decodes into, its shard numbered into that Q, and the
        # column set both stand for (worker_proc.local_view)
        self._locals = [
            local_view(
                self.model.P, (rt.data.rows, rt.data.cols, rt.data.vals), data.n
            )
            for rt in self.runtimes
        ]
        self.server = ParameterServer(
            self.model, self.n_workers, channel,
            columns=[cols for _, _, cols in self._locals],
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
        #: simulated process exit codes for killed ranks (13 hard, 1
        #: soft), feeding classify() exactly as real exit codes would
        self._sim_exitcodes: dict[int, int] = {}
        self._p_snapshot: np.ndarray | None = None
        if self._attempt == 0:
            self.sim_seconds = 0.0
        # the span scope of each worker's timeline lane
        self._recorders = [
            self._recorder(f"worker-{rt.worker_id}") for rt in self.runtimes
        ]

    # -- what a rendezvous is when the workers are simulated -------------
    def _rendezvous(self, point: str, epoch: int) -> None:
        """The simulated barrier: ``ProcessBackend._rendezvous``'s twin.

        Each rank's slice of the plan is asked what a worker process
        asks itself before stamping.  A killed rank goes missing with
        its exit code (13 hard, 1 soft) recorded for the health plane;
        a delay past the barrier timeout is a fatal straggler (alive,
        so no exit code); a shorter one stretches the simulated clock
        by the longest stall, since real stragglers hold the rendezvous
        in parallel.  A broken rendezvous raises what the process
        server raises, with P rolled back (see :meth:`_refuse_epoch`).
        """
        global_epoch = epoch + self.epoch_offset
        missing: list[int] = []
        stall = 0.0
        for rank in range(self.n_workers):
            fault = fault_before_barrier(
                self.fault_plan.for_rank(rank), global_epoch, point
            )
            if fault is None:
                continue
            if fault.kind != DELAY:
                self._sim_exitcodes[rank] = 13 if fault.hard else 1
                missing.append(rank)
            elif fault.seconds > self.barrier_timeout_s:
                missing.append(rank)
            else:
                stall = max(stall, fault.seconds)
        if missing:
            self._refuse_epoch()
            raise WorkerSyncError(
                point, epoch, tuple(missing), self.barrier_timeout_s
            )
        self.sim_seconds += stall

    def _exitcodes(self, missing) -> list:
        return [self._sim_exitcodes.get(r) for r in range(self.n_workers)]

    def _trained_p(self) -> np.ndarray:
        return self.model.P

    def _refuse_epoch(self) -> None:
        # the process server only copies P out of shared memory once an
        # epoch validates; the sim trains P in place and must undo it
        if self._p_snapshot is not None:
            np.copyto(self.model.P, self._p_snapshot)
            self._p_snapshot = None

    def _accept_epoch(self, epoch: int) -> None:
        self._p_snapshot = None
        self.sim_seconds += self._epoch_sim_cost

    # -- the one stage the planes do not share ---------------------------
    def compute(self, epoch: int) -> Mapping:
        global_epoch = epoch + self.epoch_offset
        if any(f.epoch == global_epoch for f in self.fault_plan.faults):
            # a fault scheduled for this epoch may fail it after P was
            # trained in place: keep what _refuse_epoch rolls back to
            self._p_snapshot = self.model.P.copy()  # hcclint: disable=hot-copy
        idle = NullRecorder()
        pull_wire = self.server.pull_wire
        for rt, local, push_wire, rec in zip(
            self.runtimes, self._locals, self.server.push_wires, self._recorders
        ):
            worker_epoch(
                self._channel, *local, pull_wire, push_wire, self.lr, self.reg,
                rt.batch_size, rt.policy, rt.rng,
                self.fault_plan.for_rank(rt.worker_id),
                epoch, global_epoch, rec, idle,
            )
        return super().compute(epoch)

    def remap_fault_ranks(self, dead_ranks) -> None:
        """Also prune the dead platform workers: subsequent opens build
        runtimes — and price epochs — over the survivors only."""
        dead = set(dead_ranks)
        self._platform_workers = [
            w for r, w in enumerate(self._platform_workers) if r not in dead
        ]
        super().remap_fault_ranks(dead)

    def finalize(self, telemetry) -> None:
        if telemetry is not None:
            self._record_run(telemetry.registry)
            telemetry.timeline = self._run_timeline

    def close(self) -> None:
        # everything sized by the run goes with it — the server's
        # wires, the workers' local Qs, the row-sorted store and the
        # runtimes' views of it — so a backend kept for its ``model``
        # (publish, serving) holds the factors and nothing else
        self._locals = []
        self.server = None
        self.runtimes = []
        self._eval_set = None


# ---------------------------------------------------------------------------
# process backend (OS workers over shared memory)
# ---------------------------------------------------------------------------
class ProcessBackend(_EpochBackend):
    """OS worker processes over shared memory (wall-clock plane).

    The calling process acts as the server: per epoch it encodes Q onto
    the wire (pull stage), releases the start barrier, awaits the end
    barrier (push stage), and applies the sync policy's delta merge
    against the pull wire itself — the exact matrix workers decoded,
    so FP16 pull quantization cancels out of the deltas.
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
        super().__init__(
            ratings, n_workers, k, lr, reg, batch_size, seed,
            barrier_timeout_s, fault_plan,
        )
        self._stack: ExitStack | None = None
        #: worker-profile drop directory the engine sets when profiling
        #: (EpochEngine(profile=...)); one attempt-N subdir per open
        self.profile_dir: str | None = None
        self._dropped_spans = 0

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
    def open(self, plan, channel: Channel, telemetry, epochs: int) -> None:
        if channel.transmits_p:
            raise ValueError(
                "the process plane is Strategy-1 by construction (P lives in "
                "shared memory and is updated in place); use a Q-only channel "
                f"stack, not {channel.describe()!r}"
            )
        ratings = self.ratings
        warm = self.initial_model
        k = warm.k if warm is not None else self.k
        ctx = mp.get_context("spawn")

        self._begin_attempt(channel, telemetry, epochs)
        self._barriers = {
            point: ctx.Barrier(self.n_workers + 1) for point in ("start", "end")
        }
        self._procs: list = []
        #: this attempt's span rings, until their records are drained
        #: onto the run's timeline (the rings die with each close)
        self._rings: list = []
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
            self._pull_buf = SharedArray.create((k, ratings.n), wire)
            self._stack.callback(self._pull_buf.unlink)
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
                        self._pull_buf.spec,
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
                        self._barriers["start"],
                        self._barriers["end"],
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
            # everything written here.  The ratings are stored once:
            # the shuffle (the draw ``ratings.shuffle(seed)`` makes) is
            # a gather straight into the shard segments ...
            perm = np.random.default_rng(self.seed).permutation(ratings.nnz)
            views = [seg.array[: ratings.nnz] for seg in self._shard_segs]
            for column, view in zip(
                (ratings.rows, ratings.cols, ratings.vals), views
            ):
                # perm is in range by construction; "clip" is the mode
                # that writes into ``out`` without buffering it
                np.take(column, perm, out=view, mode="clip")
            del perm
            # ... the initial model's mean is taken from them while they
            # are still in shuffled order (that order's float32 sum) ...
            shuffled = RatingMatrix(ratings.m, ratings.n, *views)
            mean = shuffled.mean_rating()
            # ... and one stable sort in place leaves the row-sorted
            # store every worker trains on its slice of and the server
            # evaluates over; close() drops it before the segments unmap
            store, offsets, self._p_rows = row_sorted_shards(
                shuffled, plan.fractions, out=views
            )
            self._eval_set = store
            self._offsets.array[:] = offsets
            self._shard_nnz = np.diff(offsets).tolist()
            # the factors come after the sort has returned its
            # temporaries: open()'s high-water is what it leaves resident
            self.model = self._initial_model(store, mean)
            np.copyto(self._p_shared.array, self.model.P)
            # the server half runs over the shared segments themselves
            # (dropped by close() as well).  Its column sets come from
            # the shard slices just written — the bytes each worker
            # derives its own from after the first barrier
            self.server = ParameterServer(
                self.model, self.n_workers, channel,
                wires=(
                    self._pull_buf.array,
                    [buf.array for buf in self._push_bufs],
                ),
                columns=[
                    column_set(store.cols[lo:hi], ratings.n)
                    for lo, hi in zip(offsets, offsets[1:])
                ],
            )
            self._wait_stamps(HANDSHAKE_STAMP, "bootstrap", 0, exits_count=False)
        except BaseException:
            self.server = self._eval_set = None
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

    def _rendezvous(self, point: str, epoch: int) -> None:
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
            self._barriers[point].wait(timeout=self.barrier_timeout_s)
        except threading.BrokenBarrierError as exc:
            raise WorkerSyncError(
                point, epoch, self._missing(expected, exits_count=True),
                self.barrier_timeout_s,
            ) from exc

    def _exitcodes(self, missing) -> list:
        """Every process's exit code, once the missing ranks' have settled.

        A worker that crashed *moments* before the report would still
        show ``exitcode is None`` (the OS has not reaped it yet), so
        each missing rank gets a short grace join; a genuine straggler
        survives the grace and stays classified as straggling.
        """
        deadline = time.perf_counter() + 1.0
        for rank in missing:
            if rank < len(self._procs) and self._procs[rank].exitcode is None:
                grace = max(0.0, deadline - time.perf_counter())
                self._procs[rank].join(timeout=grace)
        return [proc.exitcode for proc in self._procs]

    def _trained_p(self) -> np.ndarray:
        return self._p_shared.array

    def _refuse_epoch(self) -> None:
        pass  # P was never copied out of shared memory

    def _accept_epoch(self, epoch: int) -> None:
        np.copyto(self.model.P, self._p_shared.array)

    # -- teardown --------------------------------------------------------
    def finalize(self, telemetry) -> None:
        """Join the workers; drain the rings into the run's Timeline and registry.

        Runs *before* the rings unlink (close()'s ExitStack teardown),
        so every record is final and readable; spans of earlier
        recovery attempts are already on the timeline.
        """
        for proc in self._procs:
            proc.join(timeout=self.barrier_timeout_s)
        if telemetry is None:
            return
        from repro.obs.drift import HostRunInfo

        worker_names = tuple(ring.worker for ring in self._rings)
        self._drain_rings()
        self._record_run(telemetry.registry)
        telemetry.attach_run(
            self._run_timeline,
            self._dropped_spans,
            HostRunInfo(
                worker_names=worker_names,
                shard_nnz=tuple(self._shard_nnz),
                shard_columns=tuple(pushed.shape[1] for pushed in self._pushed()),
                k=self.k,
                m=self.ratings.m,
                n=self.ratings.n,
                epochs=self._epochs,
            ),
            # the caller's matrix, not the store: the drift report's
            # update-rate probe reads it long after close() unmapped that
            ratings=self.ratings,
        )

    def close(self) -> None:
        # the server half holds views of the shared wires and the
        # store is views of the shard segments; a backend kept for its
        # model (publish, serving) must not keep them alive, nor past
        # the segments' unmapping — a read through a stale view is a
        # segfault, not an exception
        self.server = self._eval_set = None
        if self._stack is not None:
            # failure path (finalize never ran): the attempt's spans
            # would die with the rings' unlink, so reap the stragglers
            # (ordering their last ring writes before our reads) and
            # rescue the records first
            if self._rings:
                self._terminate_stragglers(self._procs)
                self._drain_rings()
            self._stack.close()
            self._stack = None

    def _drain_rings(self) -> None:
        """Move this attempt's ring records onto the run's timeline.

        Ring records carry attempt-local epochs and absolute clock
        times; the run's Timeline speaks global epochs and run-origin
        time (as the server's own spans already do), so spans from
        different attempts interleave correctly.
        """
        from repro.obs.spans import records_to_timeline

        for ring in self._rings:
            records_to_timeline(
                self._run_timeline, ring.worker, ring.drain(),
                self._run_origin, self.epoch_offset,
            )
            self._dropped_spans += ring.dropped
        self._rings = []
