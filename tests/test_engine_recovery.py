"""Integration tests for the fault-tolerant engine (docs/resilience.md).

These spawn real OS processes and inject real failures (process death,
stragglers, corrupted wire payloads), so sizes are small and barrier
timeouts short.  Worker death is detected from exit codes, not the
timeout, so the kill tests stay fast.
"""

import multiprocessing as mp
import os
import signal
import time

import numpy as np
import pytest

from repro.core.checkpoint import load_checkpoint
from repro.core.config import HCCConfig, RecoveryPolicy
from repro.core.partition import PartitionPlan, redistribute
from repro.data.datasets import NETFLIX, YAHOO_R1
from repro.data.grid import GridKind, partition_rows
from repro.data.ratings import RatingMatrix
from repro.engine import ProcessBackend, QOnlyChannel, SimBackend, WorkerSyncError
from repro.engine.pipeline import EpochEngine
from repro.framework import HCCMF
from repro.hardware.topology import paper_workstation
from repro.resilience import FaultPlan, TrainingAborted, WorkerState


@pytest.fixture(scope="module")
def data():
    return NETFLIX.scaled(4000).generate(seed=4)


#: no backoff sleeps in tests
FAST_RETRY = dict(backoff_base_s=0.0)

#: what ProcessBackend takes; every other keyword goes to EpochEngine
BACKEND_KW = ("k", "n_workers", "lr", "seed", "barrier_timeout_s", "fault_plan")


def engine_for(data, **kw):
    """The process-plane engine call every test here drives."""
    backend = ProcessBackend(
        data, **{name: kw.pop(name) for name in BACKEND_KW if name in kw}
    )
    return EpochEngine(backend, channel=QOnlyChannel(), **kw)


class TestKillRecovery:
    def test_kill_redistributes_and_converges(self, data):
        """The headline guarantee: kill 1 of 3 workers mid-run and the
        run still completes every epoch on the survivors, with final
        RMSE within 5% of the fault-free baseline."""
        kw = dict(k=8, n_workers=3, lr=0.01, seed=0, barrier_timeout_s=5.0)
        baseline = engine_for(data, **kw).run(4)
        res = engine_for(
            data,
            fault_plan=FaultPlan().kill(2, epoch=1),
            recovery=RecoveryPolicy(min_workers=2, **FAST_RETRY),
            **kw,
        ).run(4)

        assert len(res.rmse_history) == 4
        assert res.final_plan.n_workers == 2  # degraded: the dead shard moved
        summary = res.resilience
        assert summary is not None
        assert summary.redistributions == 1
        assert summary.degraded_epochs >= 1
        assert summary.final_workers == 2
        assert not summary.clean
        assert any("redistribute" in line for line in summary.failures)
        rel = abs(res.rmse_history[-1] - baseline.rmse_history[-1])
        rel /= baseline.rmse_history[-1]
        assert rel <= 0.05
        assert np.all(np.isfinite(res.model.P))
        assert np.all(np.isfinite(res.model.Q))

    def test_reopen_derives_column_sets_from_the_new_shards(self):
        """On an R1-shaped matrix every worker's wire is the columns its
        shard rates; after a kill the two survivors' shards are new, and
        so is what each moves: ``k * t_i`` values of *its* shard."""
        sparse = YAHOO_R1.scaled(4000).generate(seed=4)
        res = engine_for(
            sparse, k=8, n_workers=3, lr=0.002, seed=0, barrier_timeout_s=5.0,
            fault_plan=FaultPlan().kill(2, epoch=1),
            recovery=RecoveryPolicy(min_workers=2, **FAST_RETRY),
        ).run(3)
        assert res.resilience.redistributions == 1
        assert res.rmse_history[-1] < res.rmse_history[0]

        shuffled = sparse.shuffle(0)

        def bytes_moved(plan):
            return tuple(
                8 * len(np.unique(shuffled.cols[a.entries])) * 4
                for a in partition_rows(shuffled, plan.fractions, GridKind.ROW)
            )

        pushes = {e.epoch: e.detail["per_worker_bytes"]
                  for e in res.stage_trace if e.stage == "push"}
        assert pushes[0] == bytes_moved(res.plan)
        assert pushes[2] == bytes_moved(redistribute(res.plan, (2,)))
        assert len(pushes[0]) == 3 and len(pushes[2]) == 2
        assert max(pushes[2]) < 8 * sparse.n * 4 // 2

    def test_hard_kill_detected_from_exit_code(self, data):
        """A hard kill (os._exit, no interpreter teardown) travels the
        same detection path: exit code lands, shard redistributes."""
        res = engine_for(
            data, k=8, n_workers=3, lr=0.01, seed=0, barrier_timeout_s=5.0,
            fault_plan=FaultPlan().kill(1, epoch=1, hard=True),
            recovery=RecoveryPolicy(min_workers=2, **FAST_RETRY),
        ).run(3)
        assert len(res.rmse_history) == 3
        assert res.final_plan.n_workers == 2
        assert res.resilience.redistributions == 1

    def test_death_below_min_workers_aborts_with_checkpoint(self, data, tmp_path):
        """Too few survivors: the run checkpoints what it has and raises
        TrainingAborted naming the epoch and checkpoint."""
        path = tmp_path / "abort-ckpt"
        with pytest.raises(TrainingAborted) as ei:
            engine_for(
                data, k=8, n_workers=2, lr=0.01, seed=0, barrier_timeout_s=5.0,
                fault_plan=FaultPlan().kill(1, epoch=1),
                recovery=RecoveryPolicy(min_workers=2, **FAST_RETRY),
                checkpoint_every=1, checkpoint_path=path,
            ).run(4)
        err = ei.value
        assert err.epoch == 1  # epoch 0 completed, epoch 1 failed
        assert str(path) in str(err)
        saved = load_checkpoint(path)
        assert saved.epoch == 1
        assert len(saved.rmse_history) == 1


class TestTransientRecovery:
    def test_corrupt_payload_retries_same_workers(self, data):
        """NaN push payload: validation rejects the epoch before any
        merge, the epoch retries, no worker is removed."""
        res = engine_for(
            data, k=8, n_workers=2, lr=0.01, seed=0, barrier_timeout_s=5.0,
            fault_plan=FaultPlan().corrupt_payload(1, epoch=1),
            recovery=RecoveryPolicy(max_retries=2, **FAST_RETRY),
        ).run(3)
        assert len(res.rmse_history) == 3
        assert res.final_plan.n_workers == 2  # nobody died
        summary = res.resilience
        assert summary.retries == 1
        assert summary.redistributions == 0
        assert any("WirePayloadError" in line for line in summary.failures)

    def test_straggler_classified_and_retried(self, data):
        """A worker sleeping past barrier_timeout_s is a straggler, not
        a corpse: WorkerSyncError -> retry with the same worker count."""
        res = engine_for(
            data, k=8, n_workers=2, lr=0.01, seed=0, barrier_timeout_s=2.0,
            fault_plan=FaultPlan().delay_barrier(0, epoch=1, seconds=8.0),
            recovery=RecoveryPolicy(max_retries=1, **FAST_RETRY),
        ).run(3)
        assert len(res.rmse_history) == 3
        assert res.final_plan.n_workers == 2
        summary = res.resilience
        assert summary.retries == 1
        assert any("straggling" in line for line in summary.failures)

    def test_dropped_payload_is_silently_tolerated(self, data):
        """A dropped push merges a zero delta: no error, no recovery
        action, the run just loses that worker-epoch of progress."""
        res = engine_for(
            data, k=8, n_workers=2, lr=0.01, seed=0, barrier_timeout_s=5.0,
            fault_plan=FaultPlan().drop_payload(1, epoch=1),
            recovery=RecoveryPolicy(**FAST_RETRY),
        ).run(3)
        assert len(res.rmse_history) == 3
        assert res.resilience.clean

    def test_retries_exhausted_aborts(self, data):
        with pytest.raises(TrainingAborted) as ei:
            engine_for(
                data, k=8, n_workers=2, lr=0.01, seed=0, barrier_timeout_s=5.0,
                fault_plan=FaultPlan().corrupt_payload(0, epoch=0),
                recovery=RecoveryPolicy(max_retries=0, **FAST_RETRY),
            ).run(2)
        assert ei.value.epoch == 0
        assert ei.value.checkpoint_path is None
        assert "no checkpoint path" in str(ei.value)

    def test_no_recovery_policy_raises_raw_error(self, data):
        """Without recovery= the engine keeps its historical contract:
        the failure propagates unchanged."""
        from repro.engine import WirePayloadError

        with pytest.raises(WirePayloadError):
            engine_for(
                data, k=8, n_workers=2, lr=0.01, seed=0, barrier_timeout_s=5.0,
                fault_plan=FaultPlan().corrupt_payload(0, epoch=0),
            ).run(2)

    def test_clean_run_with_policy_reports_clean_summary(self, data):
        res = engine_for(
            data, k=8, n_workers=2, lr=0.01, seed=0,
            recovery=RecoveryPolicy(**FAST_RETRY),
        ).run(2)
        assert res.resilience is not None
        assert res.resilience.clean
        assert res.resilience.final_workers == 2


class TestRealDeadWorkerDiagnostics:
    def test_externally_killed_worker_is_named_and_classified(self, data):
        """Not injection: SIGKILL a live worker process from outside and
        check the whole diagnostic chain — WorkerSyncError names the
        rank, health_report calls it dead, survivors are reaped."""
        backend = ProcessBackend(
            data, k=8, n_workers=2, lr=0.01, seed=0, barrier_timeout_s=30.0
        )
        plan = PartitionPlan("dp0", (0.5, 0.5))
        backend.open(plan, QOnlyChannel(), None, 3)
        try:
            # run epoch 0 to completion so both workers are provably live
            backend.pull(0)
            backend.push(0)
            backend.sync(0)

            victim = backend._procs[1]
            victim.kill()
            victim.join(timeout=10.0)

            with pytest.raises(WorkerSyncError) as ei:
                backend.pull(1)  # next rendezvous can never complete
            err = ei.value
            assert err.epoch == 1
            assert 1 in err.missing_ranks
            assert "worker-1" in str(err)

            report = backend.health_report(err)
            by_rank = {w.rank: w for w in report.workers}
            assert by_rank[1].state is WorkerState.DEAD
            assert by_rank[1].exitcode is not None
            assert by_rank[0].state is not WorkerState.DEAD
        finally:
            backend.close()
        # teardown reaped everyone, survivor included
        assert all(not proc.is_alive() for proc in backend._procs)


def _ignore_sigterm(started):
    signal.signal(signal.SIGTERM, signal.SIG_IGN)
    started.set()
    while True:
        time.sleep(0.05)


class TestTeardownEscalation:
    def test_terminate_escalates_to_kill(self):
        """A worker masking SIGTERM must still be reaped: terminate(),
        a bounded join, then kill() — no zombie holding shm mappings."""
        ctx = mp.get_context("fork")
        started = ctx.Event()
        proc = ctx.Process(target=_ignore_sigterm, args=(started,))
        proc.start()
        try:
            assert started.wait(timeout=10.0)
            ProcessBackend._terminate_stragglers([proc], grace_s=0.5)
            assert not proc.is_alive()
            assert proc.exitcode == -signal.SIGKILL
        finally:
            if proc.is_alive():  # pragma: no cover - failure path
                proc.kill()
            proc.join(timeout=5.0)

    def test_cooperative_worker_needs_no_kill(self):
        ctx = mp.get_context("fork")
        proc = ctx.Process(target=time.sleep, args=(60,))
        proc.start()
        ProcessBackend._terminate_stragglers([proc], grace_s=5.0)
        assert not proc.is_alive()
        assert proc.exitcode == -signal.SIGTERM


class TestCheckpointResume:
    def test_process_plane_resume_matches_straight_run(self, data, tmp_path):
        """Stop at epoch 2, resume to 4: the resumed run continues the
        exact RMSE trajectory of the uninterrupted run (workers replay
        their per-epoch RNG draws past the offset)."""
        kw = dict(k=8, n_workers=2, lr=0.01, seed=0)
        path = tmp_path / "ckpt"
        straight = engine_for(data, **kw).run(4)
        engine_for(
            data, checkpoint_every=2, checkpoint_path=path, **kw
        ).run(2)
        resumed = engine_for(data, resume_from=path, **kw).run(4)

        assert resumed.rmse_history == straight.rmse_history
        assert resumed.resilience.resumed_from_epoch == 2
        assert resumed.resilience.checkpoints_written == 0

    def test_sim_plane_resume_is_bitwise_identical(self, data, tmp_path):
        """The sim plane is fully deterministic, so resume must be exact
        to the bit, not just to a tolerance."""
        platform = paper_workstation(16)
        cfg = HCCConfig(k=8, epochs=6, learning_rate=0.01, seed=1)
        path = tmp_path / "sim-ckpt"

        straight = HCCMF(platform, NETFLIX, cfg, ratings=data).train()
        HCCMF(platform, NETFLIX, cfg, ratings=data).train(
            epochs=3, checkpoint_every=3, checkpoint_path=path
        )
        resumed = HCCMF(platform, NETFLIX, cfg, ratings=data).train(
            epochs=6, resume_from=path
        )

        assert resumed.rmse_history == straight.rmse_history
        assert np.array_equal(resumed.model.P, straight.model.P)
        assert np.array_equal(resumed.model.Q, straight.model.Q)

    def test_checkpoint_cadence(self, data, tmp_path):
        path = tmp_path / "cadence"
        res = engine_for(
            data, k=8, n_workers=2, lr=0.01, seed=0,
            checkpoint_every=2, checkpoint_path=path,
        ).run(5)
        # epochs 2, 4 hit the cadence; the run does not force a final write
        assert res.resilience.checkpoints_written == 2
        assert load_checkpoint(path).epoch == 4

    def test_resume_past_target_rejected(self, data, tmp_path):
        path = tmp_path / "done"
        engine_for(
            data, k=8, n_workers=2, lr=0.01, seed=0,
            checkpoint_every=3, checkpoint_path=path,
        ).run(3)
        with pytest.raises(ValueError, match="already at epoch"):
            engine_for(
                data, k=8, n_workers=2, lr=0.01, seed=0, resume_from=path
            ).run(3)

    @pytest.mark.parametrize("plane", ["sim", "process"])
    def test_resume_checks_the_shape_once_where_it_crosses(
        self, plane, data, tmp_path
    ):
        """A checkpoint of another matrix's factors is refused with one
        error on both planes, before a segment or a process exists; the
        rank is not part of it — ``k`` follows the checkpoint."""

        def engine(ratings, k, **kw):
            if plane == "sim":
                backend = SimBackend(
                    paper_workstation(16), ratings=ratings, k=k, lr=0.01, seed=0
                )
            else:
                backend = ProcessBackend(ratings, k=k, n_workers=2, lr=0.01, seed=0)
            return EpochEngine(backend, channel=QOnlyChannel(), **kw)

        path = tmp_path / "k4"
        engine(data, 4, checkpoint_every=1, checkpoint_path=path).run(1)
        keep = data.rows < data.m - 500
        other = RatingMatrix(
            data.m - 500, data.n, data.rows[keep], data.cols[keep], data.vals[keep]
        )

        segments = set(os.listdir("/dev/shm"))
        with pytest.raises(ValueError) as refused:
            engine(other, 8, resume_from=path).run(2)
        assert str(refused.value) == (
            f"checkpoint {str(path)!r} holds factors of a {data.m} x {data.n} "
            f"rating matrix, this run's is {other.m} x {other.n}"
        )
        assert set(os.listdir("/dev/shm")) == segments
        assert not mp.active_children()

        resumed = engine(data, 8, resume_from=path).run(2)
        assert resumed.model.P.shape == (data.m, 4)
        assert len(resumed.rmse_history) == 2

    def test_engine_validates_checkpoint_config(self, data):
        backend = ProcessBackend(data, k=8, n_workers=2, seed=0)
        with pytest.raises(ValueError, match="checkpoint_path"):
            EpochEngine(backend, checkpoint_every=2)
        with pytest.raises(ValueError, match="non-negative"):
            EpochEngine(backend, checkpoint_every=-1, checkpoint_path="x")

    def test_facade_rejects_checkpointing_without_ratings(self):
        hcc = HCCMF(paper_workstation(16), NETFLIX, HCCConfig(k=8, epochs=2))
        with pytest.raises(ValueError, match="ratings"):
            hcc.train(checkpoint_every=1, checkpoint_path="x")


class TestResilienceTelemetry:
    def test_counters_and_events_flow(self, data):
        from repro.obs import Telemetry

        telemetry = Telemetry()
        engine_for(
            data, k=8, n_workers=3, lr=0.01, seed=0, barrier_timeout_s=5.0,
            telemetry=telemetry,
            fault_plan=FaultPlan().kill(2, epoch=1),
            recovery=RecoveryPolicy(min_workers=2, **FAST_RETRY),
        ).run(3)

        by_name = {s.name: s.value for s in telemetry.registry.samples()}
        assert by_name["resilience_redistributions_total"] == 1
        assert by_name["resilience_degraded_epochs_total"] >= 1
        kinds = [e["event"] for e in telemetry.registry.events]
        assert "resilience_failure" in kinds
        assert "resilience_redistribution" in kinds

    def test_timeline_preserves_all_attempts(self, data):
        """Spans from the failed attempt survive the backend re-open:
        the assembled timeline carries both attempt 0 (up to the kill)
        and attempt 1 (the post-redistribution rerun), tagged apart."""
        from repro.hardware.timeline import Phase
        from repro.obs import Telemetry

        telemetry = Telemetry()
        engine_for(
            data, k=8, n_workers=3, lr=0.01, seed=0, barrier_timeout_s=5.0,
            telemetry=telemetry,
            fault_plan=FaultPlan().kill(2, epoch=1),
            recovery=RecoveryPolicy(min_workers=2, **FAST_RETRY),
        ).run(3)

        spans = telemetry.timeline.spans
        attempts = {s.attempt for s in spans}
        assert {0, 1} <= attempts
        # the failed attempt still shows epoch-0 work from every rank
        attempt0_workers = {
            s.worker for s in spans
            if s.attempt == 0 and s.epoch == 0 and s.phase is Phase.COMPUTE
        }
        assert len(attempt0_workers) == 3
        # the rerun covers the originally-failed epoch on the survivors
        attempt1_epochs = {s.epoch for s in spans if s.attempt == 1}
        assert 1 in attempt1_epochs
        # timestamps share one origin: no retry span predates the run
        assert min(s.start for s in spans) >= 0.0
