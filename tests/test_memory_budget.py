"""Memory on the epoch path (docs/engine.md, "Memory on the epoch path").

Every full-size pass of an epoch — evaluate, the wire codec, validate,
merge — is blocked or writes into a buffer allocated once at ``open()``,
and so is every pass over a checkpoint file: the factors are stored
once on each side of each boundary.  Two kinds of test pin that:
``tracemalloc`` budgets (nothing O(nnz * k) or O(k * n) is allocated per
epoch, per save or per mapped load) and bit-identity against the
full-array formulas the blocked code replaced, which stay here as the
reference implementations.
"""

import resource
import tracemalloc

import numpy as np
import pytest

import repro.core.checkpoint as ckpt_mod
import repro.mf.model as model_mod
from repro.core.checkpoint import Checkpoint, load_checkpoint, save_checkpoint
from repro.core.compression import FP16_MAX, compress_fp16
from repro.core.partition import PartitionPlan
from repro.core.server import (
    ParameterServer,
    column_set,
    merge_delta,
    merge_scratch,
    wire_view,
)
from repro.data.datasets import YAHOO_R1
from repro.data.ratings import RatingMatrix
from repro.engine.backends import ProcessBackend, SimBackend, WirePayloadError
from repro.engine.channels import (
    Channel,
    DoubleBufferChannel,
    Fp16Channel,
    QOnlyChannel,
)
from repro.engine.pipeline import EpochEngine
from repro.engine.worker_proc import local_view
from repro.hardware.topology import paper_workstation
from repro.mf.kernels import ConflictPolicy, sgd_batch_update, sgd_epoch
from repro.mf.model import MFModel
from repro.obs import Telemetry
from repro.resilience.faults import FaultPlan
from repro.serving.scorer import SeenIndex

BLOCK = model_mod._BLOCK
PLAN = PartitionPlan("dp0", (0.5, 0.5))


def random_ratings(nnz: int, m: int, n: int, seed: int = 0) -> RatingMatrix:
    rng = np.random.default_rng(seed)
    return RatingMatrix(
        m, n, rng.integers(0, m, nnz), rng.integers(0, n, nnz),
        rng.uniform(1.0, 5.0, nnz),
    )


def bits(a: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(a).view(f"u{a.dtype.itemsize}")


def peak_bytes(fn) -> int:
    """tracemalloc high-water mark of ``fn()`` above where it started."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


# ---------------------------------------------------------------------------
# evaluate: blocked residual
# ---------------------------------------------------------------------------
def full_array_predict(model: MFModel, ratings: RatingMatrix) -> np.ndarray:
    """The unblocked form: gathers P[rows] and Q[:, cols] whole."""
    return np.einsum(
        "ij,ji->i", model.P[ratings.rows], model.Q[:, ratings.cols], optimize=True
    )


def full_array_residual(model: MFModel, ratings: RatingMatrix) -> np.ndarray:
    return ratings.vals - full_array_predict(model, ratings)


class TestBlockedResidual:
    @pytest.mark.parametrize(
        "nnz", [0, 1, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 7]
    )
    @pytest.mark.parametrize("k", [8, 33])
    def test_bit_identical_to_full_array(self, nnz, k):
        ratings = random_ratings(nnz, 900, 700, seed=nnz)
        model = MFModel.init(900, 700, k, seed=1)
        got = model.residual(ratings)
        assert got.dtype == np.float32
        np.testing.assert_array_equal(
            bits(got), bits(full_array_residual(model, ratings))
        )
        np.testing.assert_array_equal(
            bits(model.predict(ratings.rows, ratings.cols)),
            bits(full_array_predict(model, ratings)),
        )

    def test_rmse_is_the_float64_reduction_of_the_residual(self):
        """... a block at a time: the float32 residual of each ``_BLOCK``
        squared and summed in float64, the block sums added in order."""
        model = MFModel.init(900, 700, 16, seed=2)
        for nnz in (0, 1, BLOCK - 1, BLOCK, 3 * BLOCK + 7):
            ratings = random_ratings(nnz, 900, 700, seed=nnz)
            err = full_array_residual(model, ratings)
            total = 0.0
            for lo in range(0, nnz, BLOCK):
                total += float(np.square(err[lo : lo + BLOCK], dtype=np.float64).sum())
            want = float(np.sqrt(total / nnz)) if nnz else 0.0
            assert model.rmse(ratings) == want
            # one ulp or so from the whole-vector mean it replaced
            whole = float(np.sqrt(np.mean(np.square(err, dtype=np.float64)))) if nnz else 0.0
            assert model.rmse(ratings) == pytest.approx(whole, rel=1e-14, abs=0.0)

    def test_rmse_peak_does_not_grow_with_k(self):
        """... nor with nnz: an evaluate holds two ``_BLOCK`` gathers,
        the block's residual and its float64 squares, whatever it walks."""
        peaks = {}
        for nnz in (100_000, 400_000):
            ratings = random_ratings(nnz, 20_000, 3_000)
            for k in (8, 64):
                model = MFModel.init(20_000, 3_000, k)
                model.rmse(ratings)     # first call pays einsum's one-time caches
                peaks[nnz, k] = peak_bytes(lambda: model.rmse(ratings))
        one_block = 2 * BLOCK * 64 * 4      # both factor gathers at k = 64
        around = BLOCK * (4 + 8) + 64 * 1024    # residual, squares, index slices
        assert max(peaks.values()) <= one_block + around
        # never the 2 * nnz * k * 4 B (205 MB at k = 64) of whole-array
        # gathers, nor the 12 B a rating of an error vector and its squares
        assert max(peaks.values()) < 12 * 400_000


# ---------------------------------------------------------------------------
# compute: the one shard walk
# ---------------------------------------------------------------------------
def whole_copy_epoch(model, ratings, lr, reg, batch_size, policy, rng):
    """``sgd_epoch`` as it was: permute the whole shard, then slice it."""
    data = ratings.take(rng.permutation(ratings.nnz))
    total = 0.0
    for rows, cols, vals in data.batches(batch_size):
        total += len(rows) * sgd_batch_update(
            model, rows, cols, vals, lr, reg, policy
        )
    return total / ratings.nnz


def per_batch_gather_epoch(model, ratings, lr, reg, batch_size, policy, rng):
    """The loop both planes' workers carried a copy of."""
    order = rng.permutation(ratings.nnz)
    total = 0.0
    for lo in range(0, ratings.nnz, batch_size):
        sel = order[lo : lo + batch_size]
        total += len(sel) * sgd_batch_update(
            model, ratings.rows[sel], ratings.cols[sel], ratings.vals[sel],
            lr, reg, policy,
        )
    return total / ratings.nnz


@pytest.mark.parametrize("policy", list(ConflictPolicy))
class TestShardEpoch:
    @pytest.mark.parametrize("reference", [whole_copy_epoch, per_batch_gather_epoch])
    def test_bit_identical_to_the_loops_it_replaced(self, policy, reference):
        ratings = random_ratings(10_007, 300, 200)   # a ragged last batch
        got, want = (MFModel.init(300, 200, 8, seed=3) for _ in range(2))
        args = (ratings, 0.01, 0.02, 1024, policy)
        mse = sgd_epoch(got, *args, rng=np.random.default_rng(9))
        assert mse == reference(want, *args, np.random.default_rng(9))
        np.testing.assert_array_equal(bits(got.P), bits(want.P))
        np.testing.assert_array_equal(bits(got.Q), bits(want.Q))

    def test_allocates_the_permutation_and_one_batch(self, policy):
        above_order = {}
        for nnz in (200_000, 400_000):
            ratings = random_ratings(nnz, 20_000, 3_000)
            model = MFModel.init(20_000, 3_000, 16)

            def epoch():
                sgd_epoch(model, ratings, 0.005, 0.01, 4096, policy,
                          np.random.default_rng(1))

            epoch()     # first call pays einsum's one-time caches
            above_order[nnz] = peak_bytes(epoch) - 8 * nnz
        # what a batch needs does not depend on the shard's length ...
        assert abs(above_order[400_000] - above_order[200_000]) <= 256 * 1024
        # ... and is nowhere near the 12 B per rating of a permuted copy
        assert above_order[400_000] <= 12 * 400_000 // 2


class TestAtomicBatch:
    """One ATOMIC step allocates by the batch: nothing as long as a
    factor (the ``bincount(..., minlength=m | n)`` passes it replaced
    were) and no float64 ``(b, k)`` quotient."""

    B = 4096

    def step_peak(self, m, n, k):
        rng = np.random.default_rng(0)
        rows, cols = rng.integers(0, 4_000, self.B), rng.integers(0, 4_000, self.B)
        vals = rng.uniform(1.0, 5.0, self.B).astype(np.float32)
        model = MFModel.init(m, n, k)

        def step():
            sgd_batch_update(model, rows, cols, vals, 0.005, 0.01)

        step()          # first call pays einsum's one-time caches
        return peak_bytes(step)

    def test_nothing_sized_m_or_n(self):
        """The same batch against factors a hundred times as long."""
        assert abs(self.step_peak(400_000, 400_000, 4) - self.step_peak(4_000, 4_000, 4)) <= 4096

    def test_no_float64_block(self):
        """Six float32 blocks are live where ``dq`` is formed (``p``,
        ``q``, ``dp``, ``dq`` and its two operands) and fewer in the
        scatter; a float64 quotient beside the first four and its
        float32 rounding made seven."""
        k = 64
        block = 4 * self.B * k
        assert self.step_peak(4_000, 4_000, k) <= 6.5 * block


class TestSeenIndex:
    def test_build_gathers_the_items_and_no_second_column(self):
        """The order and the int32 items it gathers, 12 B a rating; a
        sorted copy of the rows, made only to be counted, was a third 8,
        and so is ``bincount``'s int64 copy of the rows, counted whole."""
        nnz = 200_000
        ratings = random_ratings(nnz, 2_000, 300)
        assert peak_bytes(lambda: SeenIndex.from_ratings(ratings)) <= 13 * nnz


class TestInitPeak:
    @pytest.mark.parametrize("m,n,k", [(4099, 1031, 32), (37, 100_003, 8), (1, 1, 1)])
    def test_blockwise_draw_is_bit_identical(self, m, n, k):
        """Row counts here are not multiples of the init block."""
        rng = np.random.default_rng(5)
        base = np.sqrt(3.5 / k)
        p = (base * (1.0 + 0.1 * rng.standard_normal((m, k)))).astype(np.float32)
        q = (base * (1.0 + 0.1 * rng.standard_normal((k, n)))).astype(np.float32)
        model = MFModel.init(m, n, k, mean_rating=3.5, seed=5)
        np.testing.assert_array_equal(bits(model.P), bits(p))
        np.testing.assert_array_equal(bits(model.Q), bits(q))

    def test_no_full_size_float64_temporary(self):
        m, n, k = 3_000, 60_000, 32
        resident = 4 * k * (m + n)
        peak = peak_bytes(lambda: MFModel.init(m, n, k))
        assert peak <= resident + 4 * model_mod._INIT_BLOCK * 8


# ---------------------------------------------------------------------------
# codec and validation
# ---------------------------------------------------------------------------
@pytest.fixture
def awkward_values():
    """Normal values plus everything the FP16 clamp has to handle."""
    values = np.random.default_rng(3).standard_normal((7, 1001)).astype(np.float32)
    values[0, :8] = [np.inf, -np.inf, 1e9, -1e9, FP16_MAX, -FP16_MAX, 65520.0, 1e-9]
    values[1, 0] = np.nan
    return values


class TestFusedCodec:
    def test_fp16_encode_matches_clip_then_astype(self, awkward_values):
        want = np.clip(awkward_values, -FP16_MAX, FP16_MAX).astype(np.float16)
        wire = np.empty(awkward_values.shape, dtype=np.float16)
        Fp16Channel(QOnlyChannel()).encode(awkward_values, wire)
        np.testing.assert_array_equal(bits(wire), bits(want))
        np.testing.assert_array_equal(bits(compress_fp16(awkward_values)), bits(want))
        assert np.isfinite(wire[0]).all()       # +-inf and over-range clamp

    @pytest.mark.parametrize("channel", [QOnlyChannel(), Fp16Channel(QOnlyChannel())])
    def test_decode_into_out_equals_fresh_decode(self, channel, awkward_values):
        wire = np.empty(awkward_values.shape, dtype=channel.wire_dtype)
        channel.encode(awkward_values, wire)
        out = np.empty(awkward_values.shape, dtype=np.float32)
        assert channel.decode(wire, out=out) is out
        fresh = channel.decode(wire)
        assert fresh is not wire and fresh.dtype == np.float32
        np.testing.assert_array_equal(bits(out), bits(fresh))

    @pytest.mark.parametrize("channel", [QOnlyChannel(), Fp16Channel(QOnlyChannel())])
    def test_codec_allocates_no_full_size_temporary(self, channel):
        values = np.ones((64, 20_000), dtype=np.float32)
        wire = np.empty(values.shape, dtype=channel.wire_dtype)
        out = np.empty(values.shape, dtype=np.float32)

        def roundtrip():
            channel.encode(values, wire)
            channel.decode(wire, out=out)
            assert channel.payload_ok(wire)

        roundtrip()
        assert peak_bytes(roundtrip) < wire.nbytes // 8

    @pytest.mark.parametrize("dtype", ["float32", "float16"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_payload_ok_finds_a_bad_value_in_any_block(self, dtype, bad):
        payload = np.ones((3, 70_000), dtype=dtype)     # > 3 validation blocks
        assert Channel().payload_ok(payload)
        for where in [(0, 0), (1, 65_535), (2, 69_999)]:
            payload[where] = bad
            assert not Channel().payload_ok(payload)
            payload[where] = 1.0


# ---------------------------------------------------------------------------
# merge
# ---------------------------------------------------------------------------
def reference_merge(Q, wire, q_base):
    """The formula both servers used to spell out, whole-array."""
    received = wire.astype(np.float32)
    return Q + (received - q_base)


#: the trained step each merge test pushes, as a multiple of its default:
#: a full step and a half one, so every merge is checked on two deltas
STEPS = [1.0, 0.5]


class TestMergeDelta:
    @pytest.mark.parametrize("step", STEPS)
    @pytest.mark.parametrize("wire_dtype", ["float32", "float16"])
    @pytest.mark.parametrize("block", [None, 1, 1000, 7 * 1013])
    def test_bit_identical_to_reference_formula(self, step, wire_dtype, block):
        rng = np.random.default_rng(11)
        shape = (7, 1013)
        q_base = rng.standard_normal(shape).astype(np.float32)
        Q = q_base.copy()
        noise = rng.standard_normal(shape).astype(np.float32)
        trained = q_base + np.float32(0.01 * step) * noise
        wire = trained.astype(wire_dtype)
        want = reference_merge(Q, wire, q_base)
        scratch = (
            merge_scratch() if block is None else np.empty(block, dtype=np.float32)
        )
        merge_delta(Q, wire, q_base, scratch)
        np.testing.assert_array_equal(bits(Q), bits(want))

    @pytest.mark.parametrize("step", STEPS)
    def test_binary16_base_merges_like_its_decoded_copy(self, step):
        """The pull wire is the base: with a binary16 push *and* a binary16
        base the subtraction must still run in FP32, bit for bit what the
        decoded FP32 base gave."""
        rng = np.random.default_rng(13)
        shape = (7, 1013)
        # unrelated values: their differences do not fit binary16 (values
        # within a factor of two subtract exactly, and would hide the trap)
        push = (step * rng.standard_normal(shape)).astype(np.float16)
        base = rng.standard_normal(shape).astype(np.float16)
        Q = rng.standard_normal(shape).astype(np.float32)
        want = reference_merge(Q, push, base.astype(np.float32))

        half = np.empty(shape, dtype=np.float32)
        np.subtract(push, base, out=half)       # NumPy picks the binary16 loop
        assert (bits(half) != bits(push.astype(np.float32) - base.astype(np.float32))).any()

        merge_delta(Q, push, base, merge_scratch())
        np.testing.assert_array_equal(bits(Q), bits(want))

    @pytest.mark.parametrize("step", STEPS)
    @pytest.mark.parametrize("wire_dtype", ["float32", "float16"])
    @pytest.mark.parametrize("t, block", [(300, None), (300, 128), (300, 300), (1, 1), (0, 64)])
    def test_selected_merge_is_the_whole_wire_merge_on_its_columns(
        self, step, wire_dtype, t, block
    ):
        """A push that carries ``t`` columns packed into the wire's front
        merges, on those columns, to the bits the whole wire gives them —
        also when ``t`` straddles scratch blocks — and touches no other."""
        rng = np.random.default_rng(17)
        k, n = 7, 1013
        cols = np.sort(rng.choice(n, t, replace=False))
        q_base = rng.standard_normal((k, n)).astype(wire_dtype)
        Q = rng.standard_normal((k, n)).astype(np.float32)
        # what a worker returns: its columns trained, the rest as pulled
        whole = q_base.copy()
        whole[:, cols] += (0.01 * step * rng.standard_normal((k, t))).astype(wire_dtype)
        scratch = (
            merge_scratch() if block is None else np.empty(block, dtype=np.float32)
        )
        want = Q.copy()
        merge_delta(want, whole, q_base, scratch)
        np.testing.assert_array_equal(
            bits(want), bits(reference_merge(Q, whole, q_base.astype(np.float32)))
        )

        push_wire = np.full((k, n), np.nan, dtype=wire_dtype)   # the tail is never read
        pushed = wire_view(push_wire, cols)
        assert pushed.shape == (k, t) and pushed.base is not None
        pushed[...] = whole[:, cols]
        got = Q.copy()
        merge_delta(got, pushed, q_base, scratch, cols)
        np.testing.assert_array_equal(bits(got), bits(want))
        others = np.setdiff1d(np.arange(n), cols)
        np.testing.assert_array_equal(bits(got[:, others]), bits(Q[:, others]))

    def test_rejects_a_q_it_could_not_update_in_place(self):
        Q = np.zeros((4, 6), dtype=np.float32)[:, ::2]
        with pytest.raises(ValueError, match="contiguous"):
            merge_delta(Q, np.zeros((4, 3), np.float32), np.zeros((4, 3), np.float32),
                        merge_scratch())


# ---------------------------------------------------------------------------
# the servers: nothing O(k * n) per epoch, nothing k x n kept after close
# ---------------------------------------------------------------------------
K, N = 16, 40_000
KN_BYTES = 4 * K * N


def reachable_arrays(obj, seen=None):
    """Every ndarray reachable from an object's attributes."""
    seen = set() if seen is None else seen
    if id(obj) in seen:
        return []
    seen.add(id(obj))
    if isinstance(obj, np.ndarray):
        return [obj]
    if isinstance(obj, (list, tuple)):
        children = list(obj)
    elif isinstance(obj, dict):
        children = list(obj.values())
    elif hasattr(obj, "__dict__") and type(obj).__module__.startswith("repro."):
        children = list(vars(obj).values())
    else:
        return []
    return [a for child in children for a in reachable_arrays(child, seen)]


def arrays_of_shape(obj, shape):
    return [a for a in reachable_arrays(obj) if a.shape == shape]


def owns_its_memory(a: np.ndarray) -> bool:
    """False for a view of a foreign buffer — a shared segment, a mapping."""
    while isinstance(a.base, np.ndarray):
        a = a.base
    return a.base is None


class TestParameterServer:
    @pytest.mark.parametrize("channel", [QOnlyChannel(), Fp16Channel(QOnlyChannel())])
    def test_epoch_allocates_nothing_sized_k_by_n(self, channel):
        model = MFModel.init(50, N, K)
        server = ParameterServer(model, 2, channel=channel)
        locals_ = [np.empty(model.Q.shape, dtype=np.float32) for _ in range(2)]

        def epoch():
            server.begin_epoch()
            for wid, q_local in enumerate(locals_):
                channel.decode(server.pull_wire, out=q_local)
                q_local += np.float32(0.01)
                server.push(wid, q_local)
            assert server.first_bad_push() is None
            for wid in range(2):
                server.sync(wid)

        epoch()
        assert peak_bytes(epoch) < KN_BYTES // 8


    @pytest.mark.parametrize("channel", [QOnlyChannel(), Fp16Channel(QOnlyChannel())])
    def test_server_keeps_no_copy_of_q_beside_its_wires(self, channel):
        model = MFModel.init(50, N, K)
        wires = (
            np.zeros(model.Q.shape, dtype=channel.wire_dtype),
            [np.zeros(model.Q.shape, dtype=channel.wire_dtype)],
        )
        q_local = model.Q + np.float32(0.01)

        def serve_one_epoch():
            server = ParameterServer(model, 1, channel=channel, wires=wires)
            server.begin_epoch()
            server.push(0, q_local)
            server.sync(0)

        # the merge's block buffer, and nothing shaped like Q
        assert peak_bytes(serve_one_epoch) < KN_BYTES // 4


    @pytest.mark.parametrize("channel", [QOnlyChannel(), Fp16Channel(QOnlyChannel())])
    def test_selected_scan_and_merge_gather_two_rows_at_a_time(self, channel):
        """A push over a column set is scanned and merged through the
        block buffer and two gathered rows of ``t`` values, and a private
        push wire is allocated at ``(k, t)``."""
        t = 12_000
        model = MFModel.init(50, N, K)
        cols = np.sort(np.random.default_rng(0).choice(N, t, replace=False))
        server = ParameterServer(model, 1, channel=channel, columns=[cols])
        assert server.push_wires[0].shape == (K, t)
        q_local = np.ones((K, t), dtype=np.float32)

        def scan_and_merge():
            assert server.first_bad_push() is None
            server.sync(0)

        server.begin_epoch()
        server.push(0, q_local)
        scan_and_merge()
        rows = 2 * 4 * t
        assert peak_bytes(scan_and_merge) < rows + 2 * 65_536 < KN_BYTES // 8


class TestCheckpoint:
    """A save or a mapped load of any model holds two blocks, not the model."""

    BLOCKS = 2 * ckpt_mod._BLOCK * 4 + 64 * 1024    # two scratch blocks + the header

    @pytest.fixture(scope="class")
    def saved(self, tmp_path_factory):
        model = MFModel(np.ones((8_192, 64), np.float32), np.ones((64, 117_000), np.float32))
        assert model.feature_bytes >= 32_000_000
        path = tmp_path_factory.mktemp("budget") / "big"
        save_checkpoint(Checkpoint(model=model, epoch=1), path)
        return model, path

    def test_save_makes_one_blocked_pass(self, saved):
        model, path = saved
        ckpt = Checkpoint(model=model, epoch=2)
        assert peak_bytes(lambda: save_checkpoint(ckpt, path)) < self.BLOCKS

    def test_mapped_load_validates_through_a_block_buffer(self, saved):
        model, path = saved
        kept = []
        peak = peak_bytes(lambda: kept.append(load_checkpoint(path, readonly=True)))
        assert peak < self.BLOCKS
        np.testing.assert_array_equal(bits(kept[0].model.Q), bits(model.Q))

    def test_writable_load_is_one_private_copy(self, saved):
        model, path = saved
        kept = []
        peak = peak_bytes(lambda: kept.append(load_checkpoint(path)))
        assert model.feature_bytes <= peak < model.feature_bytes + self.BLOCKS
        np.testing.assert_array_equal(bits(kept[0].model.P), bits(model.P))


class TestProcessBackend:
    @pytest.fixture
    def ratings(self):
        return random_ratings(6_000, 300, N)

    @pytest.mark.parametrize("channel", [QOnlyChannel(), Fp16Channel(QOnlyChannel())])
    def test_pull_and_sync_allocate_nothing_sized_k_by_n(self, ratings, channel):
        backend = ProcessBackend(ratings, k=K, n_workers=2, barrier_timeout_s=60.0)
        backend.open(PLAN, channel, None, 3)
        try:
            peaks = []
            for epoch in range(3):
                peaks.append(peak_bytes(lambda: backend.pull(epoch)))
                backend.compute(epoch)
                backend.push(epoch)
                peaks.append(peak_bytes(lambda: backend.sync(epoch)))
                backend.evaluate(epoch)
            backend.finalize(None)
        finally:
            backend.close()
        # after the first epoch (one-time caches), every pull and sync
        assert max(peaks[2:]) < KN_BYTES // 8

    def test_run_records_its_peak_rss(self, ratings):
        def high_water_mb():
            return max(
                resource.getrusage(who).ru_maxrss
                for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)
            ) / 1024.0

        telemetry = Telemetry()
        backend = ProcessBackend(ratings, k=K, n_workers=2, barrier_timeout_s=60.0)
        before = high_water_mb()
        EpochEngine(backend, channel=QOnlyChannel(), telemetry=telemetry).run(1)
        gauge = telemetry.registry.get("peak_rss_mb").value()
        assert 0 < before <= gauge <= high_water_mb()

    def test_close_drops_every_k_by_n_buffer(self, ratings):
        backend = ProcessBackend(ratings, k=K, n_workers=2, barrier_timeout_s=60.0)
        backend.open(PLAN, Fp16Channel(QOnlyChannel()), None, 1)
        try:
            for stage in ("pull", "compute", "push", "sync"):
                getattr(backend, stage)(0)
            assert len(arrays_of_shape(backend, (K, N))) > 1     # wires, Q
            backend.finalize(None)
        finally:
            backend.close()
        kept = arrays_of_shape(backend, (K, N))
        assert [id(a) for a in kept] == [id(backend.model.Q)]

    def test_a_double_buffer_stack_opens_one_pull_wire(self, ratings):
        """Strategy 3 is a label on the trained planes: no wire is written
        while another is read, so its stack opens the same ``(k, n)``
        segments as the Q-only stack it wraps."""
        held = []
        for channel in (QOnlyChannel(), DoubleBufferChannel(QOnlyChannel())):
            backend = ProcessBackend(ratings, k=K, n_workers=2, barrier_timeout_s=60.0)
            backend.open(PLAN, channel, None, 1)
            try:
                held.append(len(arrays_of_shape(backend, (K, N))))
            finally:
                backend.close()
        # the pull wire, two push wires and the model's Q
        assert held == [4, 4]

    def test_nothing_that_outlives_close_views_a_segment(self, ratings):
        """A view kept past ``SharedArray.unlink()`` does not raise when
        read, it segfaults: after ``close()`` every array the result, the
        backend and the telemetry still reach is private memory — the
        update-rate probe reads the ratings long after — and the model
        still publishes."""
        telemetry = Telemetry()
        backend = ProcessBackend(ratings, k=K, n_workers=2, barrier_timeout_s=60.0)
        result = EpochEngine(backend, channel=QOnlyChannel(), telemetry=telemetry).run(2)
        assert backend._stack is None and backend._eval_set is None
        kept = reachable_arrays([result, backend, telemetry])
        assert len(kept) >= 5       # P, Q and the caller's three columns
        for a in kept:
            assert owns_its_memory(a)
            a.sum()                 # alive: a stale view would crash here
        report = telemetry.drift_report(bandwidth_gbs=10.0)
        assert "probe_update_rate" in telemetry.registry      # it read the ratings
        assert report.rows
        assert np.isfinite(backend.model.rmse(ratings))
        server = ParameterServer(backend.model, 1, channel=QOnlyChannel())
        server.begin_epoch()        # "publish": the factors still encode

    def test_open_stores_the_ratings_once_and_only_in_the_segments(self):
        """The shuffle is a gather into the shard segments and the sort
        is in place: after ``open()`` the server holds no anonymous array
        as long as the ratings, and inside it at most the radix sort's
        two int64 orders and their uint16 digits, or the order beside
        one column temporary.  The bound is the 20 B a rating the
        retained shuffled copy alone used to take."""
        nnz = 200_000
        ratings = random_ratings(nnz, 2_000, 300)
        backend = ProcessBackend(ratings, k=8, n_workers=2, barrier_timeout_s=60.0)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            backend.open(PLAN, QOnlyChannel(), None, 1)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        try:
            assert held - before < 4 * nnz          # not even the float32 column
            assert peak - before < 20 * nnz
            store = backend._eval_set
            assert store.nnz == nnz and not owns_its_memory(store.vals)
            for column, seg in zip((store.rows, store.cols, store.vals), backend._shard_segs):
                assert np.shares_memory(column, seg.array)
        finally:
            backend.close()

    def test_non_finite_push_is_refused_before_any_merge(self, ratings):
        backend = ProcessBackend(
            ratings, k=K, n_workers=2, barrier_timeout_s=60.0,
            fault_plan=FaultPlan().corrupt_payload(1, epoch=1),
        )
        backend.open(PLAN, Fp16Channel(QOnlyChannel()), None, 2)
        try:
            for stage in ("pull", "compute", "push", "sync"):
                getattr(backend, stage)(0)
            backend.pull(1)
            backend.compute(1)
            backend.push(1)
            # each shard rates ~7 % of the columns: the NaNs fill a prefix
            pushed = backend.server.pushed(1)
            assert pushed.shape[1] < N // 2 and np.isnan(pushed).all()
            assert not np.isnan(backend.server.push_wires[1]).all()
            q_before = backend.model.Q.copy()
            p_before = backend.model.P.copy()
            with pytest.raises(WirePayloadError) as ei:
                backend.sync(1)
            assert ei.value.rank == 1
            # worker 0's payload was fine and must not have been merged
            np.testing.assert_array_equal(bits(backend.model.Q), bits(q_before))
            np.testing.assert_array_equal(bits(backend.model.P), bits(p_before))
        finally:
            backend.close()


class TestSimBackend:
    def test_close_drops_every_k_by_n_buffer(self):
        platform = paper_workstation()
        ratings = random_ratings(6_000, 300, N)
        backend = SimBackend(platform, ratings, k=K)
        fractions = tuple(1.0 / platform.n_workers for _ in platform.workers)
        backend.open(
            PartitionPlan("even", fractions), QOnlyChannel(), None, 1,
        )
        for stage in ("pull", "compute", "push", "sync"):
            getattr(backend, stage)(0)
        assert len(arrays_of_shape(backend, (K, N))) > 1
        backend.finalize(None)
        backend.close()
        kept = arrays_of_shape(backend, (K, N))
        assert [id(a) for a in kept] == [id(backend.model.Q)]

    def test_open_keeps_one_sorted_copy_that_the_runtimes_view(self):
        nnz = 200_000
        platform = paper_workstation()
        ratings = random_ratings(nnz, 2_000, 300)
        backend = SimBackend(platform, ratings, k=8)
        fractions = tuple(1.0 / platform.n_workers for _ in platform.workers)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            backend.open(
                PartitionPlan("even", fractions), QOnlyChannel(),
                None, 1,
            )
            held, peak = (x - before for x in tracemalloc.get_traced_memory())
        finally:
            tracemalloc.stop()
        # the sort's two orders and their digits, or the order beside the
        # store it gathers: 20 B a rating, and the factors; int64 ids in
        # the store made it 28
        assert peak < 22 * nnz
        # the store (12 B a rating), the factors and the local Qs: not two
        assert ratings.nbytes() == 12 * nnz
        assert ratings.nbytes() <= held < 1.2 * ratings.nbytes()
        store = backend._eval_set
        assert store.nnz == nnz and (np.diff(store.rows) >= 0).all()
        assert sum(rt.nnz for rt in backend.runtimes) == nnz
        for rt in backend.runtimes:
            for mine, stored in zip(
                (rt.data.rows, rt.data.cols, rt.data.vals),
                (store.rows, store.cols, store.vals),
            ):
                assert not mine.flags.owndata and np.shares_memory(mine, stored)
        backend.close()
        assert backend._eval_set is None and backend.runtimes == []

    def test_open_and_an_epoch_allocate_nothing_k_by_n_per_worker(self):
        """Each shard rates a few percent of the columns, so what a worker
        adds to ``open()`` is its ``(k, t_i)`` local Q and push wire: the
        model's Q and the one pull wire are the only ``(k, n)`` arrays."""
        platform = paper_workstation()
        ratings = random_ratings(6_000, 300, N)
        # small batches: the kernel's own temporaries stay out of the way
        backend = SimBackend(platform, ratings, k=K, batch_size=256)
        fractions = tuple(1.0 / platform.n_workers for _ in platform.workers)
        plan = PartitionPlan("even", fractions)
        opened = peak_bytes(lambda: backend.open(
            plan, QOnlyChannel(), None, 2,
        ))
        assert len(arrays_of_shape(backend, (K, N))) == 2
        # those two, the locals and shards, and open()'s transients; a
        # dense local Q and push wire per worker made it ten
        assert opened < 3 * KN_BYTES

        def epoch(e):
            for stage in ("pull", "compute", "push", "sync"):
                getattr(backend, stage)(e)

        epoch(0)
        assert peak_bytes(lambda: epoch(1)) < KN_BYTES // 8
        backend.close()


class TestLocalView:
    """A worker's local Q is its column set, on both planes."""

    @pytest.fixture(scope="class")
    def toy(self):
        """R1-shaped: 11,465 x 6,481; a half rates about a fifth of the columns."""
        return YAHOO_R1.scaled(4000).generate(seed=4).sort_by_row()

    def test_local_q_holds_the_shards_columns_and_nothing_else(self, toy):
        half = toy.nnz // 2
        shard = (toy.rows[:half], toy.cols[:half], toy.vals[:half])
        P = np.zeros((toy.m, K), dtype=np.float32)
        model, (rows, local_cols, vals), cols = local_view(P, shard, toy.n)
        assert model.P is P and rows is shard[0] and vals is shard[2]
        t = len(np.unique(shard[1]))
        assert 0.15 * toy.n < t < 0.25 * toy.n
        assert model.Q.shape == (K, t) and cols.shape == (t,)
        np.testing.assert_array_equal(cols, np.unique(shard[1]))
        np.testing.assert_array_equal(cols[local_cols], shard[1])

    def test_renumbered_ids_are_int32_and_nothing_widens_them(self):
        """The one ratings-sized array ``local_view`` makes is the
        renumbered int32 column; ``searchsorted``'s int64 answer, or the
        int64 copy ``bincount`` takes of its input, is twice that."""
        nnz, n = 400_000, 40_000
        rng = np.random.default_rng(2)
        rows = np.zeros(nnz, dtype=np.int32)
        shard_cols = rng.integers(0, n // 3, nnz).astype(np.int32)
        shard = (rows, shard_cols, np.ones(nnz, dtype=np.float32))
        P = np.zeros((1, 1), dtype=np.float32)
        _, (_, local_cols, _), cols = local_view(P, shard, n)
        assert local_cols.dtype == np.int32
        np.testing.assert_array_equal(local_cols, np.searchsorted(cols, shard_cols))
        assert peak_bytes(lambda: local_view(P, shard, n)) <= 4 * nnz + 16 * n

    def test_a_dense_shard_keeps_the_whole_wire(self, toy):
        """More than half the columns rated: "all", the shard as it came."""
        cols = np.arange(toy.n)[: toy.n // 2 + 1]
        assert column_set(cols, toy.n) is None
        assert column_set(cols[:-1], toy.n) is not None
        shard = (np.zeros_like(cols), cols, np.ones(len(cols), np.float32))
        model, same, none = local_view(np.zeros((1, K), np.float32), shard, toy.n)
        assert none is None and same is shard and model.Q.shape == (K, toy.n)

    def test_sim_workers_hold_compact_locals(self, toy):
        backend = SimBackend(paper_workstation(), toy, k=K)
        backend.open(
            PartitionPlan("even", (0.25,) * 4), QOnlyChannel(), None, 1,
        )
        for (model, _, cols), wire in zip(backend._locals, backend.server.push_wires):
            assert cols is not None
            assert model.Q.shape == wire.shape == (K, cols.size)
        backend.close()
