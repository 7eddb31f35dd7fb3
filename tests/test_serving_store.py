"""Store tier: hot-swap semantics and every read-path failure mode.

The contract under test (docs/serving.md): a successful swap bumps the
version by one and publishes an immutable snapshot; a failed swap —
missing path, a file damaged anywhere (the ``DAMAGE`` table of
``tests/test_core_checkpoint.py``), a non-finite factor, format-version
mismatch, metadata/factors disagreement — keeps the *most recent good*
snapshot serving, classifies the failure on the ``serving_swap_failed``
counter, and never raises from ``swap()``.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.core.checkpoint import (
    Checkpoint,
    CheckpointVersionError,
    read_checkpoint_meta,
    save_checkpoint,
)
from repro.mf.model import MFModel
from repro.serving.store import ModelStore, ServingError
from tests.test_core_checkpoint import DAMAGE, ckpt_file, reissue_header


def write_ckpt(path, m=4, n=5, k=3, fill=None, epoch=1, seed=0):
    if fill is None:
        rng = np.random.default_rng(seed)
        model = MFModel(
            rng.normal(size=(m, k)).astype(np.float32),
            rng.normal(size=(k, n)).astype(np.float32),
        )
    else:
        model = MFModel(
            np.full((m, k), fill, dtype=np.float32),
            np.full((k, n), fill, dtype=np.float32),
        )
    save_checkpoint(Checkpoint(model=model, epoch=epoch), path)
    return path


def failure_counts(store):
    """reason -> count from the serving_swap_failed series."""
    if "serving_swap_failed" not in store.registry:
        return {}
    return {
        s.labels_dict()["reason"]: s.value
        for s in store.registry.get("serving_swap_failed").samples()
    }


class TestLoadAndSwap:
    def test_load_publishes_version_one(self, tmp_path):
        store = ModelStore(str(write_ckpt(tmp_path / "ck")))
        snap = store.snapshot()
        assert snap.version == 1
        assert store.version == 1
        assert (snap.m, snap.n, snap.k) == (4, 5, 3)
        assert snap.epoch == 1

    def test_successful_swap_bumps_version_and_factors(self, tmp_path):
        store = ModelStore(str(write_ckpt(tmp_path / "a", fill=1.0)))
        result = store.swap(str(write_ckpt(tmp_path / "b", fill=2.0)))
        assert result.ok and result.reason is None
        snap = store.snapshot()
        assert snap.version == result.version == 2
        assert snap.P[0, 0] == 2.0

    def test_snapshot_factors_are_frozen(self, tmp_path):
        snap = ModelStore(str(write_ckpt(tmp_path / "ck"))).snapshot()
        with pytest.raises(ValueError):
            snap.P[0, 0] = 99.0
        with pytest.raises(ValueError):
            snap.Q[0, 0] = 99.0
        Pq, Qq = snap.quantized()
        with pytest.raises(ValueError):
            Pq[0, 0] = 99.0

    def test_unloaded_store(self):
        store = ModelStore()
        assert store.version == 0
        with pytest.raises(ServingError, match="no model loaded"):
            store.snapshot()

    def test_load_raises_on_failure(self, tmp_path):
        with pytest.raises(ServingError, match="missing"):
            ModelStore(str(tmp_path / "nope"))


class TestFailureModes:
    @pytest.fixture
    def serving(self, tmp_path):
        store = ModelStore(str(write_ckpt(tmp_path / "good", fill=7.0)))
        return store, tmp_path

    def assert_degraded(self, store, result, reason, version=1, fill=7.0):
        assert not result.ok
        assert result.reason == reason
        assert result.error
        assert result.version == version
        snap = store.snapshot()   # last good keeps serving
        assert snap.version == version
        assert snap.P[0, 0] == fill
        assert failure_counts(store) == {reason: 1.0}

    def test_missing_path(self, serving):
        store, tmp_path = serving
        result = store.swap(str(tmp_path / "does-not-exist"))
        self.assert_degraded(store, result, "missing")

    def test_stray_v1_pair_is_missing(self, serving):
        """No reader for the old NPZ + JSON pair: it is simply not found."""
        store, tmp_path = serving
        np.savez_compressed(tmp_path / "old.npz", P=np.ones((4, 3)), Q=np.ones((3, 5)))
        (tmp_path / "old.json").write_text(json.dumps({"version": 1, "epoch": 1}))
        result = store.swap(str(tmp_path / "old"))
        self.assert_degraded(store, result, "missing")

    @pytest.mark.parametrize("damage", sorted(DAMAGE))
    def test_damaged_file_is_corrupt(self, serving, damage):
        store, tmp_path = serving
        write_ckpt(tmp_path / "bad")
        DAMAGE[damage][0](ckpt_file(tmp_path / "bad"))
        result = store.swap(str(tmp_path / "bad"))
        self.assert_degraded(store, result, "corrupt")

    def test_version_mismatch(self, serving):
        store, tmp_path = serving
        write_ckpt(tmp_path / "old")
        reissue_header(ckpt_file(tmp_path / "old"), version=99)
        result = store.swap(str(tmp_path / "old"))
        self.assert_degraded(store, result, "version-mismatch")

    def test_shape_mismatch_is_corrupt(self, serving):
        store, tmp_path = serving
        write_ckpt(tmp_path / "skew")
        reissue_header(
            ckpt_file(tmp_path / "skew"), edit=lambda meta: meta["shape"].update(m=1234)
        )
        result = store.swap(str(tmp_path / "skew"))
        self.assert_degraded(store, result, "corrupt")

    def test_last_good_is_most_recent_success(self, serving):
        store, tmp_path = serving
        assert store.swap(str(write_ckpt(tmp_path / "v2", fill=9.0))).ok
        result = store.swap(str(tmp_path / "gone"))
        self.assert_degraded(store, result, "missing", version=2, fill=9.0)

    def test_failures_accumulate_by_reason(self, serving):
        store, tmp_path = serving
        store.swap(str(tmp_path / "gone"))
        store.swap(str(tmp_path / "gone"))
        write_ckpt(tmp_path / "bad")
        DAMAGE["flip-in-Q"][0](ckpt_file(tmp_path / "bad"))
        store.swap(str(tmp_path / "bad"))
        assert failure_counts(store) == {"missing": 2.0, "corrupt": 1.0}
        assert store.swap_failures() == 3.0
        # failures never consume version numbers
        assert store.swap(str(write_ckpt(tmp_path / "v2"))).version == 2

    def test_swap_events_are_recorded(self, serving):
        store, tmp_path = serving
        store.swap(str(tmp_path / "gone"))
        events = [
            e for e in store.registry.events if e["event"] == "serving_swap"
        ]
        assert events[0]["ok"] is True       # the initial load
        assert events[-1]["ok"] is False
        assert events[-1]["reason"] == "missing"

    def test_no_failures_reads_zero(self, serving):
        store, _ = serving
        assert store.swap_failures() == 0.0


class TestCheckpointMeta:
    def test_meta_peek(self, tmp_path):
        write_ckpt(tmp_path / "ck", m=6, n=7, k=2, epoch=3)
        meta = read_checkpoint_meta(tmp_path / "ck")
        assert meta["epoch"] == 3
        assert meta["shape"] == {"m": 6, "n": 7, "k": 2}

    def test_meta_missing(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            read_checkpoint_meta(tmp_path / "nope")

    def test_meta_version_error_carries_found_version(self, tmp_path):
        write_ckpt(tmp_path / "ck")
        reissue_header(ckpt_file(tmp_path / "ck"), version=42)
        with pytest.raises(CheckpointVersionError) as exc_info:
            read_checkpoint_meta(tmp_path / "ck")
        assert exc_info.value.found == 42
        assert isinstance(exc_info.value, ValueError)  # back-compat
