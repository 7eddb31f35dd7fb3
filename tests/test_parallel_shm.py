"""Unit tests for shared-memory array helpers."""

import numpy as np
import pytest

from repro.parallel.shm import SharedArray, SharedArraySpec


class TestSharedArray:
    def test_create_zeroed(self):
        with SharedArray.create((4, 5), "float32") as arr:
            assert arr.array.shape == (4, 5)
            assert arr.array.dtype == np.float32
            np.testing.assert_array_equal(arr.array, 0.0)

    @pytest.mark.parametrize("dtype", ["float32", "float16", "int64"])
    def test_fresh_segment_reads_zero_without_a_fill(self, dtype):
        """create() relies on the kernel zeroing new segments: every
        wire dtype (and the int64 stamps/offsets) must read all-zero,
        past the first page too."""
        with SharedArray.create((3, 5000), dtype) as arr:
            assert arr.array.dtype == np.dtype(dtype)
            assert not arr.array.any()

    def test_attach_sees_writes(self):
        owner = SharedArray.create((3, 3), "float32")
        try:
            owner.array[1, 1] = 42.0
            peer = SharedArray.attach(owner.spec)
            assert peer.array[1, 1] == 42.0
            peer.array[0, 0] = 7.0
            assert owner.array[0, 0] == 7.0
            peer.close()
        finally:
            owner.unlink()

    def test_spec_carries_layout(self):
        owner = SharedArray.create((2, 6), "int64")
        try:
            spec = owner.spec
            assert spec.shape == (2, 6)
            assert np.dtype(spec.dtype) == np.int64
            assert spec.nbytes == 2 * 6 * 8
        finally:
            owner.unlink()

    def test_peer_cannot_unlink(self):
        owner = SharedArray.create((2, 2), "float32")
        try:
            peer = SharedArray.attach(owner.spec)
            with pytest.raises(RuntimeError, match="owner"):
                peer.unlink()
            peer.close()
        finally:
            owner.unlink()

    def test_close_idempotent(self):
        owner = SharedArray.create((2, 2), "float32")
        owner.unlink()
        owner.close()  # no error

    def test_zero_size_rejected(self):
        with pytest.raises(ValueError):
            SharedArray.create((0, 4), "float32")

    def test_context_manager_cleanup(self):
        with SharedArray.create((2, 2), "float32") as arr:
            spec = arr.spec
        # segment destroyed: attaching must fail
        with pytest.raises(FileNotFoundError):
            SharedArray.attach(spec)

    def test_float64(self):
        with SharedArray.create((3,), "float64") as arr:
            arr.array[:] = [1.5, 2.5, 3.5]
            np.testing.assert_array_equal(arr.array, [1.5, 2.5, 3.5])


class TestLifecycleOnFailure:
    """The leak paths hcclint HCC101 exists to prevent."""

    def test_create_failure_unlinks_segment(self, monkeypatch):
        """If create() fails after the OS segment exists, the segment
        must not outlive the exception."""
        import repro.parallel.shm as shm_mod

        def boom(*args, **kwargs):
            raise RuntimeError("spec construction failed")

        monkeypatch.setattr(shm_mod, "SharedArraySpec", boom)
        name = "repro-test-create-leak"
        with pytest.raises(RuntimeError, match="spec construction"):
            SharedArray.create((2, 2), "float32", name=name)
        # the named segment must be gone, not leaked until reboot
        from multiprocessing import shared_memory

        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=name)

    def test_attach_with_oversized_spec_fails_cleanly(self):
        """A stale spec larger than the real segment raises, and the
        owner can still tear the segment down afterwards."""
        owner = SharedArray.create((2, 2), "float32")
        try:
            stale = SharedArraySpec(owner.spec.name, (100, 100), "float32")
            with pytest.raises((TypeError, ValueError)):
                SharedArray.attach(stale)
        finally:
            owner.unlink()
        with pytest.raises(FileNotFoundError):
            SharedArray.attach(owner.spec)
