"""Shared-memory array helpers (the "shared pinned memory" stand-in).

Wraps :class:`multiprocessing.shared_memory.SharedMemory` so that a
NumPy array can be created in one process and attached zero-copy in
another, with explicit lifecycle control.  The paper's COMM module maps
one pull buffer (server -> workers) and per-worker push buffers
(worker -> server) this way, so each transfer is a single ``memcpy``.
"""

from __future__ import annotations

from dataclasses import dataclass
from multiprocessing import shared_memory

import numpy as np


@dataclass(frozen=True)
class SharedArraySpec:
    """Everything a peer process needs to attach to a shared array."""

    name: str
    shape: tuple[int, ...]
    dtype: str

    @property
    def nbytes(self) -> int:
        return int(np.prod(self.shape)) * np.dtype(self.dtype).itemsize


class SharedArray:
    """A NumPy array backed by named shared memory.

    Create with :meth:`create` in the owner process; attach elsewhere
    with :meth:`attach`.  The owner must :meth:`unlink` once all
    processes have closed, or the segment leaks until reboot.
    """

    def __init__(self, shm: shared_memory.SharedMemory, spec: SharedArraySpec, owner: bool):
        self._shm = shm
        self.spec = spec
        self.owner = owner
        self.array = np.ndarray(spec.shape, dtype=np.dtype(spec.dtype), buffer=shm.buf)
        self._closed = False

    # ------------------------------------------------------------------
    @classmethod
    def create(cls, shape: tuple[int, ...], dtype="float32", name: str | None = None) -> "SharedArray":
        spec_dtype = np.dtype(dtype).str
        nbytes = int(np.prod(shape)) * np.dtype(dtype).itemsize
        if nbytes <= 0:
            raise ValueError("shared array must have positive size")
        shm = shared_memory.SharedMemory(create=True, size=nbytes, name=name)
        try:
            spec = SharedArraySpec(shm.name, tuple(int(s) for s in shape), spec_dtype)
            # no zero-fill: the kernel hands a fresh segment out zeroed,
            # and writing it again would touch every page a second time
            return cls(shm, spec, owner=True)
        except BaseException:
            # a failure between creating the segment and handing
            # ownership to the caller would leak it until reboot
            shm.close()
            try:
                shm.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass
            raise

    @classmethod
    def attach(cls, spec: SharedArraySpec) -> "SharedArray":
        shm = shared_memory.SharedMemory(name=spec.name)
        try:
            return cls(shm, spec, owner=False)
        except BaseException:
            # e.g. a stale spec whose shape exceeds the real segment:
            # drop this process's mapping before propagating
            shm.close()
            raise

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Detach this process's mapping (idempotent)."""
        if self._closed:
            return
        # drop the numpy view first, else SharedMemory.close warns
        self.array = None
        self._shm.close()
        self._closed = True

    def unlink(self) -> None:
        """Destroy the segment (owner only, after close in peers)."""
        if not self.owner:
            raise RuntimeError("only the owner may unlink a shared array")
        self.close()
        try:
            self._shm.unlink()
        except FileNotFoundError:  # pragma: no cover - already unlinked
            pass

    def __enter__(self) -> "SharedArray":
        return self

    def __exit__(self, *exc) -> None:
        if self.owner:
            self.unlink()
        else:
            self.close()
