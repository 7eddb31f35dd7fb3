"""Model checkpointing: save, load, and resume MF training.

Long MF runs on big platforms want durable state: the factor matrices,
the training hyper-parameters, and enough history to resume.  A
checkpoint is one file, ``<path>.ckpt`` (byte layout: docs/serving.md,
"The checkpoint file"): a small checksummed header, then P and Q raw —
C-order little-endian FP32, each on a page boundary — so that a reader
can map the factors instead of copying them.  Every array byte is
covered by a CRC32 and a finiteness scan, when it is written and every
time it is loaded.
"""

from __future__ import annotations

import json
import mmap
import os
import struct
import zlib
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.mf.model import MFModel

#: bump when the on-disk layout changes
CHECKPOINT_VERSION = 2

_MAGIC = b"HCCMFCKP"
#: magic, format version, length of the meta block, CRC32 of the meta block
_PREFIX = struct.Struct("<8sIII")
#: arrays start on a page boundary: a mapped view is aligned for any
#: dtype and shares no page with the header or with the other array
_ALIGN = mmap.PAGESIZE
#: values per block of the save and load passes (1 MiB of FP32): what
#: the CRC and the finiteness scan see at a time, and all a validated
#: load holds beside the mapping
_BLOCK = 1 << 18
_DTYPE = np.dtype("<f4")


class CheckpointVersionError(ValueError):
    """A checkpoint was written by an incompatible format version.

    Subclasses :class:`ValueError` so existing ``except ValueError``
    recovery paths keep working; the serving plane catches this type to
    classify a failed hot-swap as ``version-mismatch`` rather than a
    generic corrupt file.
    """

    def __init__(self, path: Path, found: object):
        self.path = path
        self.found = found
        super().__init__(
            f"checkpoint at {path} was written as format version {found}, "
            f"but this build reads version {CHECKPOINT_VERSION}"
        )


@dataclass
class Checkpoint:
    """A saved training state."""

    model: MFModel
    epoch: int
    rmse_history: list[float] = field(default_factory=list)
    config: dict = field(default_factory=dict)
    version: int = CHECKPOINT_VERSION

    def __post_init__(self) -> None:
        if self.epoch < 0:
            raise ValueError("epoch must be non-negative")


def _ckpt_path(path: str | os.PathLike) -> Path:
    """``<path>.ckpt`` — appended, so ``run.1`` and ``run.2`` stay two files."""
    return Path(os.fspath(path) + ".ckpt")


def _aligned(offset: int) -> int:
    return -(-offset // _ALIGN) * _ALIGN


def _layout(shapes: dict[str, tuple[int, int]]) -> tuple[dict[str, int], int]:
    """Where each array starts, counted from the first one, and where the last ends."""
    offsets, end = {}, 0
    for name, (rows, cols) in shapes.items():
        offsets[name] = _aligned(end)
        end = offsets[name] + rows * cols * _DTYPE.itemsize
    return offsets, end


def _scan(block: np.ndarray, crc: int, what: str) -> int:
    """Fold ``block`` into ``crc``; a NaN or an infinity in it raises."""
    if not np.isfinite(block).all():
        raise ValueError(f"{what} holds a non-finite value")
    return zlib.crc32(block, crc)


def save_checkpoint(ckpt: Checkpoint, path: str | os.PathLike) -> None:
    """Write ``<path>.ckpt`` crash-atomically; a non-finite factor raises.

    Each factor makes one blocked pass — finiteness, CRC32, write — into
    a temp file in the *same directory* (a rename must not cross
    filesystems), which is flushed to disk and installed by one
    :func:`os.replace`.  A reader sees the old file or the new one, and
    a save that raises (an ``inf`` in P, a full disk) leaves the
    previous file as it was.

    A checkpoint is never rewritten in place.  A serving snapshot is a
    read-only mapping of this file (:func:`load_checkpoint`), and the
    rename is what lets it outlive the next save to the same path: the
    old inode lives as long as its mapping.  Overwriting the file itself
    would change the factors under a live reader, and truncating it
    turns the reader's next access into a SIGBUS.
    """
    target = _ckpt_path(path)
    arrays = {
        name: np.ascontiguousarray(getattr(ckpt.model, name), dtype=_DTYPE)
        for name in ("P", "Q")
    }
    offsets, end = _layout({name: arr.shape for name, arr in arrays.items()})

    def header(crcs: dict[str, int]) -> bytes:
        meta = json.dumps({
            "epoch": ckpt.epoch,
            "rmse_history": [float(r) for r in ckpt.rmse_history],
            "config": ckpt.config,
            "shape": {"m": ckpt.model.m, "n": ckpt.model.n, "k": ckpt.model.k},
            "arrays": {
                name: {
                    "offset": offsets[name], "dtype": _DTYPE.str,
                    "shape": list(arr.shape),
                    # fixed width: the header's length is known before the pass
                    "crc32": f"{crcs[name]:08x}",
                }
                for name, arr in arrays.items()
            },
        }).encode()
        return _PREFIX.pack(_MAGIC, CHECKPOINT_VERSION, len(meta), zlib.crc32(meta)) + meta

    crcs = dict.fromkeys(arrays, 0)
    data_start = _aligned(len(header(crcs)))
    tmp = target.with_name(target.name + ".tmp")
    try:
        with open(tmp, "wb") as fh:
            for name, arr in arrays.items():
                fh.seek(data_start + offsets[name])
                flat = arr.reshape(-1)
                for lo in range(0, flat.size, _BLOCK):
                    block = flat[lo : lo + _BLOCK]
                    crcs[name] = _scan(block, crcs[name], f"factor {name}")
                    fh.write(block)
            fh.truncate(data_start + end)
            # the header carries the CRCs of what follows it, so it goes in last
            fh.seek(0)
            fh.write(header(crcs))
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, target)
    finally:
        tmp.unlink(missing_ok=True)


def _read_header(fh, target: Path) -> tuple[dict, int]:
    """``(meta, data_start)`` of an open checkpoint; validates the header."""
    prefix = fh.read(_PREFIX.size)
    if len(prefix) < _PREFIX.size:
        raise ValueError(f"checkpoint at {target} is truncated inside the header")
    magic, version, meta_len, meta_crc = _PREFIX.unpack(prefix)
    if magic != _MAGIC:
        raise ValueError(f"{target} is not a checkpoint (bad magic)")
    if version != CHECKPOINT_VERSION:
        raise CheckpointVersionError(target, version)
    raw = fh.read(meta_len)
    if len(raw) < meta_len:
        raise ValueError(f"checkpoint at {target} is truncated inside the header")
    if zlib.crc32(raw) != meta_crc:
        raise ValueError(f"checkpoint at {target} fails its header CRC")
    meta = json.loads(raw)
    if not isinstance(meta, dict):
        raise ValueError(f"checkpoint at {target}: malformed header (not a JSON object)")
    return {"version": version, **meta}, _aligned(_PREFIX.size + meta_len)


def read_checkpoint_meta(path: str | os.PathLike) -> dict:
    """Read and validate only the header: a cheap version/shape peek.

    Raises :class:`FileNotFoundError` when there is no ``<path>.ckpt``,
    :class:`CheckpointVersionError` on a format-version mismatch and
    :class:`ValueError` on a header that is torn or fails its CRC.
    """
    target = _ckpt_path(path)
    with open(target, "rb") as fh:
        return _read_header(fh, target)[0]


def _read_array(fh, count: int, out: "np.ndarray | None", what: str) -> int:
    """CRC32 of the next ``count`` values of ``fh``, read and scanned by the block.

    The values land in ``out`` (flat, ``count`` long) when there is one,
    and otherwise only pass through one block buffer.
    """
    scratch = np.empty(min(count, _BLOCK), dtype=_DTYPE) if out is None else None
    crc = 0
    for lo in range(0, count, _BLOCK):
        n = min(_BLOCK, count - lo)
        dest = scratch[:n] if out is None else out[lo : lo + n]
        if fh.readinto(dest) != dest.nbytes:
            raise ValueError(f"{what} ends early")
        crc = _scan(dest, crc, what)
    return crc


def load_checkpoint(path: str | os.PathLike, readonly: bool = False) -> Checkpoint:
    """Read ``<path>.ckpt`` back, validating all of it, on every load.

    Checked: the header (magic, version, CRC), the declared layout
    against the declared shapes, the file's length, and every array's
    CRC32 and finiteness.  Any failure but a missing file or a foreign
    version is a plain :class:`ValueError`.  The arrays are validated by
    *reading* the file block by block, not through the mapping: touching
    every page of a fresh mapping would make the whole new file resident
    next to the snapshot it is about to replace.

    With ``readonly=True`` the factors are views over one read-only
    mapping of the file — the read side's aliasing guarantee for the
    serving plane (a stray in-place write raises instead of tearing
    every concurrent response), at no copy.  The views keep the mapping
    alive; it is unmapped when the last of them is dropped.  With
    ``readonly=False`` they are private writable arrays.
    """
    target = _ckpt_path(path)
    with open(target, "rb") as fh:
        meta, data_start = _read_header(fh, target)
        try:
            m, n, k = (int(meta["shape"][axis]) for axis in "mnk")
            if min(m, n, k) < 0:
                raise ValueError("negative shape")
            shapes = {"P": (m, k), "Q": (k, n)}
            table = {name: meta["arrays"][name] for name in shapes}
            declared = {name: (e["offset"], e["dtype"], tuple(e["shape"]))
                        for name, e in table.items()}
            crcs = {name: int(e["crc32"], 16) for name, e in table.items()}
            epoch = int(meta["epoch"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"checkpoint at {target}: malformed header ({exc!r})") from exc
        offsets, end = _layout(shapes)
        if declared != {name: (offsets[name], _DTYPE.str, shapes[name]) for name in shapes}:
            raise ValueError("checkpoint metadata disagrees with stored factors")
        size = os.fstat(fh.fileno()).st_size
        if size != data_start + end:
            raise ValueError(
                f"checkpoint at {target} is {size} B long, its header "
                f"describes {data_start + end} B"
            )

        factors = {}
        for name, (rows, cols) in shapes.items():
            out = None if readonly else np.empty(rows * cols, dtype=_DTYPE)
            fh.seek(data_start + offsets[name])
            what = f"factor {name} of {target}"
            if _read_array(fh, rows * cols, out, what) != crcs[name]:
                raise ValueError(f"{what} fails its CRC")
            factors[name] = out
        if readonly:
            # maps the open file that was just validated, and is never
            # closed by hand: the views hold it, the last one dropped unmaps it
            mapping = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)
            for name, (rows, cols) in shapes.items():
                factors[name] = np.frombuffer(
                    mapping, dtype=_DTYPE, count=rows * cols,
                    offset=data_start + offsets[name],
                )
    return Checkpoint(
        model=MFModel(*(factors[name].reshape(shapes[name]) for name in shapes)),
        epoch=epoch,
        rmse_history=[float(r) for r in meta.get("rmse_history", [])],
        config=meta.get("config", {}),
        version=meta["version"],
    )


def resume_hogwild(
    ckpt: Checkpoint,
    ratings,
    extra_epochs: int,
    lr: float | None = None,
    reg: float | None = None,
    seed: int | None = None,
):
    """Continue Hogwild training from a checkpoint.

    Returns an updated :class:`Checkpoint` whose history appends the new
    epochs'.  Hyper-parameters default to the checkpoint's stored config.
    """
    from repro.mf.kernels import sgd_epoch

    if extra_epochs <= 0:
        raise ValueError("extra_epochs must be positive")
    cfg = ckpt.config
    lr = lr if lr is not None else float(cfg.get("lr", 0.005))
    reg = reg if reg is not None else float(cfg.get("reg", 0.01))
    seed = seed if seed is not None else int(cfg.get("seed", 0))
    batch = int(cfg.get("batch_size", 4096))

    rng = np.random.default_rng(seed + ckpt.epoch)  # new stream per resume
    history = list(ckpt.rmse_history)
    for _ in range(extra_epochs):
        sgd_epoch(ckpt.model, ratings, lr, reg, batch_size=batch, rng=rng)
        history.append(ckpt.model.rmse(ratings))
    return Checkpoint(
        model=ckpt.model,
        epoch=ckpt.epoch + extra_epochs,
        rmse_history=history,
        config={**cfg, "lr": lr, "reg": reg, "seed": seed, "batch_size": batch},
    )
