"""FP32 <-> FP16 feature compression (Strategy 2, paper 3.4).

Rating values have coarse, finite scales (5-point, 10-point, 100-point
systems), so the feature matrices tolerate half-precision on the wire:
convert to IEEE-754 binary16 before transmission, back to binary32 on
receipt.  The paper implements the conversion with AVX on CPUs and CUDA
intrinsics on GPUs; NumPy's ``float16`` dtype is the same IEEE format.

Traffic halves; the induced error is bounded by FP16's unit roundoff
(2^-11 relative) plus overflow/underflow at the format's range limits,
which the tests characterize.
"""

from __future__ import annotations

import numpy as np

#: IEEE-754 binary16 unit roundoff: values within the normal range are
#: represented with relative error at most 2**-11.
FP16_RELATIVE_ERROR_BOUND = 2.0 ** -11

#: largest finite binary16 value; inputs beyond it saturate to inf.
FP16_MAX = 65504.0


def compress_fp16(arr: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Convert an FP32 array to FP16 for transmission.

    Values whose magnitude exceeds the FP16 range are clamped to the
    largest finite half-precision value rather than becoming inf — a
    transmitted inf would destroy the receiving feature matrix.

    ``out`` is the wire buffer to fill (a fresh one when omitted).
    Clamp and narrowing cast are one pass: the clip runs in FP32 and
    NumPy casts its result into ``out`` a buffer-full at a time, so no
    full-size temporary exists on either side of the cast.
    """
    arr = np.asarray(arr, dtype=np.float32)
    if out is None:
        out = np.empty(arr.shape, dtype=np.float16)
    np.clip(arr, -FP16_MAX, FP16_MAX, out=out, casting="unsafe")
    return out


def decompress_fp16(arr: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Convert a received FP16 buffer back to FP32 (into ``out`` if given)."""
    arr = np.asarray(arr)
    if arr.dtype != np.float16:
        raise TypeError(f"expected float16 buffer, got {arr.dtype}")
    if out is None:
        return arr.astype(np.float32)
    np.copyto(out, arr)
    return out


def roundtrip_error(arr: np.ndarray) -> float:
    """Max relative error introduced by one compress/decompress cycle."""
    arr = np.asarray(arr, dtype=np.float32)
    back = decompress_fp16(compress_fp16(arr))
    denom = np.maximum(np.abs(arr), 1e-30)
    return float(np.max(np.abs(back - arr) / denom)) if arr.size else 0.0


def wire_bytes(n_values: int, fp16: bool) -> int:
    """Bytes on the wire for ``n_values`` feature parameters."""
    if n_values < 0:
        raise ValueError("n_values must be non-negative")
    return n_values * (2 if fp16 else 4)
