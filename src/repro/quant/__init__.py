"""Reference symmetric per-tensor quantiser (I-BERT's INT8 setting).

The served quantiser is the compute kernel's one-pass
``quantize_scale`` / ``quantize_pack`` (:mod:`repro.core.kernels`), which
is bitwise-equal to :func:`quantize`.  This pair stays for two readers: the
tests compare the kernel's quantiser against it, and the end-to-end
benchmark harness quantises the weights it times the int8 GEMM on with
:func:`quantize`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from ..core.quantization import compute_scale

__all__ = ["QuantizedTensor", "quantize"]


@dataclass
class QuantizedTensor:
    """An integer tensor together with its dequantisation scale."""

    data: np.ndarray
    scale: float
    num_bits: int = 8

    def dequantize(self) -> np.ndarray:
        return self.data.astype(np.float64) * self.scale

    @property
    def shape(self) -> Tuple[int, ...]:
        return tuple(self.data.shape)


def quantize(values: np.ndarray, num_bits: int = 8, scale: float | None = None) -> QuantizedTensor:
    """Quantise a float tensor to signed integers with a symmetric scale.

    When ``scale`` is omitted it is derived with
    :func:`~repro.core.quantization.compute_scale`, whose ``max|v|``
    reduction doubles as the non-finite check.  When the caller already knows
    the scale, no reduction over ``values`` is performed at all — the rounded
    intermediate (which NaN/inf propagate into) is checked instead, so
    garbage can still never reach the integer tensor.
    """
    values = np.asarray(values)
    if values.dtype not in (np.float32, np.float64):
        values = values.astype(np.float64)
    limit = 2 ** (num_bits - 1) - 1
    if scale is None:
        scale = compute_scale(values, num_bits)
        rounded = np.round(values / scale)
    else:
        scale = float(scale)
        if not (np.isfinite(scale) and scale > 0.0):
            raise ValueError(f"scale must be finite and positive, got {scale}")
        rounded = np.round(values / scale)
        # NaN propagates into both reductions, -inf into min, +inf into max;
        # allocation-free compared to an isfinite mask over the whole tensor.
        if rounded.size and not (
            np.isfinite(np.min(rounded)) and np.isfinite(np.max(rounded))
        ):
            raise ValueError(
                "cannot quantize non-finite values (input contains NaN or infinity)"
            )
    np.clip(rounded, -limit, limit, out=rounded)
    return QuantizedTensor(data=rounded.astype(np.int64), scale=scale, num_bits=num_bits)
