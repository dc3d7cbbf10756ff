"""Reduced-precision LUT variants (paper Sec. 4.1, footnote 3).

The paper evaluates three precision settings for the table contents and the
datapath:

* **FP32** — the tables as produced by the NN→LUT conversion.
* **FP16** — breakpoints/slopes/intercepts cast to IEEE half precision and the
  multiply-add evaluated in half precision.
* **INT32** — the I-BERT style direct quantisation: each of ``d``, ``s``, ``t``
  gets a scale factor derived from its maximum magnitude, values are rounded
  to integers, and the per-element evaluation ``s*x + t`` is carried out in
  integer arithmetic with the scale factors tracked on the side.

All three variants meet the same ``evaluate(x, out=None)`` contract as
:class:`~repro.core.lut.LookupTable` (and keep a ``__call__(x)``), so they
are drop-in interchangeable in the approximators and the Transformer
backends.  Both entry points preserve the input's floating dtype (non-float
input promotes to float64), so the fp32 engine never silently upcasts
through a table call.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .lut import LookupTable
from .lut import _NATIVE_DTYPES, _validate_out

__all__ = [
    "compute_scale",
    "Fp16LookupTable",
    "Int32LookupTable",
]


def compute_scale(values: np.ndarray, num_bits: int = 8) -> float:
    """Symmetric per-tensor scale: ``max|v| / (2^(b-1) - 1)``; 1.0 for zeros.

    The one scale of every symmetric quantiser here: the INT32 tables below
    and the compute kernels' INT8 weight quantisation (I-BERT's per-tensor
    setting); INT8 activations take it per token row.  Raises ``ValueError`` for non-finite inputs: a NaN
    or infinity would otherwise silently poison the scale and produce garbage
    integer tensors.  The check rides on the ``max|v|`` reduction, so it costs
    no extra pass.
    """
    if num_bits < 2:
        raise ValueError("num_bits must be >= 2")
    values = np.asarray(values)
    max_abs = float(np.max(np.abs(values))) if values.size else 0.0
    if not np.isfinite(max_abs):
        raise ValueError(
            "cannot quantize non-finite values (input contains NaN or infinity)"
        )
    if max_abs == 0.0:
        return 1.0
    return max_abs / float(2 ** (num_bits - 1) - 1)


@dataclass
class Fp16LookupTable:
    """LUT whose parameters and multiply-add are IEEE half precision."""

    source: LookupTable

    def __post_init__(self) -> None:
        self.breakpoints = self.source.breakpoints.astype(np.float16)
        self.slopes = self.source.slopes.astype(np.float16)
        self.intercepts = self.source.intercepts.astype(np.float16)
        self.name = self.source.name
        self.metadata = dict(self.source.metadata, precision="fp16")

    @property
    def num_entries(self) -> int:
        return int(self.slopes.size)

    def evaluate(self, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Fused FP16 kernel; the result carries the (floating) dtype of ``x``.

        The comparison and multiply-add run in half precision exactly as in
        ``__call__`` — only the surrounding casts and temporaries are fused.
        """
        x = np.asarray(x)
        if x.dtype not in _NATIVE_DTYPES:
            x = x.astype(np.float64)
        x16 = x.astype(np.float16)
        idx = np.searchsorted(self.breakpoints, x16, side="right")
        result16 = np.take(self.slopes, idx)
        result16 *= x16
        result16 += np.take(self.intercepts, idx)
        out = _validate_out(x, out)
        np.copyto(out, result16)
        return out

    def __call__(self, x: np.ndarray) -> np.ndarray:
        # Same dtype contract as ``evaluate``: the result carries the input's
        # floating dtype (non-float input promotes to float64 once), unlike
        # ``LookupTable.__call__``, which always returns float64.
        return self.evaluate(x)


@dataclass
class Int32LookupTable:
    """LUT with INT32-quantised parameters and integer multiply-add.

    Following the I-BERT recipe referenced by the paper, the input is assumed
    to be pre-scaled: callers pass floating-point ``x`` and the table
    internally quantises it with its own input scale (derived from the
    training range), performs the comparison and multiply-add on integers, and
    dequantises the result.
    """

    source: LookupTable
    input_range: Tuple[float, float]
    num_bits: int = 32

    def __post_init__(self) -> None:
        low, high = float(self.input_range[0]), float(self.input_range[1])
        if not high > low:
            raise ValueError(f"input_range must satisfy high > low, got {self.input_range}")
        self._input_scale = compute_scale(np.array([low, high]), num_bits=self.num_bits)
        self._breakpoint_scale = self._input_scale
        self._slope_scale = compute_scale(self.source.slopes, num_bits=self.num_bits)
        # Intercepts share the output scale slope_scale * input_scale so the
        # integer accumulation s_q * x_q + t_q is homogeneous.
        self._output_scale = self._slope_scale * self._input_scale

        self.q_breakpoints = np.round(self.source.breakpoints / self._breakpoint_scale).astype(
            np.int64
        )
        self.q_slopes = np.round(self.source.slopes / self._slope_scale).astype(np.int64)
        self.q_intercepts = np.round(self.source.intercepts / self._output_scale).astype(np.int64)
        self.name = self.source.name
        self.metadata = dict(self.source.metadata, precision=f"int{self.num_bits}")

    @property
    def num_entries(self) -> int:
        return int(self.q_slopes.size)

    @property
    def scales(self) -> Tuple[float, float, float]:
        """(input_scale, slope_scale, output_scale) for inspection."""
        return (self._input_scale, self._slope_scale, self._output_scale)

    def evaluate(self, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Fused INT32 kernel; the result carries the (floating) dtype of ``x``.

        Input quantisation, comparison and multiply-add are the same integer
        operations as ``__call__``; only the float casts and temporaries
        around them are fused.
        """
        x = np.asarray(x)
        if x.dtype not in _NATIVE_DTYPES:
            x = x.astype(np.float64)
        xq = np.round(x / self._input_scale).astype(np.int64)
        idx = np.searchsorted(self.q_breakpoints, xq, side="right")
        acc = np.take(self.q_slopes, idx)
        acc *= xq
        acc += np.take(self.q_intercepts, idx)
        out = _validate_out(x, out)
        np.multiply(acc, self._output_scale, out=out)
        return out

    def __call__(self, x: np.ndarray) -> np.ndarray:
        # See Fp16LookupTable.__call__: the input's floating dtype is kept.
        return self.evaluate(x)
