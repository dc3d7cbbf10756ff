"""Test oracles: seed reference matmuls and an exact scalar table.

The matmuls are the original per-call implementations — the weight operand
is re-derived (cast or quantised) on every call — so the tests compare the
cached, kernel-dispatched ``Linear`` against an independent formulation
rather than against itself.  The int8 one quantises each activation row on
its own (:func:`row_quantized_matmul`), as the engine does.

:class:`ExactTable` puts an exact numpy function behind the scalar-table
contract, ``evaluate(x, out=None)``, so a composite operator can be run over
exact primitives and checked against the exact operator.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.quant import QuantizedTensor, quantize

__all__ = [
    "ExactTable",
    "matmul_with_precision",
    "quantized_matmul",
    "row_quantized_matmul",
    "fp16_matmul",
    "seed_linear_call",
]


def fp16_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix multiply with FP16 operands and FP32-style accumulation.

    numpy accumulates float16 matmuls in float32 internally when asked to
    output float32; we cast operands to float16 first (storage precision) and
    request a float32 result (accumulator precision), then return float64 for
    downstream consistency.
    """
    a16 = np.asarray(a, dtype=np.float16)
    b16 = np.asarray(b, dtype=np.float16)
    return np.matmul(a16.astype(np.float32), b16.astype(np.float32)).astype(np.float64)


def quantized_matmul(
    activations: np.ndarray,
    weights: np.ndarray | None = None,
    activation_bits: int = 8,
    weight_bits: int = 8,
    weights_q: QuantizedTensor | None = None,
) -> np.ndarray:
    """INT8xINT8 -> INT32 matmul with float dequantisation of the result.

    Mirrors the I-BERT inference path: both operands are symmetrically
    quantised per tensor, the product is accumulated in integers and the
    output carries the product of the two scales.

    ``weights_q`` supplies an already-quantised weight tensor (the static
    weight discipline: weights are quantised once, offline) and skips the
    per-call weight quantisation entirely.
    """
    act_q = quantize(activations, num_bits=activation_bits)
    if weights_q is None:
        if weights is None:
            raise ValueError("either weights or weights_q must be provided")
        weights_q = quantize(weights, num_bits=weight_bits)
    accumulator = act_q.data @ weights_q.data
    return accumulator.astype(np.float64) * (act_q.scale * weights_q.scale)


def row_quantized_matmul(activations: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """INT8xINT8 -> INT32 matmul with one activation scale per row.

    Each row of the ``(m, k)`` activations is quantised by itself with the
    reference quantiser, the weight once per tensor; row ``i`` of the integer
    product is dequantised by ``scale_i * weight_scale``.  A row's result
    therefore depends on that row alone.
    """
    rows = [quantize(row, num_bits=8) for row in activations]
    act = np.array([row.data for row in rows], dtype=np.int64).reshape(activations.shape)
    scales = np.array([row.scale for row in rows], dtype=np.float64)
    weights_q = quantize(weights, num_bits=8)
    accumulator = act @ weights_q.data
    return accumulator.astype(np.float64) * (scales[:, None] * weights_q.scale)


def matmul_with_precision(
    activations: np.ndarray, weights: np.ndarray, precision: str = "fp32"
) -> np.ndarray:
    """Matrix multiply in the requested precision.

    ``"fp32"`` uses float64/float32 numpy matmul; ``"fp16"`` casts operands to
    half precision; ``"int8"`` performs symmetric INT8xINT8->INT32
    accumulation with float dequantisation, activations per token row and
    weights per tensor (:func:`row_quantized_matmul`).

    This is the uncached reference: weights are re-prepared on every call.
    :class:`Linear` provides the cached inference path.
    """
    if precision == "fp32":
        return np.matmul(activations, weights)
    if precision == "fp16":
        return fp16_matmul(activations, weights)
    if precision == "int8":
        flat = activations.reshape(-1, activations.shape[-1])
        result = row_quantized_matmul(flat, weights)
        return result.reshape(*activations.shape[:-1], weights.shape[-1])
    raise ValueError(f"precision must be 'fp32', 'fp16' or 'int8', got {precision!r}")


def seed_linear_call(layer, x: np.ndarray) -> np.ndarray:
    """The seed ``Linear.__call__``: per-call weight preparation."""
    return matmul_with_precision(x, layer.weight, layer.precision) + layer.bias


@dataclass
class ExactTable:
    """``function`` as a scalar table: the ``evaluate(x, out=None)`` contract.

    Like the LUTs, the result carries ``x``'s floating dtype (anything else
    is promoted to float64) and lands in ``out`` when one is given; ``out``
    may alias ``x``, since ``function`` sees the whole input first.
    """

    function: Callable[[np.ndarray], np.ndarray]

    def evaluate(self, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        x = np.asarray(x)
        if x.dtype not in (np.float32, np.float64):
            x = x.astype(np.float64)
        result = np.asarray(self.function(x), dtype=x.dtype)
        if out is None:
            return result
        np.copyto(out, result)
        return out
