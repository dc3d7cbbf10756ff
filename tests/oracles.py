"""Seed reference matmuls: the oracles the served ``Linear`` path is checked against.

These are the original per-call implementations — the weight operand is
re-derived (cast or quantised) on every call — kept verbatim so the tests
compare the cached, kernel-dispatched ``Linear`` against an independent
formulation rather than against itself.
"""

from __future__ import annotations

import numpy as np

from repro.quant import QuantizedTensor, quantize

__all__ = [
    "matmul_with_precision",
    "quantized_matmul",
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


def matmul_with_precision(
    activations: np.ndarray, weights: np.ndarray, precision: str = "fp32"
) -> np.ndarray:
    """Matrix multiply in the requested precision.

    ``"fp32"`` uses float64/float32 numpy matmul; ``"fp16"`` casts operands to
    half precision; ``"int8"`` performs symmetric per-tensor INT8xINT8->INT32
    accumulation with float dequantisation (the I-BERT inference setting).

    This is the uncached reference: weights are re-prepared on every call.
    :class:`Linear` provides the cached inference path.
    """
    if precision == "fp32":
        return np.matmul(activations, weights)
    if precision == "fp16":
        return fp16_matmul(activations, weights)
    if precision == "int8":
        flat = activations.reshape(-1, activations.shape[-1])
        result = quantized_matmul(flat, weights)
        return result.reshape(*activations.shape[:-1], weights.shape[-1])
    raise ValueError(f"precision must be 'fp32', 'fp16' or 'int8', got {precision!r}")


def seed_linear_call(layer, x: np.ndarray) -> np.ndarray:
    """The seed ``Linear.__call__``: per-call weight preparation."""
    return matmul_with_precision(x, layer.weight, layer.precision) + layer.bias
