"""Composite Transformer operators built from scalar approximators.

The Transformer's non-linear blocks decompose into scalar primitives plus
exact linear reductions (sums, means), which a MAC array computes natively:

* **GELU** — a single table look-up per element.
* **Softmax** — ``exp`` look-ups on max-subtracted inputs, an exact row sum,
  then a ``1/x`` look-up on the sum and a multiply (the paper trains the
  ``exp`` table on (-256, 0) and the ``divide`` table on (1, 1024)).
* **LayerNorm** — exact mean/variance, a ``1/sqrt`` look-up on the variance
  (with the Sec.-3.3.2 input scaling), then a multiply per element.

Each composite takes *any* scalar approximator with a ``__call__`` interface —
a float LookupTable, an FP16/INT32 quantised table, a Linear-LUT baseline, an
I-BERT integer kernel, or the exact reference — so the same classes drive the
software-accuracy experiments for every method in the paper.

Approximators additionally exposing the fused ``evaluate(x, out=...)`` kernel
(see :mod:`repro.core.lut`) are driven through it: the composites preserve the
input's floating dtype (float32 stays float32 end to end) and chain their
intermediate buffers through :func:`repro.core.lut.evaluate_many` instead of
allocating fresh temporaries at every step.  GELU and Softmax run their op
order per L2-sized row block (:func:`_row_blocked`); LayerNorm does not — at
the encoder's shapes it is L2-resident as it is, and blocking it measured
slower (192x768: 0.32 -> 0.51 ms, 512x768: 0.95 -> 1.42 ms).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import functions
from .lut import _BLOCK_ELEMENTS, _NATIVE_DTYPES, evaluate_many
from .scaling import InputScaler

__all__ = [
    "ScalarApproximator",
    "ExactScalar",
    "LutGelu",
    "LutSoftmax",
    "LutLayerNorm",
    "ExactGelu",
    "ExactSoftmax",
    "ExactLayerNorm",
]

#: Anything mapping an ndarray of scalars to an ndarray of the same shape.
ScalarApproximator = Callable[[np.ndarray], np.ndarray]


def _as_float(x: np.ndarray) -> np.ndarray:
    """Single dtype check shared by the composites: floats pass through."""
    x = np.asarray(x)
    if x.dtype not in _NATIVE_DTYPES:
        x = x.astype(np.float64)
    return x


@dataclass
class ExactScalar:
    """Wrap an exact numpy function so it quacks like a LookupTable."""

    function: ScalarApproximator
    name: str = "exact"

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return np.asarray(self.function(np.asarray(x, dtype=np.float64)))


# --------------------------------------------------------------------------- #
# Row blocking
# --------------------------------------------------------------------------- #
def _row_blocked(
    body: Callable[[np.ndarray, np.ndarray | None, bool], np.ndarray],
    x: np.ndarray,
    axis: int,
    *approximators: ScalarApproximator,
) -> np.ndarray:
    """Run a composite's ``body(x, out, counted)`` over L2-sized row blocks.

    ``body`` is the composite's verbatim op order; given ``out=None`` it
    allocates its result as it always did, given a buffer it writes there.
    A C-contiguous tensor worked along its last axis (``axis == -1``, the
    spelling that also fits a ``(rows, cols)`` block) is cut into blocks of
    about ``_BLOCK_ELEMENTS`` elements, each run into its rows of one result
    buffer, so every pass of ``body`` over a block hits L2.  Rows are never
    split: a per-row reduction sees exactly the row it sees unblocked.
    Anything else — strided, another axis, 1-D, at most one block's worth of
    rows, an approximator without the fused ``evaluate(x, out=)`` (its result
    need not land in ``out``) — is one block, ``body(x, None, True)``.
    ``counted`` is true for the first block only, so the evaluation counters
    stay one per composite call.
    """
    cols = x.shape[-1] if x.ndim >= 2 else 0
    step = max(1, _BLOCK_ELEMENTS // cols) if cols else 0
    if not (
        cols
        and axis == -1
        and x.size > step * cols
        and x.flags.c_contiguous
        and all(hasattr(approx, "evaluate") for approx in approximators)
    ):
        return body(x, None, True)
    result = np.empty_like(x)
    rows_in, rows_out = x.reshape(-1, cols), result.reshape(-1, cols)
    for start in range(0, rows_in.shape[0], step):
        body(rows_in[start : start + step], rows_out[start : start + step], start == 0)
    return result


# --------------------------------------------------------------------------- #
# GELU
# --------------------------------------------------------------------------- #
def _gelu_forward(op: "LutGelu", x: np.ndarray, bias: np.ndarray | None = None) -> np.ndarray:
    """Reference GELU composite body (``x`` already a float array).

    Shared between :class:`LutGelu` and the ``NumpyKernel`` compute kernel so
    the kernel seam has a single source of truth for the reference op order,
    run per row block (:func:`_row_blocked`).  With ``bias`` — the kernel's
    fused epilogue, ``x`` a matmul output the caller gives up — each block of
    ``x`` first has it added in place.
    """

    def block(x: np.ndarray, out: np.ndarray | None, counted: bool) -> np.ndarray:
        if bias is not None:
            x += bias
        if op.clip_range is None:
            (result,) = evaluate_many([(op.gelu_approx, x, out)], counted)
            return result
        low, high = op.clip_range
        inside = np.clip(x, low, high, out=out)
        (approx,) = evaluate_many([(op.gelu_approx, inside, inside)], counted)
        # Saturated tails: GELU(x) ~ x for large x and ~0 for very negative x.
        np.copyto(approx, x, where=x > high, casting="same_kind")
        approx[x < low] = 0.0
        return approx

    return _row_blocked(block, x, -1, op.gelu_approx)


@dataclass
class LutGelu:
    """Element-wise GELU through a scalar approximator.

    ``clip_range`` bounds the table input to its training range; outside it
    GELU is effectively linear/zero and the outer LUT segments extrapolate,
    but clipping to the trained range is what the fixed-width hardware
    comparator does, so we model it explicitly.
    """

    gelu_approx: ScalarApproximator
    clip_range: tuple[float, float] | None = (-5.0, 5.0)

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return _gelu_forward(self, _as_float(x))


@dataclass
class ExactGelu:
    """Exact GELU with the same call signature as :class:`LutGelu`."""

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return functions.gelu(x)


# --------------------------------------------------------------------------- #
# Softmax
# --------------------------------------------------------------------------- #
def _softmax_forward(op: "LutSoftmax", x: np.ndarray, axis: int) -> np.ndarray:
    """Reference Softmax composite body (``x`` already a float array).

    Run per row block (:func:`_row_blocked`): a row's max, sum and final
    scale all see the block in L2.
    """
    if axis == x.ndim - 1:
        axis = -1  # the spelling _row_blocked's (rows, cols) blocks can use

    def block(x: np.ndarray, out: np.ndarray | None, counted: bool) -> np.ndarray:
        shifted = np.subtract(x, np.max(x, axis=axis, keepdims=True), out=out)
        np.clip(shifted, op.exp_clip, 0.0, out=shifted)
        # exp -> row sum -> reciprocal as one fused chain: the exp look-up
        # lands back in the ``shifted`` buffer and the reciprocal look-up in
        # the row-sum buffer.
        exps, inv = evaluate_many(
            [
                (op.exp_approx, shifted, shifted),
                (op.reciprocal_approx, lambda done: op._denominator(done[0], axis), None),
            ],
            counted,
        )
        np.maximum(inv, 0.0, out=inv)
        return np.multiply(exps, inv, out=exps)

    return _row_blocked(block, x, axis, op.exp_approx, op.reciprocal_approx)


@dataclass
class LutSoftmax:
    """Softmax whose transcendental steps go through scalar approximators.

    Parameters
    ----------
    exp_approx:
        Approximator of ``exp`` on the max-subtracted logits.  The paper's
        training range is (-256, 0): after subtracting the row max every
        input is non-positive.
    reciprocal_approx:
        Approximator of ``1/x`` applied to the row sum of exponentials, which
        lies in ``[1, row_length]`` — the paper's (1, 1024) range covers
        sequence lengths up to 1024.
    exp_clip:
        Lower clip applied before the exp table (the table saturates below its
        training range anyway; exp of anything below -256 is zero at FP32).
    """

    exp_approx: ScalarApproximator
    reciprocal_approx: ScalarApproximator
    exp_clip: float = -256.0
    axis: int = -1

    def _denominator(self, exps: np.ndarray, axis: int) -> np.ndarray:
        # The exp table can produce tiny negative values near its right edge;
        # a probability mass must stay non-negative.
        np.maximum(exps, 0.0, out=exps)
        denom = np.sum(exps, axis=axis, keepdims=True)
        np.maximum(denom, 1e-12, out=denom)
        return denom

    def __call__(self, x: np.ndarray, axis: int | None = None) -> np.ndarray:
        axis = self.axis if axis is None else axis
        return _softmax_forward(self, _as_float(x), axis)


@dataclass
class ExactSoftmax:
    """Exact Softmax with the same call signature as :class:`LutSoftmax`."""

    axis: int = -1

    def __call__(self, x: np.ndarray, axis: int | None = None) -> np.ndarray:
        return functions.softmax(x, axis=self.axis if axis is None else axis)


# --------------------------------------------------------------------------- #
# LayerNorm
# --------------------------------------------------------------------------- #
def _layernorm_forward(
    op: "LutLayerNorm",
    x: np.ndarray,
    gamma: np.ndarray | None,
    beta: np.ndarray | None,
    axis: int,
    normalize: Callable[..., np.ndarray] | None = None,
) -> np.ndarray:
    """Reference LayerNorm composite body (``x`` already a float array).

    ``normalize`` lets a compute kernel substitute the per-element
    centre/scale/affine tail (``(centered * inv_std) * gamma + beta``); the
    exact mean/variance reductions and the rsqrt look-up stay in numpy so
    every kernel sees bit-identical statistics.
    """
    mean = np.mean(x, axis=axis, keepdims=True)
    centered = x - mean
    var = np.mean(np.square(centered), axis=axis, keepdims=True)
    var += op.eps
    inv_std = op._rsqrt(var)
    if normalize is not None:
        return normalize(centered, inv_std, gamma, beta)
    normalised = np.multiply(centered, inv_std, out=centered)
    if gamma is not None:
        normalised *= gamma
    if beta is not None:
        normalised += beta
    return normalised


@dataclass
class LutLayerNorm:
    """LayerNorm whose ``1/sqrt`` goes through a scalar approximator.

    Mean and variance are exact reductions (the MAC array handles them); only
    the inverse square root of the variance is approximated.  ``scaler``
    enables the paper's Sec.-3.3.2 input scaling for variances below one.
    """

    rsqrt_approx: ScalarApproximator
    scaler: InputScaler | None = None
    eps: float = 1e-5
    axis: int = -1
    clip_max: float | None = 1024.0

    def _rsqrt(self, variance: np.ndarray) -> np.ndarray:
        """Inverse square root of a variance buffer the caller owns."""
        variance = _as_float(variance)
        if self.clip_max is not None:
            np.minimum(variance, self.clip_max, out=variance)
        if self.scaler is None:
            (inv,) = evaluate_many([(self.rsqrt_approx, variance, variance)])
            return inv
        return self.scaler.apply(variance, self.rsqrt_approx)

    def __call__(
        self,
        x: np.ndarray,
        gamma: np.ndarray | None = None,
        beta: np.ndarray | None = None,
        axis: int | None = None,
    ) -> np.ndarray:
        axis = self.axis if axis is None else axis
        return _layernorm_forward(self, _as_float(x), gamma, beta, axis)


@dataclass
class ExactLayerNorm:
    """Exact LayerNorm with the same call signature as :class:`LutLayerNorm`."""

    eps: float = 1e-5
    axis: int = -1

    def __call__(
        self,
        x: np.ndarray,
        gamma: np.ndarray | None = None,
        beta: np.ndarray | None = None,
        axis: int | None = None,
    ) -> np.ndarray:
        return functions.layer_norm(
            x, gamma=gamma, beta=beta, axis=self.axis if axis is None else axis, eps=self.eps
        )
