"""I-BERT integer-only approximations of GELU, Softmax and LayerNorm.

The paper's main software and hardware comparison target is I-BERT
(Kim et al., ICML 2021), which replaces the transcendental parts of the
Transformer non-linearities with second-order polynomial / shift / Newton
iterations that can be evaluated in INT32 arithmetic.  This module implements
those algorithms from their published description:

* ``i_erf`` / ``i_gelu``  — Algorithm 2: erf approximated by the polynomial
  ``sign(x) * [a (min(|x|, -b) + b)^2 + 1]`` with ``a = -0.2888``,
  ``b = -1.769``; GELU assembled as ``x/2 (1 + i_erf(x / sqrt(2)))``.
* ``i_exp``  — Algorithm 3: range reduction ``x = p - z ln2`` with integer
  ``z`` and ``p ∈ (-ln2, 0]``, a second-order polynomial
  ``a (p + b)^2 + c`` with ``a = 0.3585, b = 1.353, c = 0.344``, and a final
  right-shift by ``z``.
* ``i_sqrt``  — Algorithm 4: integer Newton iteration for the square root.
* ``i_softmax`` / ``i_layernorm`` — compositions of the above.

Two views are provided:

* Float-simulated kernels (``i_gelu``, ``i_exp`` …) follow the exact
  computation sequence but keep float inputs/outputs; they are what the
  software-accuracy experiments use (I-BERT's own accuracy results are
  produced this way before the scaling factors are folded in).
* Integer-domain kernels (``int_exp``, ``integer_sqrt`` …) that
  operate on ``(int_tensor, scale_factor)`` pairs, demonstrating that the
  computation needs only integer arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

__all__ = [
    "ERF_COEFFICIENTS",
    "EXP_COEFFICIENTS",
    "i_erf",
    "i_gelu",
    "i_exp",
    "i_softmax",
    "i_sqrt",
    "i_layernorm",
    "int_poly",
    "int_exp",
    "integer_sqrt",
    "IBertGelu",
    "IBertSoftmax",
    "IBertLayerNorm",
]

#: (a, b, c) of the I-BERT erf polynomial  a (x + b)^2 + c  on [0, -b].
ERF_COEFFICIENTS: Tuple[float, float, float] = (-0.2888, -1.769, 1.0)

#: (a, b, c) of the I-BERT exp polynomial  a (x + b)^2 + c  on (-ln2, 0].
EXP_COEFFICIENTS: Tuple[float, float, float] = (0.3585, 1.353, 0.344)

_LN2 = float(np.log(2.0))


# --------------------------------------------------------------------------- #
# Float-simulated kernels (accuracy view)
# --------------------------------------------------------------------------- #
def i_erf(x: np.ndarray) -> np.ndarray:
    """I-BERT second-order polynomial approximation of erf."""
    x = np.asarray(x, dtype=np.float64)
    a, b, _ = ERF_COEFFICIENTS
    clipped = np.minimum(np.abs(x), -b)
    poly = a * (clipped + b) ** 2 + 1.0
    return np.sign(x) * poly


def i_gelu(x: np.ndarray) -> np.ndarray:
    """I-BERT GELU: ``x/2 * (1 + i_erf(x / sqrt(2)))``."""
    x = np.asarray(x, dtype=np.float64)
    return 0.5 * x * (1.0 + i_erf(x / np.sqrt(2.0)))


def i_exp(x: np.ndarray) -> np.ndarray:
    """I-BERT exp for non-positive inputs (range reduction + polynomial).

    Inputs are clipped to ``<= 0`` (as in Softmax after max subtraction) and
    to a floor of ``-30 ln2`` where the true exponential underflows anyway.
    """
    x = np.asarray(x, dtype=np.float64)
    x = np.clip(x, -30.0 * _LN2, 0.0)
    z = np.floor(-x / _LN2)
    p = x + z * _LN2
    a, b, c = EXP_COEFFICIENTS
    poly = a * (p + b) ** 2 + c
    return poly * (2.0 ** (-z))


def i_softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """I-BERT Softmax: max-subtract, i_exp, exact sum, divide."""
    x = np.asarray(x, dtype=np.float64)
    shifted = x - np.max(x, axis=axis, keepdims=True)
    exps = i_exp(shifted)
    return exps / np.sum(exps, axis=axis, keepdims=True)


def i_sqrt(x: np.ndarray, iterations: int = 4) -> np.ndarray:
    """Newton-iteration square root mirroring I-BERT's integer algorithm.

    ``iterations`` matches the handful of Newton steps I-BERT uses; the
    float simulation seeds the iteration with a power-of-two estimate of the
    magnitude, exactly as the integer version does with bit length.
    """
    x = np.asarray(x, dtype=np.float64)
    x = np.maximum(x, 0.0)
    # Seed: 2^(ceil(bits/2)) where bits is the position of the leading one.
    with np.errstate(divide="ignore"):
        bits = np.where(x > 0, np.ceil(np.log2(np.maximum(x, 1e-300))), 0.0)
    estimate = 2.0 ** np.ceil((bits + 1) / 2.0)
    for _ in range(iterations):
        safe = np.where(estimate > 0, estimate, 1.0)
        estimate = 0.5 * (safe + x / safe)
    return np.where(x > 0, estimate, 0.0)


def i_layernorm(
    x: np.ndarray,
    gamma: np.ndarray | None = None,
    beta: np.ndarray | None = None,
    axis: int = -1,
    eps: float = 1e-5,
    iterations: int = 4,
) -> np.ndarray:
    """I-BERT LayerNorm: exact mean/var, Newton square root, division."""
    x = np.asarray(x, dtype=np.float64)
    mean = np.mean(x, axis=axis, keepdims=True)
    var = np.mean((x - mean) ** 2, axis=axis, keepdims=True)
    std = i_sqrt(var + eps, iterations=iterations)
    normalised = (x - mean) / np.maximum(std, 1e-12)
    if gamma is not None:
        normalised = normalised * gamma
    if beta is not None:
        normalised = normalised + beta
    return normalised


# --------------------------------------------------------------------------- #
# Integer-domain kernels (hardware view)
# --------------------------------------------------------------------------- #
def int_poly(
    q: np.ndarray, scale: float, coefficients: Tuple[float, float, float]
) -> Tuple[np.ndarray, float]:
    """Evaluate ``a (x + b)^2 + c`` on integer inputs with scale factor.

    Following I-BERT: ``q_b = floor(b / scale)``, ``q_c = floor(c / (a scale^2))``
    so that ``(q + q_b)^2 + q_c`` carries scale factor ``a * scale^2``.
    """
    a, b, c = coefficients
    q = np.asarray(q, dtype=np.int64)
    q_b = int(np.floor(b / scale))
    out_scale = a * scale * scale
    q_c = int(np.floor(c / out_scale))
    q_out = (q + q_b) ** 2 + q_c
    return q_out, out_scale


def int_exp(q: np.ndarray, scale: float) -> Tuple[np.ndarray, float]:
    """Integer exp for non-positive inputs with right-shift range reduction."""
    q = np.asarray(q, dtype=np.int64)
    q_ln2 = int(np.floor(_LN2 / scale))
    q_ln2 = max(q_ln2, 1)
    q = np.maximum(q, -30 * q_ln2)
    z = (-q) // q_ln2
    q_p = q + z * q_ln2
    q_poly, out_scale = int_poly(q_p, scale, EXP_COEFFICIENTS)
    # Right shift by z: divide by 2^z in integer arithmetic.
    shifted = np.floor(q_poly / (2.0**z)).astype(np.int64)
    return shifted, out_scale


def integer_sqrt(n: np.ndarray, iterations: int = 40) -> np.ndarray:
    """Integer Newton square root (I-BERT Algorithm 4), returning floor(sqrt(n)).

    The iterate ``x_{k+1} = (x_k + n // x_k) // 2`` started from a power-of-two
    upper bound decreases monotonically until it reaches ``floor(sqrt(n))`` and
    then oscillates by one; keeping the running minimum yields the exact floor
    (the oscillation never undershoots it).
    """
    n = np.asarray(n, dtype=np.int64)
    if np.any(n < 0):
        raise ValueError("integer_sqrt requires non-negative inputs")
    result = np.zeros_like(n)
    positive = n > 0
    if not np.any(positive):
        return result
    values = n[positive].astype(np.float64)
    bits = np.floor(np.log2(values)) + 1
    estimate = np.power(2.0, np.ceil(bits / 2.0)).astype(np.int64)
    n_pos = n[positive]
    best = estimate.copy()
    for _ in range(iterations):
        estimate = (estimate + n_pos // np.maximum(estimate, 1)) // 2
        best = np.minimum(best, np.maximum(estimate, 1))
    result[positive] = best
    return result


# --------------------------------------------------------------------------- #
# Drop-in operator classes (same call signature as the LUT composites)
# --------------------------------------------------------------------------- #
@dataclass
class IBertGelu:
    """GELU evaluated with the I-BERT polynomial approximation."""

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return i_gelu(x)


@dataclass
class IBertSoftmax:
    """Softmax evaluated with the I-BERT integer-style exp approximation."""

    axis: int = -1

    def __call__(self, x: np.ndarray, axis: int | None = None) -> np.ndarray:
        return i_softmax(x, axis=self.axis if axis is None else axis)


@dataclass
class IBertLayerNorm:
    """LayerNorm evaluated with the I-BERT Newton-iteration square root."""

    eps: float = 1e-5
    axis: int = -1
    iterations: int = 4

    def __call__(
        self,
        x: np.ndarray,
        gamma: np.ndarray | None = None,
        beta: np.ndarray | None = None,
        axis: int | None = None,
    ) -> np.ndarray:
        return i_layernorm(
            x,
            gamma=gamma,
            beta=beta,
            axis=self.axis if axis is None else axis,
            eps=self.eps,
            iterations=self.iterations,
        )
