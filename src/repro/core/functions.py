"""Reference implementations of the non-linear operations targeted by NN-LUT.

The paper (Sec. 2.1) identifies three Transformer non-linearities — GELU,
Softmax and LayerNorm — and decomposes them into four scalar primitives that
the approximation networks are actually trained on (Table 1):

==============  =======================  ==========================
Non-linear op   Scalar primitive         Training input range
==============  =======================  ==========================
GELU            ``gelu(x)``              (-5, 5)
Softmax         ``exp(x)``               (-256, 0)
Softmax         ``1/x`` (divide)         (1, 1024)
LayerNorm       ``1/sqrt(x)``            (0.1, 1024)
==============  =======================  ==========================

Everything here is the exact (FP64/FP32) reference used both as the training
target for the approximators and as the "baseline" non-linear backend of the
Transformer substrate.
"""

from __future__ import annotations

from typing import Callable, Dict, Tuple

import numpy as np

__all__ = [
    "erf",
    "gelu",
    "exp",
    "reciprocal",
    "rsqrt",
    "softmax",
    "layer_norm",
    "TARGET_FUNCTIONS",
    "TRAINING_RANGES",
    "get_target_function",
    "get_training_range",
]


def erf(x: np.ndarray) -> np.ndarray:
    """Gauss error function, ``erf(x) = 2/sqrt(pi) * int_0^x exp(-t^2) dt``.

    scipy is imported here, not at module level: only fit targets,
    calibration and oracles call the exact ``erf``, so a process that serves
    loaded tables never pays for importing it.
    """
    from scipy import special

    return special.erf(np.asarray(x, dtype=np.float64))


def gelu(x: np.ndarray) -> np.ndarray:
    """Exact GELU activation, Eq. (1) of the paper.

    ``GELU(x) = x/2 * (1 + erf(x / sqrt(2)))``
    """
    x = np.asarray(x, dtype=np.float64)
    return 0.5 * x * (1.0 + erf(x / np.sqrt(2.0)))


def exp(x: np.ndarray) -> np.ndarray:
    """Exponential primitive used inside Softmax."""
    return np.exp(np.asarray(x, dtype=np.float64))


def reciprocal(x: np.ndarray) -> np.ndarray:
    """Division primitive ``1/x`` used to normalise Softmax."""
    return 1.0 / np.asarray(x, dtype=np.float64)


def rsqrt(x: np.ndarray) -> np.ndarray:
    """Inverse square root ``1/sqrt(x)`` used inside LayerNorm."""
    return 1.0 / np.sqrt(np.asarray(x, dtype=np.float64))


def softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically stable Softmax along ``axis``, Eq. (2) of the paper."""
    x = np.asarray(x, dtype=np.float64)
    shifted = x - np.max(x, axis=axis, keepdims=True)
    exps = np.exp(shifted)
    return exps / np.sum(exps, axis=axis, keepdims=True)


def layer_norm(
    x: np.ndarray,
    gamma: np.ndarray | None = None,
    beta: np.ndarray | None = None,
    axis: int = -1,
    eps: float = 1e-5,
) -> np.ndarray:
    """LayerNorm along ``axis``, Eq. (3) of the paper, with optional affine."""
    x = np.asarray(x, dtype=np.float64)
    mean = np.mean(x, axis=axis, keepdims=True)
    var = np.mean((x - mean) ** 2, axis=axis, keepdims=True)
    normalised = (x - mean) / np.sqrt(var + eps)
    if gamma is not None:
        normalised = normalised * gamma
    if beta is not None:
        normalised = normalised + beta
    return normalised


#: Scalar primitives that NN-LUT networks are trained on (paper Table 1).
TARGET_FUNCTIONS: Dict[str, Callable[[np.ndarray], np.ndarray]] = {
    "gelu": gelu,
    "exp": exp,
    "reciprocal": reciprocal,
    "rsqrt": rsqrt,
    "erf": erf,
}

#: Input data ranges for the training datasets (paper Table 1).
TRAINING_RANGES: Dict[str, Tuple[float, float]] = {
    "gelu": (-5.0, 5.0),
    "exp": (-256.0, 0.0),
    "reciprocal": (1.0, 1024.0),
    "rsqrt": (0.1, 1024.0),
    "erf": (-4.0, 4.0),
}


def get_target_function(name: str) -> Callable[[np.ndarray], np.ndarray]:
    """Look up a scalar primitive by name, raising a clear error if unknown."""
    try:
        return TARGET_FUNCTIONS[name]
    except KeyError as exc:
        known = ", ".join(sorted(TARGET_FUNCTIONS))
        raise KeyError(f"Unknown target function {name!r}; known: {known}") from exc


def get_training_range(name: str) -> Tuple[float, float]:
    """Return the Table-1 training input range for a scalar primitive."""
    try:
        return TRAINING_RANGES[name]
    except KeyError as exc:
        known = ", ".join(sorted(TRAINING_RANGES))
        raise KeyError(f"Unknown target function {name!r}; known: {known}") from exc
