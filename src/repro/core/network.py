"""One-hidden-layer ReLU network used as the NN-LUT universal approximator.

Section 3.2 of the paper: a network of ``N - 1`` hidden ReLU neurons

    NN(x) = sum_i  m_i * relu(n_i * x + b_i)  + c

is piecewise linear in ``x`` with kinks exactly at ``x = -b_i / n_i``, so it
can be transformed into an ``N``-entry first-order look-up table (Eq. 7).

The paper's Eq. (5) omits the output bias ``c``; we keep it as an optional
parameter (enabled by default) because it strictly increases approximation
capacity and drops out of the LUT transform as a constant added to every
intercept.  Setting ``output_bias=False`` reproduces the paper's exact form.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

import numpy as np

__all__ = ["NetworkParameters", "OneHiddenReluNet"]


@dataclass
class NetworkParameters:
    """Raw parameters of a one-hidden-layer ReLU network.

    Attributes
    ----------
    first_weight:
        Hidden-layer weights ``n_i`` (shape ``(H,)``).
    first_bias:
        Hidden-layer biases ``b_i`` (shape ``(H,)``).
    second_weight:
        Output-layer weights ``m_i`` (shape ``(H,)``).
    output_bias:
        Scalar output bias ``c`` (always stored; kept at 0 when disabled).
    """

    first_weight: np.ndarray
    first_bias: np.ndarray
    second_weight: np.ndarray
    output_bias: float = 0.0

    def __post_init__(self) -> None:
        self.first_weight = np.asarray(self.first_weight, dtype=np.float64).ravel()
        self.first_bias = np.asarray(self.first_bias, dtype=np.float64).ravel()
        self.second_weight = np.asarray(self.second_weight, dtype=np.float64).ravel()
        sizes = {
            self.first_weight.size,
            self.first_bias.size,
            self.second_weight.size,
        }
        if len(sizes) != 1:
            raise ValueError(
                "first_weight, first_bias and second_weight must have the same "
                f"length, got {self.first_weight.size}, {self.first_bias.size}, "
                f"{self.second_weight.size}"
            )
        self.output_bias = float(self.output_bias)

    @property
    def hidden_size(self) -> int:
        """Number of hidden neurons (``N - 1`` for an ``N``-entry LUT)."""
        return int(self.first_weight.size)

    def copy(self) -> "NetworkParameters":
        return NetworkParameters(
            first_weight=self.first_weight.copy(),
            first_bias=self.first_bias.copy(),
            second_weight=self.second_weight.copy(),
            output_bias=self.output_bias,
        )

    def as_dict(self) -> Dict[str, np.ndarray]:
        """Dict view keyed like :meth:`OneHiddenReluNet.gradients`."""
        return {
            "first_weight": self.first_weight,
            "first_bias": self.first_bias,
            "second_weight": self.second_weight,
            "output_bias": np.array([self.output_bias], dtype=np.float64),
        }


@dataclass
class OneHiddenReluNet:
    """One-hidden-layer ReLU network ``y = sum_i m_i relu(n_i x + b_i) + c``.

    The network operates on scalar inputs broadcast over arbitrary numpy array
    shapes.  It provides analytic gradients for L1/L2 losses, the paper's
    gradient-descent training; the closed-form fit
    (``repro.core.training.fit_network``) needs only the hidden activations.
    """

    params: NetworkParameters
    trainable_output_bias: bool = True

    # ------------------------------------------------------------------ #
    # Construction helpers
    # ------------------------------------------------------------------ #
    @classmethod
    def from_arrays(
        cls,
        first_weight: np.ndarray,
        first_bias: np.ndarray,
        second_weight: np.ndarray,
        output_bias: float = 0.0,
        trainable_output_bias: bool = True,
    ) -> "OneHiddenReluNet":
        params = NetworkParameters(
            first_weight=first_weight,
            first_bias=first_bias,
            second_weight=second_weight,
            output_bias=output_bias,
        )
        return cls(params=params, trainable_output_bias=trainable_output_bias)

    @property
    def hidden_size(self) -> int:
        return self.params.hidden_size

    # ------------------------------------------------------------------ #
    # Forward / backward
    # ------------------------------------------------------------------ #
    def hidden_preactivations(self, x: np.ndarray) -> np.ndarray:
        """Return ``n_i * x + b_i`` with shape ``x.shape + (H,)``."""
        x = np.asarray(x, dtype=np.float64)
        return x[..., None] * self.params.first_weight + self.params.first_bias

    def hidden_activations(self, x: np.ndarray) -> np.ndarray:
        """Return ``relu(n_i * x + b_i)`` with shape ``x.shape + (H,)``."""
        return np.maximum(self.hidden_preactivations(x), 0.0)

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Evaluate the network; output shape matches ``x``."""
        hidden = self.hidden_activations(x)
        return hidden @ self.params.second_weight + self.params.output_bias

    __call__ = forward

    def gradients(self, x: np.ndarray, grad_output: np.ndarray) -> Dict[str, np.ndarray]:
        """Backpropagate ``grad_output`` (dL/dy, same shape as ``x``).

        Returns gradients for every entry of :meth:`NetworkParameters.as_dict`.
        """
        x = np.asarray(x, dtype=np.float64)
        grad_output = np.asarray(grad_output, dtype=np.float64)
        if grad_output.shape != x.shape:
            raise ValueError(
                f"grad_output shape {grad_output.shape} must match input shape {x.shape}"
            )
        pre = self.hidden_preactivations(x)
        active = pre > 0.0
        hidden = np.where(active, pre, 0.0)

        flat_x = x.reshape(-1)
        flat_go = grad_output.reshape(-1)
        flat_hidden = hidden.reshape(-1, self.hidden_size)
        flat_active = active.reshape(-1, self.hidden_size)

        grad_second = flat_go @ flat_hidden
        # dL/dhidden_i = go * m_i, masked by the ReLU derivative.
        upstream = flat_go[:, None] * self.params.second_weight * flat_active
        grad_first_w = upstream.T @ flat_x
        grad_first_b = upstream.sum(axis=0)
        grad_out_bias = flat_go.sum() if self.trainable_output_bias else 0.0
        return {
            "first_weight": grad_first_w,
            "first_bias": grad_first_b,
            "second_weight": grad_second,
            "output_bias": np.array([grad_out_bias], dtype=np.float64),
        }

    # ------------------------------------------------------------------ #
    # Breakpoint geometry (used by the LUT conversion)
    # ------------------------------------------------------------------ #
    def breakpoints(self) -> np.ndarray:
        """Kink locations ``-b_i / n_i`` for neurons with non-zero slope.

        Neurons whose input weight ``n_i`` is (numerically) zero contribute a
        constant to the output and do not create a kink; they are skipped.
        """
        n = self.params.first_weight
        b = self.params.first_bias
        nonzero = np.abs(n) > 1e-12
        return np.sort(-b[nonzero] / n[nonzero])

    def copy(self) -> "OneHiddenReluNet":
        return OneHiddenReluNet(
            params=self.params.copy(),
            trainable_output_bias=self.trainable_output_bias,
        )
