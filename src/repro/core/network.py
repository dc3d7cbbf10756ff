"""One-hidden-layer ReLU network used as the NN-LUT universal approximator.

Section 3.2 of the paper: a network of ``N - 1`` hidden ReLU neurons

    NN(x) = sum_i  m_i * relu(n_i * x + b_i)  + c

is piecewise linear in ``x`` with kinks exactly at ``x = -b_i / n_i``, so it
can be transformed into an ``N``-entry first-order look-up table (Eq. 7).

The paper's Eq. (5) omits the output bias ``c``; we keep it because it
strictly increases approximation capacity and drops out of the LUT transform
as a constant added to every intercept.  ``output_bias=0.0`` is the paper's
exact form.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["OneHiddenReluNet"]


@dataclass
class OneHiddenReluNet:
    """One-hidden-layer ReLU network ``y = sum_i m_i relu(n_i x + b_i) + c``.

    Attributes
    ----------
    first_weight:
        Hidden-layer weights ``n_i`` (shape ``(H,)``).
    first_bias:
        Hidden-layer biases ``b_i`` (shape ``(H,)``).
    second_weight:
        Output-layer weights ``m_i`` (shape ``(H,)``).
    output_bias:
        Scalar output bias ``c``.

    The network operates on scalar inputs broadcast over arbitrary numpy array
    shapes.  The closed-form fit (``repro.core.training``) needs only its
    hidden activations; the LUT conversion its breakpoints.
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

    # ------------------------------------------------------------------ #
    # Forward
    # ------------------------------------------------------------------ #
    def hidden_preactivations(self, x: np.ndarray) -> np.ndarray:
        """Return ``n_i * x + b_i`` with shape ``x.shape + (H,)``."""
        x = np.asarray(x, dtype=np.float64)
        return x[..., None] * self.first_weight + self.first_bias

    def hidden_activations(self, x: np.ndarray) -> np.ndarray:
        """Return ``relu(n_i * x + b_i)`` with shape ``x.shape + (H,)``."""
        return np.maximum(self.hidden_preactivations(x), 0.0)

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Evaluate the network; output shape matches ``x``."""
        hidden = self.hidden_activations(x)
        return hidden @ self.second_weight + self.output_bias

    __call__ = forward

    # ------------------------------------------------------------------ #
    # Breakpoint geometry (used by the LUT conversion)
    # ------------------------------------------------------------------ #
    def breakpoints(self) -> np.ndarray:
        """Kink locations ``-b_i / n_i`` for neurons with non-zero slope.

        Neurons whose input weight ``n_i`` is (numerically) zero contribute a
        constant to the output and do not create a kink; they are skipped.
        """
        n = self.first_weight
        b = self.first_bias
        nonzero = np.abs(n) > 1e-12
        return np.sort(-b[nonzero] / n[nonzero])

    def copy(self) -> "OneHiddenReluNet":
        return OneHiddenReluNet(
            first_weight=self.first_weight.copy(),
            first_bias=self.first_bias.copy(),
            second_weight=self.second_weight.copy(),
            output_bias=self.output_bias,
        )
