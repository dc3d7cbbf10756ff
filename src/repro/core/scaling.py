"""Input scaling for wide-range approximation (paper Sec. 3.3.2).

The ``1/sqrt`` primitive inside LayerNorm has a very steep output for inputs
below one (small activation variance), which a small ReLU network cannot fit
together with the shallow tail up to 1024.  The paper's fix:

1. train the LUT only on the well-behaved range ``[1, K]`` (``K >> 1``),
2. at inference, when the input falls below one, multiply it by a large
   power-of-two constant ``S`` (a bit-shift in hardware) so it lands in
   ``[1, K]``, look up the table, and multiply the result by ``sqrt(S)``
   (a constant multiply), since ``1/sqrt(x) = sqrt(S) * 1/sqrt(S * x)``.

:class:`InputScaler` implements the dispatch: :meth:`InputScaler.queries` is
where the table is read (``repro.core.approximators.LutLayerNorm`` and the
calibration of its table both go through it), and :meth:`InputScaler.apply`
reads the table through the fused ``evaluate(x, out=None)`` every scalar
table exposes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .approximators import ScalarApproximator

__all__ = ["InputScaler"]


@dataclass(frozen=True)
class InputScaler:
    """Power-of-two input scaling for ``1/sqrt`` style functions.

    Parameters
    ----------
    scale_bits:
        ``S = 2 ** scale_bits``; the paper suggests ``S = 2^10``.
    threshold:
        Inputs below this threshold are scaled up before the table look-up.
    """

    scale_bits: int = 10
    threshold: float = 1.0

    def __post_init__(self) -> None:
        if self.scale_bits < 0:
            raise ValueError("scale_bits must be non-negative")
        if self.threshold <= 0:
            raise ValueError("threshold must be positive")

    @property
    def scale(self) -> float:
        """The multiplicative input scale ``S`` (a power of two)."""
        return float(2**self.scale_bits)

    @property
    def output_scale(self) -> float:
        """Output correction factor ``sqrt(S)``."""
        return float(np.sqrt(self.scale))

    def queries(self, x: np.ndarray) -> np.ndarray:
        """Where the table is read for ``x``: ``S * x`` below the threshold, else ``x``.

        A new array of the input's floating dtype (anything else is promoted
        to float64).
        """
        x = np.asarray(x)
        if x.dtype not in (np.float32, np.float64):
            x = x.astype(np.float64)
        return np.where(x < self.threshold, x * self.scale, x)

    def apply(self, x: np.ndarray, rsqrt_approx: "ScalarApproximator") -> np.ndarray:
        """Evaluate ``1/sqrt(x)`` through the table ``rsqrt_approx`` with scaling.

        Elements ``x < threshold`` are evaluated as
        ``sqrt(S) * rsqrt_approx(S * x)``; the rest go straight through.

        The input's floating dtype is preserved (anything else is promoted
        to float64), and the table's ``evaluate`` writes its output into the
        :meth:`queries` buffer.
        """
        queries = self.queries(x)
        raw = rsqrt_approx.evaluate(queries, out=queries)
        np.multiply(raw, self.output_scale, out=raw, where=np.asarray(x) < self.threshold)
        return raw
