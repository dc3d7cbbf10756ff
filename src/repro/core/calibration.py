"""Dataset-free calibration of NN-LUT parameters (paper Sec. 3.3.3).

When the offline-trained LUT ("direct approximation") loses accuracy on a
specific downstream model — because the activation distribution seen by an
operator site differs from the generic Table-1 training range — the paper
re-fits each NN-LUT against its full-precision reference function using a
small set of *unlabelled* activations collected from the model, with all
Transformer parameters frozen.  The re-fitted network is then re-converted to
a LUT (Eq. 7) for inference.

This module implements exactly that loop (the Transformer substrate's
recording hooks collect the samples, ``repro.api`` maps them to each
primitive's query points):

* :func:`calibrate_network` — re-fit an existing network on the recorded
  samples against the exact reference function, with the closed-form solve
  of ``repro.core.training``: knots where curvature times sample density
  asks for them, output layer solved on the samples.
* :func:`calibrate_lut` — end-to-end helper returning the refreshed LUT.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .conversion import network_to_lut
from .lut import LookupTable
from .network import OneHiddenReluNet
from .training import _solve_network, curvature_anchors

__all__ = [
    "calibrate_network",
    "calibrate_lut",
]


#: A larger sample is subsampled (seed 0) to this many points.
_MAX_SAMPLES = 200_000


def calibrate_network(
    network: OneHiddenReluNet,
    reference: Callable[[np.ndarray], np.ndarray],
    samples: np.ndarray,
) -> OneHiddenReluNet:
    """Re-fit ``network`` on measured ``samples`` against ``reference``.

    The hinges open one way (towards -x when every hinge of ``network``
    does, as for 1/x and 1/sqrt, else towards +x).  One knot moves to the end
    of the samples' span they open from, the others to the quantiles of
    ``|f''|^(1/3)`` times the samples' density over it, and the output layer
    is solved on the samples.  The result is kept only when its
    mean absolute error on the samples is no worse than ``network``'s.

    Returns a calibrated copy; the input network is left untouched so the
    uncalibrated ("direct approximation") variant stays available for
    comparison, as in Table 2(b) of the paper.  When ``network`` is kept —
    it wins the comparison, or the samples hold a single value and so span
    no range to place knots in — the copy has its bits.
    """
    samples = np.asarray(samples, dtype=np.float64).ravel()
    if samples.size == 0:
        raise ValueError("samples must be non-empty")
    if samples.size > _MAX_SAMPLES:
        rng = np.random.default_rng(0)
        samples = samples[rng.choice(samples.size, size=_MAX_SAMPLES, replace=False)]
    if not np.max(samples) > np.min(samples):
        return network.copy()

    # One knot sits at the end of the span where the hinges open, which frees
    # the table's slope across the span; the others go where curvature times
    # sample density asks for them.
    direction = -1.0 if np.all(network.first_weight < 0) else 1.0

    def knots(normalised_reference, x_norm: np.ndarray) -> np.ndarray:
        inner = (
            curvature_anchors(
                normalised_reference, (-1.0, 1.0), network.hidden_size - 1,
                sample_weights=(x_norm, np.ones_like(x_norm)),
            )
            if network.hidden_size > 1
            else np.empty(0)
        )
        return np.append(inner, 1.0) if direction < 0 else np.insert(inner, 0, -1.0)

    targets = np.asarray(reference(samples), dtype=np.float64)
    calibrated = _solve_network(reference, samples, targets, knots, direction)

    def l1(candidate: OneHiddenReluNet) -> float:
        return float(np.mean(np.abs(candidate.forward(samples) - targets)))

    return network.copy() if l1(calibrated) > l1(network) else calibrated


def calibrate_lut(
    network: OneHiddenReluNet,
    reference: Callable[[np.ndarray], np.ndarray],
    samples: np.ndarray,
    name: str = "",
) -> LookupTable:
    """Calibrate ``network`` on ``samples`` and convert the result to a LUT."""
    calibrated = calibrate_network(network, reference, samples)
    lut = network_to_lut(calibrated, name=name)
    return lut.with_metadata(calibrated=True, num_calibration_samples=int(np.asarray(samples).size))
