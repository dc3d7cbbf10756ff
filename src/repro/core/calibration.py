"""Dataset-free calibration of NN-LUT parameters (paper Sec. 3.3.3).

When the offline-trained LUT ("direct approximation") loses accuracy on a
specific downstream model — because the activation distribution seen by an
operator site differs from the generic Table-1 training range — the paper
re-fits each NN-LUT against its full-precision reference function using a
small set of *unlabelled* activations collected from the model, with all
Transformer parameters frozen.  The re-fitted network is then re-converted to
a LUT (Eq. 7) for inference.

This module implements exactly that loop:

* :func:`collect_activation_samples` — run a model forward over unlabelled
  inputs while recording what actually flows into each non-linear operator
  site (the Transformer substrate exposes recording hooks).
* :func:`calibrate_network` — re-fit an existing network on the recorded
  samples against the exact reference function, with the closed-form solve
  of ``repro.core.training``: knots where curvature times sample density
  asks for them, output layer solved on the samples.
* :func:`calibrate_lut` — end-to-end helper returning the refreshed LUT.
"""

from __future__ import annotations

from typing import Callable, Iterable, List

import numpy as np

from .conversion import network_to_lut
from .lut import LookupTable
from .network import OneHiddenReluNet
from .training import (
    _denormalize_network,
    _least_squares_output_layer,
    _normalisation,
    curvature_anchors,
)

__all__ = [
    "collect_activation_samples",
    "calibrate_network",
    "calibrate_lut",
]


#: A larger sample is subsampled (seed 0) to this many points.
_MAX_SAMPLES = 200_000


def collect_activation_samples(
    run_model: Callable[[], Iterable[np.ndarray]],
    max_samples: int = _MAX_SAMPLES,
    seed: int = 0,
) -> np.ndarray:
    """Gather a flat sample of operator-site inputs.

    Parameters
    ----------
    run_model:
        A zero-argument callable that performs forward passes and yields the
        arrays that reached the operator site of interest (the Transformer
        substrate's recording hooks produce exactly this).
    max_samples:
        Reservoir size; inputs beyond it are subsampled uniformly so the
        calibration cost stays bounded regardless of model size.
    """
    rng = np.random.default_rng(seed)
    chunks: List[np.ndarray] = []
    total = 0
    for array in run_model():
        flat = np.asarray(array, dtype=np.float64).ravel()
        chunks.append(flat)
        total += flat.size
    if total == 0:
        raise ValueError("run_model produced no activation samples")
    samples = np.concatenate(chunks)
    if samples.size > max_samples:
        idx = rng.choice(samples.size, size=max_samples, replace=False)
        samples = samples[idx]
    return samples


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
    comparison, as in Table 2(b) of the paper.  Samples that hold a single
    value span no range to place knots in: the copy is then uncalibrated.
    """
    samples = np.asarray(samples, dtype=np.float64).ravel()
    if samples.size == 0:
        raise ValueError("samples must be non-empty")
    if samples.size > _MAX_SAMPLES:
        rng = np.random.default_rng(0)
        samples = samples[rng.choice(samples.size, size=_MAX_SAMPLES, replace=False)]
    if not np.max(samples) > np.min(samples):
        return network.copy()

    targets = np.asarray(reference(samples), dtype=np.float64)
    center, half_width, target_scale = _normalisation(samples, targets)
    x_norm = (samples - center) / half_width
    y_norm = targets / target_scale

    # The network in the normalised units of the solve.
    initial = network.copy()
    initial.params.first_weight = network.params.first_weight * half_width
    initial.params.first_bias = network.params.first_bias + network.params.first_weight * center
    initial.params.second_weight = network.params.second_weight / target_scale
    initial.params.output_bias = network.params.output_bias / target_scale

    def normalised_reference(z: np.ndarray) -> np.ndarray:
        return np.asarray(reference(z * half_width + center), dtype=np.float64) / target_scale

    # One knot sits at the end of the span where the hinges open, which frees
    # the table's slope across the span; the others go where curvature times
    # sample density asks for them.
    direction = -1.0 if np.all(network.params.first_weight < 0) else 1.0
    inner = (
        curvature_anchors(
            normalised_reference, (-1.0, 1.0), network.hidden_size - 1,
            sample_weights=(x_norm, np.ones_like(x_norm)),
        )
        if network.hidden_size > 1
        else np.empty(0)
    )
    anchors = np.append(inner, 1.0) if direction < 0 else np.insert(inner, 0, -1.0)
    calibrated = network.copy()
    calibrated.params.first_weight = np.full(network.hidden_size, direction)
    calibrated.params.first_bias = -direction * anchors
    _least_squares_output_layer(calibrated, x_norm, y_norm)

    def normalised_l1(candidate: OneHiddenReluNet) -> float:
        return float(np.mean(np.abs(candidate.forward(x_norm) - y_norm)))

    if normalised_l1(calibrated) > normalised_l1(initial):
        calibrated = initial
    _denormalize_network(calibrated, center, half_width, target_scale)
    return calibrated


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
