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
* :func:`calibrate_network` — continue Adam training of an existing network on
  the recorded samples against the exact reference function.
* :func:`calibrate_lut` — end-to-end helper returning the refreshed LUT.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, List

import numpy as np

from .conversion import network_to_lut
from .lut import LookupTable
from .network import OneHiddenReluNet
from .training import _denormalize_network, _least_squares_output_layer, train_adam

__all__ = [
    "CalibrationConfig",
    "collect_activation_samples",
    "calibrate_network",
    "calibrate_lut",
]


#: The calibration recipe.  The paper reports five epochs over one-tenth of
#: the (unlabelled) training set, costing less than 5% of a fine-tuning run;
#: a larger sample is subsampled (seed 0) to ``_MAX_SAMPLES`` points.
_EPOCHS = 5
_BATCH_SIZE = 4096
_MAX_SAMPLES = 200_000


@dataclass
class CalibrationConfig:
    """The one tunable of the calibration pass; the rest is the fixed
    recipe above."""

    learning_rate: float = 5e-4


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
    config: CalibrationConfig | None = None,
) -> OneHiddenReluNet:
    """Continue training ``network`` on measured ``samples`` against ``reference``.

    Returns a calibrated copy; the input network is left untouched so the
    uncalibrated ("direct approximation") variant stays available for
    comparison, as in Table 2(b) of the paper.
    """
    config = config or CalibrationConfig()
    samples = np.asarray(samples, dtype=np.float64).ravel()
    if samples.size == 0:
        raise ValueError("samples must be non-empty")
    rng = np.random.default_rng(0)
    if samples.size > _MAX_SAMPLES:
        idx = rng.choice(samples.size, size=_MAX_SAMPLES, replace=False)
        samples = samples[idx]

    targets = np.asarray(reference(samples), dtype=np.float64)
    target_scale = float(np.max(np.abs(targets)))
    target_scale = target_scale if target_scale > 0 else 1.0

    # Re-normalise the problem exactly as the original fit did: the network's
    # parameters in raw input units span orders of magnitude, and a uniform
    # Adam step in that space destroys the fit instead of refining it.
    low, high = float(np.min(samples)), float(np.max(samples))
    half_width = max((high - low) / 2.0, 1e-9)
    center = (high + low) / 2.0
    x_norm = (samples - center) / half_width
    y_norm = targets / target_scale

    calibrated = network.copy()
    calibrated.params.first_weight = network.params.first_weight * half_width
    calibrated.params.first_bias = (
        network.params.first_bias + network.params.first_weight * center
    )
    calibrated.params.second_weight = network.params.second_weight / target_scale
    calibrated.params.output_bias = network.params.output_bias / target_scale

    def _normalised_l1(candidate: OneHiddenReluNet) -> float:
        return float(np.mean(np.abs(candidate.forward(x_norm) - y_norm)))

    initial = calibrated.copy()
    initial_loss = _normalised_l1(initial)
    train_adam(
        calibrated, x_norm, y_norm, rng, [1.0] * _EPOCHS, _BATCH_SIZE,
        config.learning_rate,
    )

    # Closed-form refit of the output layer on the measured distribution, and
    # a guard that calibration never ends up worse than where it started.
    refit = calibrated.copy()
    _least_squares_output_layer(refit, x_norm, y_norm)
    if _normalised_l1(refit) < _normalised_l1(calibrated):
        calibrated = refit
    if _normalised_l1(calibrated) > initial_loss:
        calibrated = initial

    _denormalize_network(calibrated, center, half_width, target_scale)
    return calibrated


def calibrate_lut(
    network: OneHiddenReluNet,
    reference: Callable[[np.ndarray], np.ndarray],
    samples: np.ndarray,
    config: CalibrationConfig | None = None,
    name: str = "",
) -> LookupTable:
    """Calibrate ``network`` on ``samples`` and convert the result to a LUT."""
    calibrated = calibrate_network(network, reference, samples, config)
    lut = network_to_lut(calibrated, name=name)
    return lut.with_metadata(calibrated=True, num_calibration_samples=int(np.asarray(samples).size))
