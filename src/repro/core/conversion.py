"""Exact transformation of a trained ReLU network into a look-up table.

This is the core contribution of the paper (Sec. 3.2, Eq. 5-7): a
one-hidden-layer ReLU network is piecewise linear with kinks at
``d_i = -b_i / n_i``, so on every interval between consecutive kinks it equals
``s_i x + t_i`` for constants that depend only on which neurons are active in
that interval.  The transformation is exact — NN(x) == LUT(x) for every x —
which the test-suite verifies property-based.

Two implementations are provided:

* :func:`network_to_lut` — robust extraction: sort the kinks, evaluate the
  active-neuron mask at each interval midpoint and accumulate
  ``s_i = sum_j m_j n_j`` and ``t_i = sum_j m_j b_j + c`` over active neurons.
  This is algebraically identical to the paper's Eq. (7) but does not rely on
  the sign bookkeeping of Eq. (6), so it also handles degenerate neurons
  (``n_i == 0``) and duplicate breakpoints gracefully.
* :func:`network_to_lut_eq7` — a literal transcription of Eq. (6)/(7) used to
  cross-check the robust version in the tests.
"""

from __future__ import annotations

import numpy as np

from .lut import LookupTable
from .network import OneHiddenReluNet

__all__ = ["network_to_lut", "network_to_lut_eq7", "lut_matches_network"]


def _interval_probes(breakpoints: np.ndarray) -> np.ndarray:
    """Return one representative x inside each of the ``len(bp)+1`` intervals."""
    if breakpoints.size == 0:
        return np.array([0.0])
    # Width used for the two unbounded outer intervals and for spacing probes
    # away from the breakpoints themselves.
    if breakpoints.size > 1:
        span = float(breakpoints[-1] - breakpoints[0])
        pad = max(span, 1.0)
    else:
        pad = max(abs(float(breakpoints[0])), 1.0)
    inner = (breakpoints[:-1] + breakpoints[1:]) / 2.0 if breakpoints.size > 1 else np.array([])
    return np.concatenate(
        ([breakpoints[0] - pad], inner, [breakpoints[-1] + pad])
    )


def network_to_lut(network: OneHiddenReluNet, name: str = "") -> LookupTable:
    """Convert a trained ReLU network into its exactly-equivalent LUT.

    Parameters
    ----------
    network:
        Trained :class:`OneHiddenReluNet`.
    name:
        Optional tag stored on the resulting :class:`LookupTable`.

    Returns
    -------
    LookupTable
        Table with one segment per kink interval.  For a network of ``H``
        hidden neurons with distinct non-degenerate kinks this has ``H + 1``
        entries — the paper's ``N``-entry table from ``N - 1`` neurons.
    """
    n = network.first_weight
    b = network.first_bias
    m = network.second_weight
    c = network.output_bias

    nonzero = np.abs(n) > 1e-12
    kinks = np.unique(-b[nonzero] / n[nonzero])

    probes = _interval_probes(kinks)
    # Active mask per probe: neuron j contributes on this interval iff
    # n_j * x + b_j > 0 there (constant within the interval).  Degenerate
    # neurons (n_j == 0) are handled separately below, so they are excluded
    # from the masked sums.
    n_active, b_active, m_active = n[nonzero], b[nonzero], m[nonzero]
    active = (probes[:, None] * n_active + b_active) > 0.0

    slopes = active @ (m_active * n_active)
    intercepts = active @ (m_active * b_active) + c
    # Degenerate neurons contribute a constant m_j * relu(b_j) on every segment.
    degenerate = ~nonzero
    if np.any(degenerate):
        intercepts = intercepts + np.sum(m[degenerate] * np.maximum(b[degenerate], 0.0))

    return LookupTable(
        breakpoints=kinks,
        slopes=slopes,
        intercepts=intercepts,
        name=name,
        metadata={"source": "network_to_lut", "hidden_size": network.hidden_size},
    )


def network_to_lut_eq7(network: OneHiddenReluNet, name: str = "") -> LookupTable:
    """Literal transcription of the paper's Eq. (6)/(7).

    Requires every hidden neuron to have a non-zero input weight (the paper's
    implicit assumption).  Intended for cross-checking :func:`network_to_lut`;
    production code should prefer the robust version.
    """
    n = network.first_weight
    b = network.first_bias
    m = network.second_weight
    c = network.output_bias
    if np.any(np.abs(n) <= 1e-12):
        raise ValueError("Eq. 7 form requires all hidden weights n_i to be non-zero")

    order = np.argsort(-b / n)
    n, b, m = n[order], b[order], m[order]
    breakpoints = -b / n
    num_segments = n.size + 1

    slopes = np.empty(num_segments)
    intercepts = np.empty(num_segments)
    for segment in range(num_segments):
        # Segment `segment` lies between breakpoints[segment-1] and
        # breakpoints[segment]; neuron j (kink index j) is "to the left" when
        # j < segment.  Eq. (6): left neurons are active iff n_j >= 0, right
        # neurons are active iff n_j < 0.
        left = np.arange(n.size) < segment
        active = np.where(left, n >= 0.0, n < 0.0)
        slopes[segment] = np.sum(m[active] * n[active])
        intercepts[segment] = np.sum(m[active] * b[active]) + c

    return LookupTable(
        breakpoints=breakpoints,
        slopes=slopes,
        intercepts=intercepts,
        name=name,
        metadata={"source": "network_to_lut_eq7", "hidden_size": network.hidden_size},
    )


def lut_matches_network(
    network: OneHiddenReluNet,
    lut: LookupTable,
    input_range: tuple[float, float],
    num_points: int = 4096,
    tolerance: float = 1e-8,
) -> bool:
    """Check NN(x) == LUT(x) on a dense grid spanning ``input_range``.

    The grid is padded by 10% on each side so the unbounded outer segments are
    exercised too.
    """
    low, high = float(input_range[0]), float(input_range[1])
    pad = 0.1 * (high - low)
    grid = np.linspace(low - pad, high + pad, num_points)
    max_diff = float(np.max(np.abs(network.forward(grid) - lut(grid))))
    scale = max(1.0, float(np.max(np.abs(network.forward(grid)))))
    return max_diff <= tolerance * scale
