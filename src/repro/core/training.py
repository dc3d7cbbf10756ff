"""Closed-form fitting of NN-LUT approximation networks (paper Sec. 3.3.1).

The paper fits its one-hidden-layer ReLU net ``sum_i m_i relu(n_i x + b_i) + c``
with Adam on an L1 loss (Sec. 4.1) and converts it into a LUT (Eq. 7); the
conversion, not the optimiser, is the contribution.  Here a fit is one
deterministic solve instead:

* knots: the quantiles of the error-balancing density ``|f''|^(1/3)``
  (:func:`curvature_anchors`; ``|f''/f|^(1/3)`` for a relative fit),
* hidden layer: Table 1's weight sign as one fixed direction per primitive
  (:data:`_HINGE_DIRECTIONS`), magnitude 1 and bias ``-n * anchor``,
* output layer ``(m, c)``: one least-squares solve on a fixed grid over the
  Table-1 input range, weighted by ``1/f^2`` for a relative fit (1/x,
  1/sqrt).

:func:`_solve_network` is that solve; the "+C" calibration
(``repro.core.calibration``) runs it on recorded samples instead of the grid.

The paper reports that the hidden-layer weight (``n_i``) and bias (``b_i``)
signs must be chosen per target function for the network to find good LUT
parameters (Table 1):

==============  ==================  =====================
Function        Weight init (n_i)   Bias init (b_i)
==============  ==================  =====================
GELU            random              random
Exp             positive random     positive random
Divide (1/x)    negative random     positive random
1/SQRT          negative random     positive random
==============  ==================  =====================

The fit takes the weight sign as one direction every hinge
``relu(n_i x + b_i)`` opens in: positive for "random" (GELU) and "positive"
(exp), negative for 1/x and 1/sqrt.  Together with the output bias that
spans every piecewise-linear function on the knots that is flat beyond one
end of the range — flat towards -inf for GELU and exp, towards +inf for 1/x
and 1/sqrt.  Randomly signed hinges span less, and cost GELU 2-10x in error.
The bias sign then follows from the knots (``b_i = -n_i * anchor_i``).

At the served 16 entries this is 3x more accurate than the paper's Adam
recipe on GELU and exp and within 5 % of it on 1/x and 1/sqrt (README,
"Setup").

The main entry points are :func:`fit_network` (returns the fitted ReLU net
and its grid loss) and :func:`fit_lut` in ``repro.core.registry`` which also
performs the NN→LUT conversion.
"""

from __future__ import annotations

from typing import Callable, Dict, Tuple

import numpy as np

from .functions import get_target_function, get_training_range
from .network import OneHiddenReluNet

__all__ = ["fit_network"]


#: Table 1's hidden-weight sign per primitive, as the direction (+1 or -1)
#: every hinge opens in.  Any other primitive takes +1.
_HINGE_DIRECTIONS: Dict[str, float] = {
    "gelu": 1.0,
    "exp": 1.0,
    "reciprocal": -1.0,
    "rsqrt": -1.0,
}

#: Points of the fixed grid an output layer is solved on.
_GRID_POINTS = 20_000
_SAMPLING_MODES = ("uniform", "log", "neg_log")


def _training_grid(input_range: Tuple[float, float], sampling: str = "uniform") -> np.ndarray:
    """The fixed grid a fit over ``input_range`` is solved on.

    ``sampling`` selects where its points sit:

    * ``"uniform"`` — evenly over the range (the paper's default).
    * ``"log"`` — geometrically over a strictly positive range; for very wide
      ranges such as 1/SQRT's (0.1, 1024) where the curvature sits at small
      inputs.
    * ``"neg_log"`` — for ranges ending at 0 (e.g. exp's (-256, 0)):
      ``x = -|v|`` with ``|v|`` geometric, so points concentrate near zero
      where the exponential is non-negligible.

    Whatever the mode, a tenth of the points is spread evenly so the whole
    range stays covered.
    """
    low, high = float(input_range[0]), float(input_range[1])
    if not high > low:
        raise ValueError(f"input_range must satisfy high > low, got {input_range}")
    if sampling not in _SAMPLING_MODES:
        raise ValueError(f"sampling must be one of {_SAMPLING_MODES}, got {sampling!r}")
    if sampling == "uniform":
        return np.linspace(low, high, _GRID_POINTS)
    num_uniform = _GRID_POINTS // 10
    num_focused = _GRID_POINTS - num_uniform
    if sampling == "log":
        if low <= 0:
            raise ValueError("'log' sampling requires a strictly positive range")
        focused = np.geomspace(low, high, num_focused)
    else:
        if high > 0:
            raise ValueError("'neg_log' sampling requires a non-positive range")
        focused = -np.geomspace(abs(low), max(abs(high), 1e-3), num_focused)
    return np.concatenate([np.linspace(low, high, num_uniform), focused])


def curvature_anchors(
    function: Callable[[np.ndarray], np.ndarray],
    input_range: Tuple[float, float],
    num_anchors: int,
    sample_weights: Tuple[np.ndarray, np.ndarray] | None = None,
    grid_points: int = 100_000,
    relative: bool = False,
) -> np.ndarray:
    """Curvature-driven breakpoint placement.

    For piecewise-linear approximation the pointwise error on a segment scales
    with ``|f''| * width^2``, so the error-balancing knot density is
    proportional to ``|f''|^(1/3)`` (optionally reweighted by where the inputs
    actually fall).  The returned anchors are the quantiles of that density:
    the knots of the fitted network.

    Parameters
    ----------
    function:
        Target scalar function.
    input_range:
        ``(low, high)`` range to place anchors in.
    num_anchors:
        Number of interior breakpoints to return.
    sample_weights:
        Optional ``(x_samples, weights)`` describing the empirical input
        distribution; the density is multiplied by a histogram estimate of it.
    grid_points:
        Resolution of the numerical second-derivative grid.
    relative:
        Balance *relative* instead of absolute error, i.e. use the density
        ``|f''/f|^(1/3)`` — the right choice when the fit itself is
        relative-error weighted.
    """
    low, high = float(input_range[0]), float(input_range[1])
    if not high > low:
        raise ValueError(f"input_range must satisfy high > low, got {input_range}")
    if num_anchors < 1:
        raise ValueError("num_anchors must be >= 1")
    grid = np.linspace(low, high, grid_points)
    values = np.asarray(function(grid), dtype=np.float64)
    step = grid[1] - grid[0]
    second = np.gradient(np.gradient(values, step), step)
    curvature = np.abs(second)
    if relative:
        curvature = curvature / np.maximum(np.abs(values), 1e-6)
    density = curvature ** (1.0 / 3.0)
    if sample_weights is not None:
        xs, ws = sample_weights
        hist, edges = np.histogram(xs, bins=min(512, grid_points // 64),
                                   range=(low, high), weights=ws, density=True)
        centres = (edges[:-1] + edges[1:]) / 2.0
        density = density * np.maximum(np.interp(grid, centres, hist), 1e-12)
    # A small uniform floor keeps a few anchors in flat regions so the LUT
    # still covers the whole range (and avoids a degenerate all-zero density).
    density = density + np.max(density) * 1e-3
    cumulative = np.cumsum(density)
    cumulative = cumulative / cumulative[-1]
    quantiles = np.linspace(0.0, 1.0, num_anchors + 2)[1:-1]
    anchors = np.interp(quantiles, cumulative, grid)
    # Enforce strictly increasing anchors (guards against flat cumulative runs).
    anchors = np.maximum.accumulate(anchors)
    spacing = (high - low) * 1e-9
    for i in range(1, anchors.size):
        if anchors[i] <= anchors[i - 1]:
            anchors[i] = anchors[i - 1] + spacing
    return anchors


#: Ridge added to the output layer's normal equations.
_RIDGE = 1e-8


def _normalisation(x: np.ndarray, y: np.ndarray) -> Tuple[float, float, float]:
    """``(center, half_width, target_scale)`` mapping ``x`` and ``y`` to about [-1, 1].

    Conditions the solve: exp spans 0..1, 1/sqrt 0.03..3.2, reciprocal
    1e-3..1 and GELU -0.2..5, over input ranges from 10 to 1 000 wide.
    """
    low, high = float(np.min(x)), float(np.max(x))
    target_scale = float(np.max(np.abs(y)))
    return (high + low) / 2.0, (high - low) / 2.0, target_scale if target_scale > 0 else 1.0


def _solve_network(
    function: Callable[[np.ndarray], np.ndarray],
    x: np.ndarray,
    y: np.ndarray,
    knots: Callable[[Callable[[np.ndarray], np.ndarray], np.ndarray], np.ndarray],
    direction: float,
    relative: bool = False,
) -> OneHiddenReluNet:
    """The net ``sum_i m_i relu(direction (x - k_i)) + c`` fitting ``y = function(x)``.

    The solve runs in normalised units: ``x`` mapped onto [-1, 1] and ``y``
    divided by ``max |y|``.  ``knots(g, z)`` places the knots ``k_i`` in those
    units, given the normalised target ``g`` and the normalised inputs ``z``.
    With the hinges fixed the output is linear in ``(m, c)``, so one
    ridge-regularised least-squares solve gives the optimal L2 fit at once,
    weighted by ``1/y^2`` when ``relative``.  The parameters are then
    rewritten to act on the original units (the property the NN->LUT
    conversion and the LUT hardware rely on).
    """
    center, half_width, target_scale = _normalisation(x, y)
    x_norm = (x - center) / half_width
    y_norm = y / target_scale

    def normalised_function(z: np.ndarray) -> np.ndarray:
        return np.asarray(function(z * half_width + center), dtype=np.float64) / target_scale

    anchors = knots(normalised_function, x_norm)
    first_weight = np.full(anchors.size, direction)
    first_bias = -first_weight * anchors
    hinges = OneHiddenReluNet(first_weight, first_bias, np.zeros(anchors.size))
    hidden = hinges.hidden_activations(x_norm)
    design = np.concatenate([hidden, np.ones((hidden.shape[0], 1))], axis=1)
    target = y_norm
    if relative:
        root = np.sqrt(1.0 / np.maximum(y_norm * y_norm, 1e-12))[:, None]
        design = design * root
        target = y_norm * root.ravel()
    gram = design.T @ design + _RIDGE * np.eye(design.shape[1])
    solution = np.linalg.solve(gram, design.T @ target)

    return OneHiddenReluNet(
        first_weight / half_width,
        first_bias - first_weight * center / half_width,
        solution[:-1] * target_scale,
        float(solution[-1]) * target_scale,
    )


def fit_network(
    function_name: str,
    hidden_size: int = 15,
    sampling: str = "uniform",
    relative: bool = False,
    function: Callable[[np.ndarray], np.ndarray] | None = None,
    input_range: Tuple[float, float] | None = None,
) -> Tuple[OneHiddenReluNet, float]:
    """Fit a one-hidden-layer ReLU net of ``hidden_size`` neurons to a primitive.

    Parameters
    ----------
    function_name:
        Name of the target primitive; selects the Table-1 weight sign.  When
        ``function``/``input_range`` are omitted they are looked up from the
        Table-1 registry in ``repro.core.functions``.
    sampling:
        Where the grid the output layer is solved on puts its points
        (:func:`_training_grid`).
    relative:
        Balance relative error: knots by ``|f''/f|^(1/3)`` and the solve
        weighted by ``1/f^2`` (for targets spanning orders of magnitude).
    function, input_range:
        Optional overrides, e.g. for fitting user-defined functions (Hswish,
        Tanh, …).

    Returns ``(network, final_loss)``: ``final_loss`` is the mean absolute
    error on the grid, in the target's units.
    """
    if function is None:
        function = get_target_function(function_name)
    if input_range is None:
        input_range = get_training_range(function_name)
    x = _training_grid(input_range, sampling)
    y = np.asarray(function(x), dtype=np.float64)
    network = _solve_network(
        function, x, y,
        lambda g, _: curvature_anchors(g, (-1.0, 1.0), hidden_size, relative=relative),
        _HINGE_DIRECTIONS.get(function_name, 1.0),
        relative=relative,
    )
    return network, float(np.mean(np.abs(network.forward(x) - y)))
