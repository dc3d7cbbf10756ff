"""Training of NN-LUT approximation networks (paper Sec. 3.3.1 and 4.1).

The paper's recipe, reproduced here without an autodiff framework:

* training data: uniform samples of the target function over the Table-1
  input range (100K samples suffice; fitting is a one-time offline cost),
* loss: L1 (slightly better than L2 because outliers are penalised modestly),
* optimiser: Adam with learning rate 1e-3 and a multi-step schedule,
* initialisation: Table-1 sign constraints (``repro.core.initialization``).

The main entry points are :func:`fit_network` (returns the trained ReLU net)
and :func:`fit_lut` in ``repro.core.registry`` which also performs the NN→LUT
conversion.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, List, Sequence, Tuple

import numpy as np

from .functions import get_target_function, get_training_range
from .initialization import initialize_network
from .network import OneHiddenReluNet

__all__ = [
    "TrainingConfig",
    "TrainingResult",
    "AdamOptimizer",
    "sample_training_data",
    "train_adam",
    "fit_network",
]


@dataclass
class TrainingConfig:
    """Hyper-parameters for NN-LUT curve fitting.

    Defaults follow Sec. 4.1: lr=1e-3, Adam, 100K samples; the L1 loss and
    the multi-step schedule (``_LR_MILESTONES`` / ``_LR_GAMMA``) are fixed.
    ``epochs``/``batch_size`` are chosen so fitting a 16-entry LUT takes about
    a second on one CPU core (0.9-1.1 s for GELU on a 2-vCPU x86 machine)
    while matching the paper's accuracy; they can be reduced for fast tests.
    """

    hidden_size: int = 15
    num_samples: int = 100_000
    batch_size: int = 4096
    epochs: int = 60
    learning_rate: float = 1e-3
    sampling: str = "uniform"
    seed: int = 0
    output_bias: bool = True
    num_restarts: int = 1
    target_weighting: str = "none"

    _SAMPLING_MODES = ("uniform", "log", "neg_log")
    _WEIGHTINGS = ("none", "relative")

    def __post_init__(self) -> None:
        if self.hidden_size < 1:
            raise ValueError("hidden_size must be >= 1")
        if self.num_samples < 2:
            raise ValueError("num_samples must be >= 2")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.sampling not in self._SAMPLING_MODES:
            raise ValueError(
                f"sampling must be one of {self._SAMPLING_MODES}, got {self.sampling!r}"
            )
        if self.target_weighting not in self._WEIGHTINGS:
            raise ValueError(
                f"target_weighting must be one of {self._WEIGHTINGS}, "
                f"got {self.target_weighting!r}"
            )
        if self.num_restarts < 1:
            raise ValueError("num_restarts must be >= 1")


@dataclass
class TrainingResult:
    """Outcome of :func:`fit_network`."""

    network: OneHiddenReluNet
    final_loss: float
    loss_history: List[float] = field(default_factory=list)
    input_range: Tuple[float, float] = (0.0, 1.0)
    function_name: str = ""


#: Adam's moment decays and denominator guard (the usual defaults).
_BETA1, _BETA2, _EPS = 0.9, 0.999, 1e-8


class AdamOptimizer:
    """Adam over one flat float64 parameter vector, updated in place.

    The moment estimates and the step's scratch are allocated once, at
    construction, so a step allocates nothing.
    """

    def __init__(self, size: int, learning_rate: float = 1e-3) -> None:
        if learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        self.learning_rate = float(learning_rate)
        self._step = 0
        self._m = np.zeros(size)
        self._v = np.zeros(size)
        self._update = np.empty(size)
        self._denom = np.empty(size)

    def step(self, params: np.ndarray, grad: np.ndarray, lr_scale: float = 1.0) -> None:
        """One Adam update of ``params`` (in place) from ``grad``."""
        self._step += 1
        lr = self.learning_rate * lr_scale
        m, v, update, denom = self._m, self._v, self._update, self._denom
        m *= _BETA1
        np.multiply(grad, 1 - _BETA1, out=update)
        m += update
        v *= _BETA2
        np.multiply(grad, grad, out=update)
        update *= 1 - _BETA2
        v += update
        np.divide(v, 1 - _BETA2**self._step, out=denom)
        np.sqrt(denom, out=denom)
        denom += _EPS
        np.divide(m, 1 - _BETA1**self._step, out=update)
        update *= lr
        update /= denom
        params -= update


def sample_training_data(
    function: Callable[[np.ndarray], np.ndarray],
    input_range: Tuple[float, float],
    num_samples: int,
    rng: np.random.Generator,
    sampling: str = "uniform",
) -> Tuple[np.ndarray, np.ndarray]:
    """Sample ``(x, f(x))`` pairs over ``input_range``.

    ``sampling`` selects the input distribution:

    * ``"uniform"`` — uniform over the range (the paper's default).
    * ``"log"`` — log-uniform over a strictly positive range; useful for very
      wide ranges such as 1/SQRT's (0.1, 1024) where the curvature sits at
      small inputs.
    * ``"neg_log"`` — for ranges ending at 0 (e.g. exp's (-256, 0)):
      ``x = -|v|`` with ``|v|`` log-uniform, so samples concentrate near zero
      where the exponential is non-negligible.

    Regardless of the mode, a small uniform share (10%) is mixed in so the
    whole range stays covered.
    """
    low, high = float(input_range[0]), float(input_range[1])
    if not high > low:
        raise ValueError(f"input_range must satisfy high > low, got {input_range}")
    if sampling == "log":
        if low <= 0:
            raise ValueError("'log' sampling requires a strictly positive range")
        focused = np.exp(rng.uniform(np.log(low), np.log(high), size=num_samples))
    elif sampling == "neg_log":
        if high > 0:
            raise ValueError("'neg_log' sampling requires a non-positive range")
        magnitude_low = max(abs(high), 1e-3)
        focused = -np.exp(rng.uniform(np.log(magnitude_low), np.log(abs(low)), size=num_samples))
    else:
        focused = rng.uniform(low, high, size=num_samples)
    if sampling != "uniform":
        num_uniform = max(1, num_samples // 10)
        focused[:num_uniform] = rng.uniform(low, high, size=num_uniform)
    x = np.clip(focused, low, high)
    y = np.asarray(function(x), dtype=np.float64)
    return x, y


#: Multi-step learning-rate schedule (Sec. 4.1): the rate is multiplied by
#: ``_LR_GAMMA`` at each of these fractions of the epoch budget.
_LR_MILESTONES = (0.5, 0.75, 0.9)
_LR_GAMMA = 0.3


def _lr_scale(progress: float) -> float:
    """Multi-step learning-rate decay: multiply by ``_LR_GAMMA`` per passed milestone."""
    scale = 1.0
    for milestone in _LR_MILESTONES:
        if progress >= milestone:
            scale *= _LR_GAMMA
    return scale


def train_adam(
    network: OneHiddenReluNet,
    x: np.ndarray,
    y: np.ndarray,
    rng: np.random.Generator,
    lr_scales: Sequence[float],
    batch_size: int,
    learning_rate: float,
    weights: np.ndarray | None = None,
) -> List[float]:
    """Mini-batch Adam on the (optionally per-sample weighted) L1 loss.

    One epoch per entry of ``lr_scales``, each over a fresh ``rng``
    permutation of the samples cut into ``max(1, n // batch_size)`` batches
    (the tail that does not fill a batch is skipped).  Updates ``network``'s
    parameters and returns the mean batch loss of every epoch.

    All step buffers are allocated once: the parameters live in one flat
    vector ``[n | b | m | c]`` with views for the forward, the backward
    reuses the forward's pre-activations, and the two outer products are
    einsums (the broadcast multiply's bits, faster at 15 columns).  Every
    element sees the IEEE operations of ``OneHiddenReluNet.forward`` /
    ``gradients`` in their order.  Where the hand-derived gradient
    reads ``where(pre > 0, pre, 0)`` this reads the forward's
    ``maximum(pre, 0)``; the two differ at most in the sign of a zero, which
    no sum of products and no Adam moment can see.
    """
    hidden = network.hidden_size
    n = x.size
    num_batches = max(1, n // batch_size)
    rows = min(n, batch_size)
    p = network.params
    theta = np.concatenate([p.first_weight, p.first_bias, p.second_weight, [p.output_bias]])
    first_weight, first_bias, second_weight = np.split(theta[:-1], 3)
    grad = np.zeros_like(theta)
    grad_first_w, grad_first_b, grad_second = np.split(grad[:-1], 3)
    optimizer = AdamOptimizer(theta.size, learning_rate=learning_rate)

    x_epoch, y_epoch, w_epoch = np.empty((3, n))
    pre, relu, upstream = np.empty((3, rows, hidden))
    active = np.empty((rows, hidden), dtype=bool)
    diff, grad_pred = np.empty((2, rows))

    history: List[float] = []
    for scale in lr_scales:
        order = rng.permutation(n)
        np.take(x, order, out=x_epoch)
        np.take(y, order, out=y_epoch)
        if weights is not None:
            np.take(weights, order, out=w_epoch)
        epoch_loss = 0.0
        for start in range(0, num_batches * rows, rows):
            xb = x_epoch[start : start + rows]
            # forward: relu(x n + b) @ m + c
            np.einsum("i,j->ij", xb, first_weight, out=pre)
            pre += first_bias
            np.maximum(pre, 0.0, out=relu)
            np.matmul(relu, second_weight, out=diff)
            diff += theta[-1]
            diff -= y_epoch[start : start + rows]
            # L1 loss and its gradient sign(diff) / rows, then the weights
            np.sign(diff, out=grad_pred)
            grad_pred /= rows
            if weights is not None:
                grad_pred *= w_epoch[start : start + rows]
            epoch_loss += float(np.mean(np.abs(diff, out=diff)))
            # backward
            np.matmul(grad_pred, relu, out=grad_second)
            np.greater(pre, 0.0, out=active)
            np.einsum("i,j->ij", grad_pred, second_weight, out=upstream)
            upstream *= active
            np.matmul(upstream.T, xb, out=grad_first_w)
            np.add.reduce(upstream, axis=0, out=grad_first_b)
            if network.trainable_output_bias:
                grad[-1] = np.add.reduce(grad_pred)
            optimizer.step(theta, grad, lr_scale=scale)
        history.append(epoch_loss / num_batches)

    p.first_weight, p.first_bias, p.second_weight = (
        part.copy() for part in (first_weight, first_bias, second_weight)
    )
    if network.trainable_output_bias:
        p.output_bias = float(theta[-1])
    return history


def curvature_anchors(
    function: Callable[[np.ndarray], np.ndarray],
    input_range: Tuple[float, float],
    num_anchors: int,
    sample_weights: Tuple[np.ndarray, np.ndarray] | None = None,
    grid_points: int = 100_000,
    relative: bool = False,
) -> np.ndarray:
    """Curvature-driven initial breakpoint placement.

    For piecewise-linear approximation the pointwise error on a segment scales
    with ``|f''| * width^2``, so the error-balancing knot density is
    proportional to ``|f''|^(1/3)`` (optionally reweighted by where the inputs
    actually fall).  The returned anchors are the quantiles of that density —
    a strong starting point that the network training then refines.

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


def _least_squares_output_layer(
    network: OneHiddenReluNet,
    x: np.ndarray,
    y: np.ndarray,
    ridge: float = 1e-8,
    weights: np.ndarray | None = None,
) -> None:
    """Solve the output layer ``(m, c)`` in closed form for fixed breakpoints.

    With the hidden layer frozen, the network output is linear in the second
    layer weights and bias, so a (ridge-regularised, optionally weighted)
    least-squares solve gives the optimal L2 fit instantly.  Used to
    initialise the output layer before Adam refines the breakpoints, and to
    refit it afterwards.
    """
    hidden = network.hidden_activations(x)
    if network.trainable_output_bias:
        design = np.concatenate([hidden, np.ones((hidden.shape[0], 1))], axis=1)
    else:
        design = hidden
    target = y
    if weights is not None:
        root = np.sqrt(np.asarray(weights, dtype=np.float64))[:, None]
        design = design * root
        target = y * root.ravel()
    gram = design.T @ design + ridge * np.eye(design.shape[1])
    solution = np.linalg.solve(gram, design.T @ target)
    if network.trainable_output_bias:
        network.params.second_weight = solution[:-1]
        network.params.output_bias = float(solution[-1])
    else:
        network.params.second_weight = solution


def _denormalize_network(
    network: OneHiddenReluNet, center: float, half_width: float, target_scale: float
) -> None:
    """Fold the input/target normalisation back into the network parameters.

    The fit is carried out on ``x_n = (x - center) / half_width`` against
    ``y_n = y / target_scale``; this rewrites the parameters so the network
    operates directly on the original units (the property the NN->LUT
    conversion and the LUT hardware rely on).
    """
    n = network.params.first_weight
    b = network.params.first_bias
    network.params.first_weight = n / half_width
    network.params.first_bias = b - n * center / half_width
    network.params.second_weight = network.params.second_weight * target_scale
    network.params.output_bias = network.params.output_bias * target_scale


def _run_single_fit(
    function: Callable[[np.ndarray], np.ndarray],
    function_name: str,
    input_range: Tuple[float, float],
    config: TrainingConfig,
    seed: int,
) -> TrainingResult:
    rng = np.random.default_rng(seed)
    x, y = sample_training_data(
        function,
        input_range,
        config.num_samples,
        rng,
        sampling=config.sampling,
    )
    low, high = float(input_range[0]), float(input_range[1])

    # Condition the regression: map inputs to roughly [-1, 1] and targets to
    # roughly [-1, 1] so a single Adam learning rate works for every primitive
    # (exp spans 0..1, 1/sqrt spans 0.03..3.2, reciprocal 1e-3..1, GELU -0.2..5).
    center = (high + low) / 2.0
    half_width = (high - low) / 2.0
    target_scale = float(np.max(np.abs(y)))
    target_scale = target_scale if target_scale > 0 else 1.0

    x_norm = (x - center) / half_width
    y_norm = y / target_scale
    norm_range = ((low - center) / half_width, (high - center) / half_width)

    # Per-sample loss weights.  "relative" weighting turns the L1 loss into
    # (approximately) a relative-error loss, which is the right objective for
    # primitives whose downstream use is multiplicative (1/x normalising a
    # Softmax row, 1/sqrt scaling a LayerNorm row) and whose outputs span
    # orders of magnitude across the training range.
    if config.target_weighting == "relative":
        weights = 1.0 / (np.abs(y_norm) + 1e-2)
        weights = weights / np.mean(weights)
    else:
        weights = np.ones_like(y_norm)

    # Initial breakpoints: curvature-balanced over the (normalised) range,
    # which puts table entries where the approximation pressure actually is
    # (dense near 0 for exp, dense near 1 for 1/x); the Adam fit then refines
    # them.
    normalised_function = lambda z: np.asarray(  # noqa: E731 - local adapter
        function(z * half_width + center), dtype=np.float64
    ) / target_scale
    anchors = curvature_anchors(
        normalised_function,
        norm_range,
        config.hidden_size,
        relative=(config.target_weighting == "relative"),
    )

    network = initialize_network(
        function_name,
        hidden_size=config.hidden_size,
        input_range=norm_range,
        rng=rng,
        output_bias=config.output_bias,
        anchors=anchors,
    )
    subsample = min(x_norm.size, 20_000)
    _least_squares_output_layer(
        network, x_norm[:subsample], y_norm[:subsample], weights=weights[:subsample]
    )

    lr_scales = [_lr_scale(epoch / max(1, config.epochs - 1)) for epoch in range(config.epochs)]
    history = train_adam(
        network, x_norm, y_norm, rng, lr_scales, config.batch_size, config.learning_rate, weights
    )

    def _weighted_l1(candidate_net: OneHiddenReluNet) -> float:
        return float(np.mean(weights * np.abs(candidate_net.forward(x_norm) - y_norm)))

    # The Adam pass mostly serves to place the breakpoints; with those
    # frozen, re-solving the (convex) output layer removes any residual
    # optimisation error.  Keep the refit only when it helps the
    # (weighted) L1 loss.
    candidate = network.copy()
    subsample = min(x_norm.size, 50_000)
    _least_squares_output_layer(
        candidate, x_norm[:subsample], y_norm[:subsample], weights=weights[:subsample]
    )
    if _weighted_l1(candidate) < _weighted_l1(network):
        network = candidate

    _denormalize_network(network, center, half_width, target_scale)

    # Report the final loss in the *unnormalised* target units so callers can
    # compare against the paper's L1-error plots directly.
    final_pred = network.forward(x)
    final_loss = float(np.mean(np.abs(final_pred - y)))
    return TrainingResult(
        network=network,
        final_loss=final_loss,
        loss_history=history,
        input_range=input_range,
        function_name=function_name,
    )


def fit_network(
    function_name: str,
    config: TrainingConfig | None = None,
    function: Callable[[np.ndarray], np.ndarray] | None = None,
    input_range: Tuple[float, float] | None = None,
) -> TrainingResult:
    """Fit a one-hidden-layer ReLU net to a scalar primitive.

    Parameters
    ----------
    function_name:
        Name of the target primitive.  When ``function``/``input_range`` are
        omitted they are looked up from the Table-1 registry in
        ``repro.core.functions``.
    config:
        Training hyper-parameters; defaults follow the paper.
    function, input_range:
        Optional overrides, e.g. for calibration on measured activations or
        for fitting user-defined functions (Hswish, Tanh, …).

    The best of ``config.num_restarts`` random restarts (by final loss, the
    earliest on a tie) is returned; restarts guard against an unlucky
    initialisation on the hardest target (1/SQRT over three orders of
    magnitude).  The restarts are independent — each owns its generator
    (seeded ``config.seed + restart``) and every buffer it steps — so they
    run at once, on up to as many threads as this process may use cores
    (the calling thread included); numpy and BLAS release the GIL for the
    step's array work.  The result does not depend on the thread count.
    """
    config = config or TrainingConfig()
    if function is None:
        function = get_target_function(function_name)
    if input_range is None:
        input_range = get_training_range(function_name)

    def restart(index: int) -> TrainingResult:
        return _run_single_fit(
            function, function_name, input_range, config, seed=config.seed + index
        )

    indices = range(config.num_restarts)
    workers = min(config.num_restarts, _usable_cores())
    if workers > 1:
        # The calling thread runs restart 0 itself: one thread, and one
        # malloc arena, fewer.  What a pool thread frees can stay resident in
        # its arena (up to ~7 MB here), where nothing after the fit reuses it.
        with ThreadPoolExecutor(max_workers=workers - 1) as pool:
            others = pool.map(restart, indices[1:])
            results = [restart(0), *others]
    else:
        results = [restart(index) for index in indices]
    # min keeps the first of equal keys: the earliest restart wins a tie
    return min(results, key=lambda result: result.final_loss)


def _usable_cores() -> int:
    """CPUs this process may run on (its affinity mask where the OS has one)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1
