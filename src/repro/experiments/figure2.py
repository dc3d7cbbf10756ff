"""Figure 2: operator-level approximation accuracy, NN-LUT vs Linear-LUT.

Figure 2 compares NN-LUT against Linear-LUT on the three Transformer
operators: the top row shows the approximated outputs on representative
inputs, the bottom row the L1 error.  This module computes those curves and
summary statistics; the plotting itself is left to the caller (the driver
prints the summary numbers, the example script dumps CSV-like series).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Tuple

import numpy as np

from ..baselines.linear_lut import linear_lut_for
from ..core import functions
from ..core.approximators import LutLayerNorm, LutSoftmax
from ..core.registry import LutRegistry, default_registry
from ..core.scaling import InputScaler
from .common import format_mapping_table

__all__ = [
    "OperatorErrorCurve",
    "operator_error_curve",
    "operator_error_summary",
    "Figure2Result",
    "run_figure2",
]


@dataclass
class OperatorErrorCurve:
    """Input grid, reference values, approximation and pointwise L1 error."""

    operator: str
    method: str
    inputs: np.ndarray
    reference: np.ndarray
    approximation: np.ndarray
    error: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        self.error = np.abs(self.approximation - self.reference)

    @property
    def mean_l1(self) -> float:
        return float(np.mean(self.error))


def _gelu_curve(approximators: Dict[str, Callable], num_points: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    grid = np.linspace(-5.0, 5.0, num_points)
    reference = functions.gelu(grid)
    approximation = np.asarray(approximators["gelu"](grid))
    return grid, reference, approximation


def _softmax_curve(
    approximators: Dict[str, Callable], num_points: int, seed: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    # Representative attention score rows spanning short and long rows and
    # several logit scales, so both the exp and the 1/x tables are exercised
    # across their dynamic range (sums between ~1 and ~row length).
    rng = np.random.default_rng(seed)
    row_length = max(8, num_points // 8)
    rows = []
    for scale in (0.5, 1.0, 2.0, 4.0, 8.0):
        rows.append(rng.normal(0.0, scale, size=(2, row_length)))
    logits = np.concatenate(rows, axis=0)
    reference = functions.softmax(logits, axis=-1)
    softmax_op = LutSoftmax(approximators["exp"], approximators["reciprocal"])
    approximation = softmax_op(logits)
    return logits.ravel(), reference.ravel(), approximation.ravel()


def _layernorm_curve(
    approximators: Dict[str, Callable], num_points: int, seed: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    # Activation rows whose standard deviation sweeps three orders of
    # magnitude (the small-variance end is where the 1/sqrt dynamic range —
    # and the paper's input-scaling fix — matters most).
    rng = np.random.default_rng(seed)
    row_length = max(16, num_points // 16)
    scales = np.logspace(-2, 1.3, 16)
    rows = np.stack([rng.normal(0.2, scale, size=row_length) for scale in scales])
    reference = functions.layer_norm(rows, axis=-1)
    layernorm_op = LutLayerNorm(approximators["rsqrt"], scaler=InputScaler())
    approximation = layernorm_op(rows)
    return rows.ravel(), reference.ravel(), approximation.ravel()


def operator_error_curve(
    operator: str,
    approximators: Dict[str, Callable],
    method: str = "",
    num_points: int = 512,
    seed: int = 0,
) -> OperatorErrorCurve:
    """Error curve for ``operator`` in {"gelu", "softmax", "layernorm"}.

    ``approximators`` maps primitive names (``"gelu"``, ``"exp"``,
    ``"reciprocal"``, ``"rsqrt"``) to scalar approximators.
    """
    if operator == "gelu":
        grid, reference, approximation = _gelu_curve(approximators, num_points)
    elif operator == "softmax":
        grid, reference, approximation = _softmax_curve(approximators, num_points, seed)
    elif operator == "layernorm":
        grid, reference, approximation = _layernorm_curve(approximators, num_points, seed)
    else:
        raise ValueError(f"operator must be gelu/softmax/layernorm, got {operator!r}")
    return OperatorErrorCurve(
        operator=operator,
        method=method,
        inputs=grid,
        reference=reference,
        approximation=approximation,
    )


def operator_error_summary(
    methods: Dict[str, Dict[str, Callable]],
    num_points: int = 512,
    seed: int = 0,
) -> Dict[str, Dict[str, float]]:
    """Mean L1 error per operator per method.

    ``methods`` maps a display name ("NN-LUT", "Linear-LUT", ...) to its
    primitive-approximator dict.  Returns ``{method: {operator: mean L1}}``.
    """
    summary: Dict[str, Dict[str, float]] = {}
    for method_name, approximators in methods.items():
        summary[method_name] = {}
        for operator in ("gelu", "softmax", "layernorm"):
            curve = operator_error_curve(
                operator, approximators, method=method_name, num_points=num_points, seed=seed
            )
            summary[method_name][operator] = curve.mean_l1
    return summary


@dataclass
class Figure2Result:
    """Mean L1 error per operator for each approximation method."""

    errors: Dict[str, Dict[str, float]]
    num_entries: int

    def report(self) -> str:
        header = (
            f"Figure 2 reproduction — mean L1 error per operator "
            f"({self.num_entries}-entry LUTs)\n"
        )
        return header + format_mapping_table(self.errors, row_label="method", float_format="{:.4f}")


def run_figure2(
    num_entries: int = 16,
    registry: LutRegistry | None = None,
    num_points: int = 512,
    seed: int = 0,
) -> Figure2Result:
    """Compute the Figure-2 error comparison.

    The expected reproduction shape: both methods approximate GELU well;
    NN-LUT is substantially more accurate than Linear-LUT on Softmax and
    (especially) LayerNorm, whose primitives have a large dynamic range.
    """
    if registry is None:
        registry = default_registry()
    nn_lut = {
        name: registry.lut(name, num_entries=num_entries)
        for name in ("gelu", "exp", "reciprocal", "rsqrt")
    }
    linear_lut = {
        name: linear_lut_for(name, num_entries=num_entries)
        for name in ("gelu", "exp", "reciprocal", "rsqrt")
    }
    errors = operator_error_summary(
        {"NN-LUT": nn_lut, "Linear-LUT": linear_lut}, num_points=num_points, seed=seed
    )
    return Figure2Result(errors=errors, num_entries=num_entries)


def main() -> None:  # pragma: no cover - convenience entry point
    print(run_figure2().report())


if __name__ == "__main__":  # pragma: no cover
    main()
