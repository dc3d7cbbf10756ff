"""Figure 2: operator-level approximation accuracy, NN-LUT vs Linear-LUT."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from ..analysis.approx_error import operator_error_summary
from ..analysis.reporting import format_mapping_table
from ..baselines.linear_lut import linear_lut_for
from ..core.registry import LutRegistry, default_registry

__all__ = ["Figure2Result", "run_figure2"]


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
