"""Figure-2 style comparison: NN-LUT vs Linear-LUT on GELU / Softmax / LayerNorm.

Run with:  python examples/operator_accuracy.py
"""

from repro.core import LutRegistry
from repro.baselines import linear_lut_for
from repro.experiments.common import format_mapping_table
from repro.experiments.figure2 import operator_error_curve, operator_error_summary


def main() -> None:
    registry = LutRegistry()
    primitives = ("gelu", "exp", "reciprocal", "rsqrt")
    nn_lut = {name: registry.lut(name, num_entries=16) for name in primitives}
    linear = {name: linear_lut_for(name, num_entries=16) for name in primitives}

    summary = operator_error_summary({"NN-LUT": nn_lut, "Linear-LUT": linear})
    print("Mean L1 error per Transformer operator (16-entry tables)\n")
    print(format_mapping_table(summary, row_label="method", float_format="{:.4f}"))

    # Dump one curve in CSV form so it can be plotted externally.
    curve = operator_error_curve("gelu", nn_lut, method="NN-LUT", num_points=21)
    print("\nGELU approximation curve (x, reference, NN-LUT, |error|):")
    for x, ref, approx, err in zip(
        curve.inputs, curve.reference, curve.approximation, curve.error
    ):
        print(f"{x:7.3f}, {ref:8.4f}, {approx:8.4f}, {err:8.5f}")


if __name__ == "__main__":
    main()
