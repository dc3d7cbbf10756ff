"""Table 5: system-level cycle breakdown of RoBERTa inference on the NPU model."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence

from ..hardware.performance import (
    PAPER_SEQUENCE_LENGTHS,
    SystemComparison,
    run_system_comparison,
)
from .common import format_table

__all__ = ["Table5Result", "run_table5", "PAPER_SPEEDUPS"]

#: Speedups reported in the last row of the paper's Table 5.
PAPER_SPEEDUPS: Dict[int, float] = {
    16: 1.08, 32: 1.08, 64: 1.09, 128: 1.10, 256: 1.13, 384: 1.16, 512: 1.18, 1024: 1.26,
}


@dataclass
class Table5Result:
    """Cycle-breakdown sweep plus the speedup row."""

    comparison: SystemComparison

    def speedups(self) -> Dict[int, float]:
        return self.comparison.speedups()

    def report(self) -> str:
        categories = ("GELU", "LayerNorm", "Softmax", "MatMul", "etc.")
        rows = []
        for point in self.comparison.points:
            for label, breakdown in (("I-BERT", point.ibert), ("NN-LUT", point.nn_lut)):
                relative = breakdown.relative()
                rows.append(
                    [point.sequence_length, label] + [relative[c] for c in categories]
                )
        table = format_table(
            ["seq len", "method", "GELU %", "LayerNorm %", "Softmax %", "MatMul %", "etc. %"],
            rows,
        )
        speedup_rows = [
            [sl, speedup, PAPER_SPEEDUPS.get(sl, float("nan"))]
            for sl, speedup in self.speedups().items()
        ]
        speedup_table = format_table(
            ["seq len", "speedup (model)", "speedup (paper)"], speedup_rows, float_format="{:.3f}"
        )
        return (
            "Table 5 reproduction — relative computation cycles (%)\n"
            + table
            + "\n\nEnd-to-end speedup of NN-LUT over I-BERT\n"
            + speedup_table
        )


def run_table5(sequence_lengths: Sequence[int] = PAPER_SEQUENCE_LENGTHS) -> Table5Result:
    """Run the Table-5 sweep on the default RoBERTa-base workload."""
    return Table5Result(comparison=run_system_comparison(sequence_lengths))


def main() -> None:  # pragma: no cover - convenience entry point
    from . import run_experiment

    print(run_experiment("table5").report())


if __name__ == "__main__":  # pragma: no cover
    main()
