"""System-level performance analysis (paper Table 5).

Runs the accelerator cycle model for RoBERTa-base inference across a sweep of
sequence lengths, once with the I-BERT non-linear unit and once with the
NN-LUT unit, and reports the relative cycle breakdown per operation category
plus the end-to-end speedup of NN-LUT over I-BERT.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence

from ..transformer.config import TransformerConfig
from .accelerator import (
    AcceleratorConfig,
    AcceleratorSimulator,
    CycleBreakdown,
    IBERT_COST_MODEL,
    NN_LUT_COST_MODEL,
    NonlinearCostModel,
)
from .workload import build_workload

__all__ = ["SequencePoint", "SystemComparison", "run_system_comparison", "PAPER_SEQUENCE_LENGTHS"]

#: Sequence lengths reported in Table 5.
PAPER_SEQUENCE_LENGTHS: Sequence[int] = (16, 32, 64, 128, 256, 384, 512, 1024)


@dataclass
class SequencePoint:
    """Comparison of the two non-linear units at one sequence length."""

    sequence_length: int
    ibert: CycleBreakdown
    nn_lut: CycleBreakdown

    @property
    def speedup(self) -> float:
        """End-to-end speedup of NN-LUT over I-BERT (>1 means NN-LUT faster)."""
        return self.ibert.total / self.nn_lut.total

    def nonlinear_share(self, which: str = "ibert") -> float:
        """Percentage of cycles spent in GELU + LayerNorm + Softmax."""
        breakdown = self.ibert if which == "ibert" else self.nn_lut
        relative = breakdown.relative()
        return sum(relative.get(kind, 0.0) for kind in ("GELU", "LayerNorm", "Softmax"))


@dataclass
class SystemComparison:
    """Table-5 style sweep over sequence lengths."""

    points: List[SequencePoint] = field(default_factory=list)

    def speedups(self) -> Dict[int, float]:
        return {point.sequence_length: point.speedup for point in self.points}


def run_system_comparison(
    sequence_lengths: Sequence[int] = PAPER_SEQUENCE_LENGTHS,
    config: TransformerConfig | None = None,
    accelerator: AcceleratorConfig | None = None,
    ibert_cost: NonlinearCostModel = IBERT_COST_MODEL,
    nn_lut_cost: NonlinearCostModel = NN_LUT_COST_MODEL,
) -> SystemComparison:
    """Run the Table-5 sweep.

    ``config`` defaults to RoBERTa-base; ``accelerator`` to the 2-engine,
    32-lane-SFU core of Figure 3(c).
    """
    simulator = AcceleratorSimulator(config=accelerator or AcceleratorConfig())
    comparison = SystemComparison()
    for sequence_length in sequence_lengths:
        workload = build_workload(sequence_length, config=config)
        comparison.points.append(
            SequencePoint(
                sequence_length=sequence_length,
                ibert=simulator.run(workload, ibert_cost),
                nn_lut=simulator.run(workload, nn_lut_cost),
            )
        )
    return comparison
