"""Table 2: GLUE accuracy under approximation of the non-linear operations.

Part (a): direct approximation on the FP32 RoBERTa-like model — Linear-LUT
and NN-LUT, each replacing GELU only, Softmax only, LayerNorm only, and all
three together.

Part (b): the INT8-matmul model — I-BERT's integer approximations versus
NN-LUT in FP32 and INT32, with and without the dataset-free calibration of
the LayerNorm table ("+C" rows).

Every row is an :class:`repro.api.InferenceSession` over the one benchmark
model — ``InferenceSession.from_model(model, spec, registry)`` with the
row's :class:`repro.api.BackendSpec` (the per-operator sweep comes from
:func:`repro.experiments.common.backend_variant_specs`); a "+C" row's
session first runs ``InferenceSession.calibrate`` on unlabelled training
sequences.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

import numpy as np

from ..api import BackendSpec, InferenceSession, SessionConfig
from ..core.registry import LutRegistry
from ..tasks.evaluation import GlueBenchmark
from ..tasks.glue import list_glue_tasks
from .common import DEFAULT_SCALE, ExperimentScale, backend_variant_specs, format_mapping_table

__all__ = [
    "Table2aResult",
    "Table2bResult",
    "run_table2a",
    "run_table2b",
]


@dataclass
class Table2aResult:
    """Scores per method per task for the direct-approximation experiment."""

    scores: Dict[str, Dict[str, float]]

    def report(self) -> str:
        header = "Table 2(a) reproduction — direct approximation on the FP32 model\n"
        return header + format_mapping_table(self.scores, row_label="method")


@dataclass
class Table2bResult:
    """Scores per method per task for the INT8-matmul experiment, plus averages."""

    scores: Dict[str, Dict[str, float]]

    def averages(self) -> Dict[str, float]:
        return {
            method: float(np.mean(list(task_scores.values())))
            for method, task_scores in self.scores.items()
        }

    def report(self) -> str:
        header = "Table 2(b) reproduction — INT8 MatMul model\n"
        body = format_mapping_table(self.scores, row_label="method")
        avg_lines = "\n".join(
            f"  {method:22s} avg = {value:.1f}" for method, value in self.averages().items()
        )
        return f"{header}{body}\n\nAverages:\n{avg_lines}"


def _task_names(scale: ExperimentScale) -> List[str]:
    return list(scale.glue_tasks) if scale.glue_tasks is not None else list_glue_tasks()


def _build_benchmark(scale: ExperimentScale, matmul_precision: str = "fp32") -> GlueBenchmark:
    config = SessionConfig(
        model_family="roberta", seed=scale.model_seed, matmul_precision=matmul_precision
    )
    return GlueBenchmark.build(
        config.build_model(),
        task_names=_task_names(scale),
        seed=scale.task_seed,
        spec_overrides=scale.spec_overrides(),
    )


def run_table2a(
    scale: ExperimentScale = DEFAULT_SCALE,
    registry: LutRegistry | None = None,
) -> Table2aResult:
    """Direct approximation on the FP32 model (Table 2a)."""
    benchmark = _build_benchmark(scale, matmul_precision="fp32")
    specs = {
        "Baseline": BackendSpec.exact(),
        **backend_variant_specs(num_entries=scale.num_lut_entries),
    }
    scores = {
        label: benchmark.score_all(InferenceSession.from_model(benchmark.model, spec, registry))
        for label, spec in specs.items()
    }
    return Table2aResult(scores=scores)


def run_table2b(
    scale: ExperimentScale = DEFAULT_SCALE,
    registry: LutRegistry | None = None,
) -> Table2bResult:
    """INT8-matmul model comparison against I-BERT, with calibration (Table 2b).

    The "+C" rows re-fit the LayerNorm (1/sqrt) table on what the frozen
    model computes over unlabelled training sequences (Sec. 3.3.3).
    """
    benchmark = _build_benchmark(scale, matmul_precision="int8")
    # About one tenth of the training data, unlabelled, as in the paper: 64
    # sequences drawn evenly from the benchmark's tasks.
    per_task = max(4, 64 // len(benchmark.tasks))
    samples = [
        row for task in benchmark.tasks.values() for row in task.train_tokens[:per_task]
    ]

    def session(spec: BackendSpec) -> InferenceSession:
        served = InferenceSession.from_model(benchmark.model, spec, registry)
        if spec.calibrated():
            served.calibrate(samples)
        return served

    def nn_lut(precision: str) -> BackendSpec:
        return BackendSpec.nn_lut(precision=precision, num_entries=scale.num_lut_entries)

    specs = {
        "Baseline": BackendSpec.exact(),
        "I-BERT": BackendSpec.ibert(),
        "NN-LUT FP32": nn_lut("fp32"),
        "NN-LUT FP32+C": nn_lut("fp32").with_calibration("layernorm"),
        "NN-LUT INT32": nn_lut("int32"),
        "NN-LUT INT32+C": nn_lut("int32").with_calibration("layernorm"),
    }
    scores = {label: benchmark.score_all(session(spec)) for label, spec in specs.items()}
    return Table2bResult(scores=scores)


def main() -> None:  # pragma: no cover - convenience entry point
    print(run_table2a().report())
    print()
    print(run_table2b().report())


if __name__ == "__main__":  # pragma: no cover
    main()
