"""Table 2: GLUE accuracy under approximation of the non-linear operations.

Part (a): direct approximation on the FP32 RoBERTa-like model — Linear-LUT
and NN-LUT, each replacing GELU only, Softmax only, LayerNorm only, and all
three together.

Part (b): the INT8-matmul model — I-BERT's integer approximations versus
NN-LUT in FP32 and INT32, with and without the dataset-free calibration of
the LayerNorm table ("+C" rows).

Every variant is declared as a :class:`repro.api.BackendSpec` and realised
through :func:`repro.api.build_backend`; the per-operator sweep comes from
:func:`repro.experiments.common.backend_variant_specs`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

import numpy as np

from ..analysis.reporting import format_mapping_table
from ..api import BackendSpec, build_backend, calibrate_primitive_luts
from ..core.lut import LookupTable
from ..core.registry import LutRegistry, default_registry
from ..tasks.evaluation import GlueBenchmark
from ..tasks.glue import list_glue_tasks
from ..transformer.models import RobertaLikeModel
from ..transformer.nonlinear_backend import NonlinearBackend
from .common import DEFAULT_SCALE, ExperimentScale, backend_variant_specs

__all__ = [
    "Table2aResult",
    "Table2bResult",
    "run_table2a",
    "run_table2b",
    "calibrate_layernorm_lut",
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
    model = RobertaLikeModel.build(seed=scale.model_seed, matmul_precision=matmul_precision)
    return GlueBenchmark.build(
        model,
        task_names=_task_names(scale),
        seed=scale.task_seed,
        spec_overrides=scale.spec_overrides(),
    )


def run_table2a(
    scale: ExperimentScale = DEFAULT_SCALE,
    registry: LutRegistry | None = None,
) -> Table2aResult:
    """Direct approximation on the FP32 model (Table 2a)."""
    if registry is None:
        registry = default_registry()
    benchmark = _build_benchmark(scale, matmul_precision="fp32")

    variants: Dict[str, NonlinearBackend] = {
        "Baseline": build_backend(BackendSpec.exact(), registry=registry)
    }
    for label, spec in backend_variant_specs(num_entries=scale.num_lut_entries).items():
        variants[label] = build_backend(spec, registry=registry)

    scores = {name: benchmark.score_all(backend) for name, backend in variants.items()}
    return Table2aResult(scores=scores)


def calibrate_layernorm_lut(
    benchmark: GlueBenchmark,
    registry: LutRegistry,
    scale: ExperimentScale,
    max_sequences: int = 64,
) -> LookupTable:
    """Dataset-free calibration of the LayerNorm (1/sqrt) table.

    Mirrors Sec. 3.3.3: run the frozen model over a small set of *unlabelled*
    training sequences while recording what actually reaches the LayerNorm
    sites, then re-fit the 1/sqrt approximation on that distribution (the
    query-point mapping and the network re-fit live in
    :func:`repro.api.calibrate_primitive_luts`).
    """
    backend = build_backend(BackendSpec.exact(), registry=registry)
    with backend.recording() as recorder:
        # A small unlabelled subset (about one tenth of the training data, as
        # in the paper) drawn from the benchmark's existing tasks.
        count = 0
        for task in benchmark.tasks.values():
            tokens = task.train_tokens[: max(4, max_sequences // max(1, len(benchmark.tasks)))]
            benchmark.model.forward(tokens, backend=backend)
            count += tokens.shape[0]
            if count >= max_sequences:
                break
    calibrated = calibrate_primitive_luts(
        recorder,
        registry,
        operators=("layernorm",),
        num_entries=scale.num_lut_entries,
    )
    return calibrated["rsqrt"]


def run_table2b(
    scale: ExperimentScale = DEFAULT_SCALE,
    registry: LutRegistry | None = None,
) -> Table2bResult:
    """INT8-matmul model comparison against I-BERT, with calibration (Table 2b)."""
    if registry is None:
        registry = default_registry()
    benchmark = _build_benchmark(scale, matmul_precision="int8")
    entries = scale.num_lut_entries

    overrides = {"rsqrt": calibrate_layernorm_lut(benchmark, registry, scale)}

    def nn_lut(precision: str, calibrated: bool) -> NonlinearBackend:
        spec = BackendSpec.nn_lut(precision=precision, num_entries=entries)
        if calibrated:
            spec = spec.with_calibration("layernorm")
        return build_backend(
            spec, registry=registry, lut_overrides=overrides if calibrated else None
        )

    variants: Dict[str, NonlinearBackend] = {
        "Baseline": build_backend(BackendSpec.exact(), registry=registry),
        "I-BERT": build_backend(BackendSpec.ibert(), registry=registry),
        "NN-LUT FP32": nn_lut("fp32", calibrated=False),
        "NN-LUT FP32+C": nn_lut("fp32", calibrated=True),
        "NN-LUT INT32": nn_lut("int32", calibrated=False),
        "NN-LUT INT32+C": nn_lut("int32", calibrated=True),
    }
    scores = {name: benchmark.score_all(backend) for name, backend in variants.items()}
    return Table2bResult(scores=scores)


def main() -> None:  # pragma: no cover - convenience entry point
    print(run_table2a().report())
    print()
    print(run_table2b().report())


if __name__ == "__main__":  # pragma: no cover
    main()
