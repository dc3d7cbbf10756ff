"""Table 3: MobileBERT / SQuAD with Softmax approximated (FP32 and FP16).

MobileBERT's transformer block uses ReLU and NoNorm, so Softmax is its only
transcendental operator; Table 3 therefore isolates the Softmax approximation
quality.  The reproduction compares Linear-LUT and NN-LUT, each with FP32 and
FP16 tables, against the exact baseline on the synthetic span-extraction task
(the MatMuls run in FP16 for the FP16 rows, as in the paper).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from ..core.registry import LutRegistry, default_registry
from ..tasks.evaluation import SquadResult, evaluate_squad
from ..tasks.squad import SquadTaskSpec, generate_squad_task
from ..transformer.models import MobileBertLikeModel
from .common import DEFAULT_SCALE, ExperimentScale, backend_variant_specs, format_table

__all__ = ["Table3Result", "run_table3"]


@dataclass
class Table3Result:
    """F1 / EM per method for the Softmax-only approximation experiment."""

    results: Dict[str, SquadResult]

    def report(self) -> str:
        rows = [
            [name, result.f1, result.exact_match, result.f1 - self.results["Baseline"].f1]
            for name, result in self.results.items()
        ]
        table = format_table(["method", "F1", "EM", "F1 loss"], rows, float_format="{:.1f}")
        return "Table 3 reproduction — MobileBERT-like / synthetic SQuAD, Softmax only\n" + table


def run_table3(
    scale: ExperimentScale = DEFAULT_SCALE,
    registry: LutRegistry | None = None,
) -> Table3Result:
    """Softmax-only approximation on the MobileBERT-like span model."""
    if registry is None:
        registry = default_registry()
    entries = scale.num_lut_entries
    # A shallow (2-layer) span model keeps the frozen-encoder baseline high
    # (~90 F1), mirroring the paper's fine-tuned MobileBERT baseline.
    model = MobileBertLikeModel.build(seed=scale.model_seed, num_layers=2)
    spec = SquadTaskSpec(
        sequence_length=scale.sequence_length,
        num_train=scale.num_train,
        num_test=scale.num_test,
        topic_strength=0.95,
    )
    data = generate_squad_task(vocab_size=model.config.vocab_size, seed=scale.task_seed, spec=spec)

    backends = backend_variant_specs(
        num_entries=entries,
        groups=(("", ("softmax",)),),
        precisions=("fp32", "fp16"),
    )
    results = evaluate_squad(
        model, backends, seed=scale.task_seed, data=data, registry=registry
    )
    return Table3Result(results=results)


def main() -> None:  # pragma: no cover - convenience entry point
    print(run_table3().report())


if __name__ == "__main__":  # pragma: no cover
    main()
