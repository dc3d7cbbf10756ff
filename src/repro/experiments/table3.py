"""Table 3: MobileBERT / SQuAD with Softmax approximated (FP32 and FP16).

MobileBERT's transformer block uses ReLU and NoNorm, so Softmax is its only
transcendental operator; Table 3 therefore isolates the Softmax approximation
quality.  The reproduction compares Linear-LUT and NN-LUT, each with FP32 and
FP16 tables, against the exact baseline on the synthetic span-extraction task.
Every row serves one FP32-matmul model through an
:class:`repro.api.InferenceSession`; only the tables' precision differs
between the FP32 and FP16 rows (the paper also runs the FP16 rows' MatMuls
in FP16, which this driver does not).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from ..api import InferenceSession, SessionConfig
from ..core.registry import LutRegistry
from ..tasks.evaluation import SquadResult, evaluate_squad
from ..tasks.squad import SquadTaskSpec, generate_squad_task
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
    # A shallow (2-layer) span model keeps the frozen-encoder baseline high
    # (~90 F1), mirroring the paper's fine-tuned MobileBERT baseline.
    config = SessionConfig(
        model_family="mobilebert", seed=scale.model_seed, model_overrides={"num_layers": 2}
    )
    model = config.build_model()
    task_spec = SquadTaskSpec(
        sequence_length=scale.sequence_length,
        num_train=scale.num_train,
        num_test=scale.num_test,
        topic_strength=0.95,
    )
    data = generate_squad_task(
        vocab_size=model.config.vocab_size, seed=scale.task_seed, spec=task_spec
    )

    specs = backend_variant_specs(
        num_entries=scale.num_lut_entries,
        groups=(("", ("softmax",)),),
        precisions=("fp32", "fp16"),
    )
    sessions = {
        label: InferenceSession.from_model(model, spec, registry)
        for label, spec in specs.items()
    }
    return Table3Result(results=evaluate_squad(model, sessions, data=data))


def main() -> None:  # pragma: no cover - convenience entry point
    print(run_table3().report())


if __name__ == "__main__":  # pragma: no cover
    main()
