"""End-to-end task evaluation with swappable non-linear backends.

These helpers implement the measurement loop behind Tables 2 and 3: fit the
task heads once on exact-backend features, then score the *same* model + head
under each approximate backend.

A backend is scored through an :class:`~repro.api.InferenceSession` over the
benchmark's model — ``InferenceSession.from_model(model, spec, registry)``,
calibrated first where a row calls for it.  A session over any other model
raises ``ValueError``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Mapping, Sequence

from ..api.session import InferenceSession
from ..transformer.models import EncoderModel
from .finetune import (
    FinetunedClassifier,
    finetune_classification_task,
    finetune_regression_task,
    finetune_span_task,
)
from .glue import TaskData, generate_task, list_glue_tasks
from .metrics import compute_metric, span_exact_match, span_f1
from .squad import SquadData, generate_squad_task

__all__ = [
    "GlueBenchmark",
    "evaluate_squad",
    "SquadResult",
]

@dataclass
class GlueBenchmark:
    """A frozen encoder with heads fitted for a set of synthetic GLUE tasks."""

    model: EncoderModel
    tasks: Dict[str, TaskData] = field(default_factory=dict)
    fitted: Dict[str, FinetunedClassifier] = field(default_factory=dict)

    @classmethod
    def build(
        cls,
        model: EncoderModel,
        task_names: Sequence[str] | None = None,
        seed: int = 0,
        spec_overrides: Mapping[str, object] | None = None,
    ) -> "GlueBenchmark":
        """Generate tasks matched to ``model``'s vocabulary and fit all heads."""
        task_names = list(task_names) if task_names is not None else list_glue_tasks()
        benchmark = cls(model=model)
        for name in task_names:
            task = generate_task(
                name,
                vocab_size=model.config.vocab_size,
                seed=seed,
                spec_overrides=dict(spec_overrides) if spec_overrides else None,
            )
            benchmark.tasks[name] = task
            if task.spec.task_type == "classification":
                benchmark.fitted[name] = finetune_classification_task(model, task, seed=seed)
            else:
                benchmark.fitted[name] = finetune_regression_task(model, task)
        return benchmark

    def score(self, task_name: str, session: InferenceSession) -> float:
        """Score one task as ``session`` serves it, by the task's own metric."""
        if task_name not in self.fitted:
            raise KeyError(f"task {task_name!r} has not been fitted")
        task = self.tasks[task_name]
        predictions = self.fitted[task_name].predict(session)
        return compute_metric(task.spec.metric, predictions, task.test_labels)

    def score_all(self, session: InferenceSession) -> Dict[str, float]:
        """Scores for every fitted task as ``session`` serves them."""
        return {name: self.score(name, session) for name in self.tasks}


@dataclass
class SquadResult:
    """F1 / exact-match scores of a span model under one backend."""

    f1: float
    exact_match: float


def evaluate_squad(
    model: EncoderModel,
    sessions: Mapping[str, InferenceSession],
    seed: int = 0,
    data: SquadData | None = None,
) -> Dict[str, SquadResult]:
    """Table-3 style sweep on the synthetic SQuAD task.

    Returns scores for the exact baseline (key ``"Baseline"``) and every
    provided session over ``model``.
    """
    data = data or generate_squad_task(vocab_size=model.config.vocab_size, seed=seed)
    fitted = finetune_span_task(model, data)
    reference = data.test_spans

    def score(session: InferenceSession) -> SquadResult:
        prediction = fitted.predict(session)
        return SquadResult(
            f1=span_f1(prediction, reference),
            exact_match=span_exact_match(prediction, reference),
        )

    results = {"Baseline": score(InferenceSession.from_model(model))}
    for name, session in sessions.items():
        results[name] = score(session)
    return results
