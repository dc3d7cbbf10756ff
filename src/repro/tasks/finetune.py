"""Head fitting ("fine-tuning") on frozen encoder features.

The paper's software protocol: take a model already fine-tuned on the task,
replace its non-linear operators by approximations, and measure the score
change without re-training anything ("direct approximation").  Our stand-in
for the fine-tuned model is a frozen encoder plus a task head fitted on
exact-backend features — :func:`finetune_classification_task` and friends
produce exactly that.  Every feature, for fitting and for scoring, is served
by an :class:`~repro.api.InferenceSession`: fitting through an exact session
over the model, scoring through whichever session over the same model the
caller passes to ``predict``, so the fitted head is reused unchanged under
every backend.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from ..api.session import InferenceSession
from ..transformer.heads import ClassificationHead, RegressionHead, SpanHead
from ..transformer.models import EncoderModel
from .glue import TaskData
from .squad import SquadData

__all__ = [
    "FinetunedClassifier",
    "FinetunedSpanModel",
    "finetune_classification_task",
    "finetune_regression_task",
    "finetune_span_task",
]


def _serving(session: InferenceSession, model: EncoderModel) -> InferenceSession:
    """``session``, checked to serve ``model`` (the one the head was fitted on)."""
    if session.model is not model:
        raise ValueError(
            "the session serves another model than the one this head was fitted "
            "on; build it with InferenceSession.from_model(<that model>, spec)"
        )
    return session


@dataclass
class FinetunedClassifier:
    """A frozen encoder + a pooled-feature head (classification or regression)
    fitted on exact features."""

    model: EncoderModel
    head: ClassificationHead | RegressionHead
    task: TaskData

    def predict(self, session: InferenceSession) -> np.ndarray:
        """Test-set predictions from the pooled features ``session`` serves."""
        features = _serving(session, self.model).pooled(list(self.task.test_tokens))
        return self.head.predict(features)


@dataclass
class FinetunedSpanModel:
    """A frozen encoder + span head fitted on exact features."""

    model: EncoderModel
    head: SpanHead
    task: SquadData

    def predict(self, session: InferenceSession) -> Tuple[np.ndarray, np.ndarray]:
        """Test-set spans from the hidden states ``session`` serves."""
        hidden = _serving(session, self.model).forward(list(self.task.test_tokens))
        return self.head.predict(np.stack(hidden))


def finetune_classification_task(
    model: EncoderModel, task: TaskData, seed: int = 0
) -> FinetunedClassifier:
    """Fit a classification head on the task's training split (exact backend)."""
    if task.spec.task_type != "classification":
        raise ValueError(f"task {task.name} is not a classification task")
    features = InferenceSession.from_model(model).pooled(list(task.train_tokens))
    head = ClassificationHead.fit(
        features, task.train_labels, num_classes=task.spec.num_classes, seed=seed
    )
    return FinetunedClassifier(model=model, head=head, task=task)


def finetune_regression_task(model: EncoderModel, task: TaskData) -> FinetunedClassifier:
    """Fit a regression head on the task's training split (exact backend)."""
    if task.spec.task_type != "regression":
        raise ValueError(f"task {task.name} is not a regression task")
    features = InferenceSession.from_model(model).pooled(list(task.train_tokens))
    head = RegressionHead.fit(features, task.train_labels)
    return FinetunedClassifier(model=model, head=head, task=task)


def finetune_span_task(model: EncoderModel, task: SquadData) -> FinetunedSpanModel:
    """Fit a span head on the task's training split (exact backend)."""
    hidden = InferenceSession.from_model(model).forward(list(task.train_tokens))
    starts, ends = task.train_spans
    head = SpanHead.fit(np.stack(hidden), starts, ends)
    return FinetunedSpanModel(model=model, head=head, task=task)
