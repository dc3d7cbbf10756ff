"""Head fitting ("fine-tuning") on frozen encoder features.

The paper's software protocol: take a model already fine-tuned on the task,
replace its non-linear operators by approximations, and measure the score
change without re-training anything ("direct approximation").  Our stand-in
for the fine-tuned model is a frozen encoder plus a task head fitted on
exact-backend features — :func:`finetune_classification_task` and friends
produce exactly that, and return the fitted head together with cached feature
extraction helpers so evaluation with other backends reuses the same head.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from ..api.spec import as_backend
from ..transformer.heads import ClassificationHead, RegressionHead, SpanHead
from ..transformer.models import EncoderModel
from ..transformer.nonlinear_backend import NonlinearBackend
from .glue import TaskData
from .squad import SquadData

__all__ = [
    "FinetunedClassifier",
    "FinetunedRegressor",
    "FinetunedSpanModel",
    "extract_pooled_features",
    "extract_token_features",
    "finetune_classification_task",
    "finetune_regression_task",
    "finetune_span_task",
]


def extract_pooled_features(
    model: EncoderModel,
    tokens: np.ndarray,
    backend: NonlinearBackend | None = None,
    batch_size: int = 64,
) -> np.ndarray:
    """Pooled ([CLS]) features for a batch of token sequences."""
    backend = as_backend(backend)
    chunks = []
    for start in range(0, tokens.shape[0], batch_size):
        chunk = tokens[start : start + batch_size]
        chunks.append(model.pooled(chunk, backend=backend))
    return np.concatenate(chunks, axis=0)


def extract_token_features(
    model: EncoderModel,
    tokens: np.ndarray,
    backend: NonlinearBackend | None = None,
    batch_size: int = 64,
) -> np.ndarray:
    """Per-token hidden states for a batch of token sequences."""
    backend = as_backend(backend)
    chunks = []
    for start in range(0, tokens.shape[0], batch_size):
        chunk = tokens[start : start + batch_size]
        chunks.append(model.forward(chunk, backend=backend))
    return np.concatenate(chunks, axis=0)


@dataclass
class FinetunedClassifier:
    """A frozen encoder + classification head fitted on exact features."""

    model: EncoderModel
    head: ClassificationHead
    task: TaskData

    def evaluate_features(self, backend: NonlinearBackend | None = None) -> np.ndarray:
        """Test-set pooled features under ``backend`` (exact by default)."""
        return extract_pooled_features(self.model, self.task.test_tokens, backend)

    def predict(self, backend: NonlinearBackend | None = None) -> np.ndarray:
        return self.head.predict(self.evaluate_features(backend))


@dataclass
class FinetunedRegressor:
    """A frozen encoder + regression head fitted on exact features."""

    model: EncoderModel
    head: RegressionHead
    task: TaskData

    def evaluate_features(self, backend: NonlinearBackend | None = None) -> np.ndarray:
        return extract_pooled_features(self.model, self.task.test_tokens, backend)

    def predict(self, backend: NonlinearBackend | None = None) -> np.ndarray:
        return self.head.predict(self.evaluate_features(backend))


@dataclass
class FinetunedSpanModel:
    """A frozen encoder + span head fitted on exact features."""

    model: EncoderModel
    head: SpanHead
    task: SquadData

    def predict(
        self, backend: NonlinearBackend | None = None
    ) -> Tuple[np.ndarray, np.ndarray]:
        features = extract_token_features(self.model, self.task.test_tokens, backend)
        return self.head.predict(features)


def finetune_classification_task(
    model: EncoderModel, task: TaskData, seed: int = 0
) -> FinetunedClassifier:
    """Fit a classification head on the task's training split (exact backend)."""
    if task.spec.task_type != "classification":
        raise ValueError(f"task {task.name} is not a classification task")
    features = extract_pooled_features(model, task.train_tokens)
    head = ClassificationHead.fit(
        features, task.train_labels, num_classes=task.spec.num_classes, seed=seed
    )
    return FinetunedClassifier(model=model, head=head, task=task)


def finetune_regression_task(model: EncoderModel, task: TaskData) -> FinetunedRegressor:
    """Fit a regression head on the task's training split (exact backend)."""
    if task.spec.task_type != "regression":
        raise ValueError(f"task {task.name} is not a regression task")
    features = extract_pooled_features(model, task.train_tokens)
    head = RegressionHead.fit(features, task.train_labels)
    return FinetunedRegressor(model=model, head=head, task=task)


def finetune_span_task(model: EncoderModel, task: SquadData) -> FinetunedSpanModel:
    """Fit a span head on the task's training split (exact backend)."""
    features = extract_token_features(model, task.train_tokens)
    starts, ends = task.train_spans
    head = SpanHead.fit(features, starts, ends)
    return FinetunedSpanModel(model=model, head=head, task=task)
