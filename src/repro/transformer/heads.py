"""Task heads fitted on top of frozen encoder features.

The heads are deliberately simple (a single affine map) so they can be fitted
in closed form or with a few hundred gradient steps on CPU:

* :class:`ClassificationHead` — softmax regression over pooled features
  (GLUE classification tasks: MRPC, RTE, CoLA, SST-2, QQP, MNLI, QNLI).
* :class:`RegressionHead` — ridge regression over pooled features (STS-B).
* :class:`SpanHead` — per-token start/end logits (SQuAD-style span
  extraction).

They are *trained once* on features produced with the exact backend, then
*evaluated* on features produced by whichever approximate backend is under
test — the paper's direct-approximation protocol.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.functions import softmax

__all__ = ["ClassificationHead", "RegressionHead", "SpanHead"]


@dataclass
class ClassificationHead:
    """Multinomial logistic-regression head over pooled features."""

    weight: np.ndarray
    bias: np.ndarray

    @classmethod
    def fit(
        cls,
        features: np.ndarray,
        labels: np.ndarray,
        num_classes: int,
        learning_rate: float = 0.5,
        epochs: int = 200,
        l2: float = 1e-3,
        seed: int = 0,
    ) -> "ClassificationHead":
        """Fit by full-batch gradient descent on the cross-entropy loss."""
        features = np.asarray(features, dtype=np.float64)
        labels = np.asarray(labels, dtype=np.int64)
        if features.ndim != 2:
            raise ValueError(f"features must be 2-D, got shape {features.shape}")
        if labels.shape[0] != features.shape[0]:
            raise ValueError("labels and features must have the same number of rows")
        rng = np.random.default_rng(seed)
        num_samples, dim = features.shape
        weight = rng.normal(0.0, 0.01, size=(dim, num_classes))
        bias = np.zeros(num_classes, dtype=np.float64)
        one_hot = np.eye(num_classes, dtype=np.float64)[labels]
        for _ in range(epochs):
            logits = features @ weight + bias
            probabilities = softmax(logits, axis=-1)
            grad_logits = (probabilities - one_hot) / num_samples
            grad_weight = features.T @ grad_logits + l2 * weight
            grad_bias = grad_logits.sum(axis=0)
            weight -= learning_rate * grad_weight
            bias -= learning_rate * grad_bias
        return cls(weight=weight, bias=bias)

    def logits(self, features: np.ndarray) -> np.ndarray:
        return np.asarray(features, dtype=np.float64) @ self.weight + self.bias

    def predict(self, features: np.ndarray) -> np.ndarray:
        return np.argmax(self.logits(features), axis=-1)

    def predict_proba(self, features: np.ndarray) -> np.ndarray:
        return softmax(self.logits(features), axis=-1)


@dataclass
class RegressionHead:
    """Ridge-regression head over pooled features (STS-B similarity scores)."""

    weight: np.ndarray
    bias: float

    @classmethod
    def fit(cls, features: np.ndarray, targets: np.ndarray, l2: float = 1e-2) -> "RegressionHead":
        features = np.asarray(features, dtype=np.float64)
        targets = np.asarray(targets, dtype=np.float64)
        if features.ndim != 2:
            raise ValueError(f"features must be 2-D, got shape {features.shape}")
        design = np.concatenate(
            [features, np.ones((features.shape[0], 1), dtype=np.float64)], axis=1
        )
        gram = design.T @ design + l2 * np.eye(design.shape[1], dtype=np.float64)
        solution = np.linalg.solve(gram, design.T @ targets)
        return cls(weight=solution[:-1], bias=float(solution[-1]))

    def predict(self, features: np.ndarray) -> np.ndarray:
        return np.asarray(features, dtype=np.float64) @ self.weight + self.bias


@dataclass
class SpanHead:
    """Span-extraction head: per-token membership scoring + best-window search.

    The head fits a single linear scorer for "this token belongs to the answer
    span" (ridge regression on 0/1 membership targets) and predicts the span
    as the contiguous window that maximises the total thresholded score — a
    deterministic, CPU-friendly stand-in for the usual start/end softmax head
    that preserves the property Table 3 relies on: the prediction quality
    tracks how cleanly the encoder features separate answer tokens.
    """

    weight: np.ndarray
    bias: float
    max_span_length: int = 12

    @classmethod
    def fit(
        cls,
        token_features: np.ndarray,
        start_positions: np.ndarray,
        end_positions: np.ndarray,
        l2: float = 1e-2,
        max_span_length: int = 12,
    ) -> "SpanHead":
        """Fit the membership scorer on labelled (start, end) spans."""
        token_features = np.asarray(token_features, dtype=np.float64)
        if token_features.ndim != 3:
            raise ValueError(
                f"token_features must be (examples, seq, hidden), got {token_features.shape}"
            )
        num_examples, seq_len, hidden = token_features.shape
        starts = np.asarray(start_positions, dtype=np.int64)
        ends = np.asarray(end_positions, dtype=np.int64)
        if starts.shape != (num_examples,) or ends.shape != (num_examples,):
            raise ValueError("start/end positions must have one entry per example")
        positions = np.arange(seq_len)
        membership = (
            (positions[None, :] >= starts[:, None]) & (positions[None, :] <= ends[:, None])
        ).astype(np.float64)

        flat = token_features.reshape(-1, hidden)
        design = np.concatenate(
            [flat, np.ones((flat.shape[0], 1), dtype=np.float64)], axis=1
        )
        gram = design.T @ design + l2 * np.eye(design.shape[1], dtype=np.float64)
        solution = np.linalg.solve(gram, design.T @ membership.reshape(-1))
        return cls(weight=solution[:-1], bias=float(solution[-1]), max_span_length=max_span_length)

    def scores(self, token_features: np.ndarray) -> np.ndarray:
        """Per-token membership scores, shape ``(examples, seq)``."""
        return np.asarray(token_features, dtype=np.float64) @ self.weight + self.bias

    def predict(self, token_features: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Return predicted (start, end) indices per example."""
        scores = self.scores(token_features)
        num_examples, seq_len = scores.shape
        starts = np.empty(num_examples, dtype=np.int64)
        ends = np.empty(num_examples, dtype=np.int64)
        for i in range(num_examples):
            row = scores[i]
            # Threshold halfway between the background level (median) and the
            # peak, then search the window maximising the thresholded mass.
            threshold = 0.5 * (np.median(row) + np.max(row))
            adjusted = row - threshold
            best_value, best_start, best_end = -np.inf, 0, 0
            for start in range(seq_len):
                running = 0.0
                for end in range(start, min(seq_len, start + self.max_span_length)):
                    running += adjusted[end]
                    if running > best_value:
                        best_value, best_start, best_end = running, start, end
            starts[i] = best_start
            ends[i] = best_end
        return starts, ends
