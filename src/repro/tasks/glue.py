"""Synthetic GLUE-style tasks.

The paper evaluates on eight GLUE tasks (MRPC, RTE, CoLA, SST-2, STS-B, QQP,
MNLI, QNLI).  Offline we have neither the datasets nor pre-trained
checkpoints, so each task is replaced by a synthetic stand-in with the same
*shape*: the same metric, a comparable label cardinality, and a difficulty
chosen so the frozen-encoder + linear-head baseline lands in a realistic
accuracy band (high but not saturated).  What the experiments measure — how
much a fixed model's score moves when its non-linear operators are
approximated — only requires that the tasks have real margin structure that
feature distortion can destroy, which these do.

Generation model
----------------
Each task uses a small set of *topic pools* (a handful of token ids per
topic, so that topical tokens produce a strong, consistent embedding-space
signal through the frozen encoder).  A sequence mixes tokens from its
assigned topic pool(s) with uniform background tokens; ``topic_strength``
controls the mixing fraction and therefore the class margin, and
``label_noise`` injects irreducible error.  Labels are functions of the topic
assignment:

* single-sentence classification (SST-2, CoLA): label = topic group of the
  sentence;
* pair tasks (MRPC, RTE, QQP, QNLI, MNLI): the sequence is two segments with a
  separator and the label is the topic group of the second segment (a
  relevance/entailment stand-in);
* STS-B: the second segment interpolates between two topic pools and the
  regression target is the interpolation fraction (scaled to 0-5).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

import numpy as np

__all__ = ["GlueTaskSpec", "TaskData", "GLUE_TASKS", "generate_task", "list_glue_tasks"]


@dataclass(frozen=True)
class GlueTaskSpec:
    """Static description of one synthetic GLUE-style task."""

    name: str
    task_type: str  # "classification" or "regression"
    num_classes: int
    metric: str
    is_pair_task: bool
    topic_strength: float
    label_noise: float
    num_train: int = 512
    num_test: int = 256
    sequence_length: int = 64
    tokens_per_topic: int = 16

    def __post_init__(self) -> None:
        if self.task_type not in ("classification", "regression"):
            raise ValueError(f"task_type must be classification/regression, got {self.task_type}")
        if self.task_type == "classification" and self.num_classes < 2:
            raise ValueError("classification tasks need at least 2 classes")
        if not 0.0 < self.topic_strength <= 1.0:
            raise ValueError("topic_strength must be in (0, 1]")
        if not 0.0 <= self.label_noise < 0.5:
            raise ValueError("label_noise must be in [0, 0.5)")
        if self.tokens_per_topic < 1:
            raise ValueError("tokens_per_topic must be >= 1")


@dataclass
class TaskData:
    """Materialised train/test split of a synthetic task."""

    spec: GlueTaskSpec
    train_tokens: np.ndarray
    train_labels: np.ndarray
    test_tokens: np.ndarray
    test_labels: np.ndarray
    metadata: Dict[str, object] = field(default_factory=dict)

    @property
    def name(self) -> str:
        return self.spec.name


#: The eight GLUE tasks of Table 2, with difficulty tuned so the synthetic
#: baselines land in GLUE-like bands (``python -m repro.experiments table2a``
#: prints the measured values).
GLUE_TASKS: Dict[str, GlueTaskSpec] = {
    "MRPC": GlueTaskSpec(
        name="MRPC", task_type="classification", num_classes=2, metric="f1",
        is_pair_task=True, topic_strength=0.62, label_noise=0.06,
    ),
    "RTE": GlueTaskSpec(
        name="RTE", task_type="classification", num_classes=2, metric="accuracy",
        is_pair_task=True, topic_strength=0.50, label_noise=0.12,
    ),
    "CoLA": GlueTaskSpec(
        name="CoLA", task_type="classification", num_classes=2, metric="matthews",
        is_pair_task=False, topic_strength=0.25, label_noise=0.10,
    ),
    "SST-2": GlueTaskSpec(
        name="SST-2", task_type="classification", num_classes=2, metric="accuracy",
        is_pair_task=False, topic_strength=0.35, label_noise=0.02,
    ),
    "STS-B": GlueTaskSpec(
        name="STS-B", task_type="regression", num_classes=1, metric="pearson",
        is_pair_task=True, topic_strength=0.70, label_noise=0.05,
    ),
    "QQP": GlueTaskSpec(
        name="QQP", task_type="classification", num_classes=2, metric="f1",
        is_pair_task=True, topic_strength=0.65, label_noise=0.04,
    ),
    "MNLI": GlueTaskSpec(
        name="MNLI", task_type="classification", num_classes=3, metric="accuracy",
        is_pair_task=True, topic_strength=0.65, label_noise=0.05,
    ),
    "QNLI": GlueTaskSpec(
        name="QNLI", task_type="classification", num_classes=2, metric="accuracy",
        is_pair_task=True, topic_strength=0.65, label_noise=0.04,
    ),
}


def list_glue_tasks() -> List[str]:
    """Names of the supported synthetic GLUE tasks, in the paper's order."""
    return list(GLUE_TASKS.keys())


def _topic_pools(
    vocab_size: int, num_topics: int, tokens_per_topic: int, reserved: int = 4
) -> List[np.ndarray]:
    """Small disjoint token pools, one per topic."""
    needed = num_topics * tokens_per_topic
    if reserved + needed > vocab_size:
        raise ValueError(
            f"vocab_size={vocab_size} too small for {num_topics} topics x "
            f"{tokens_per_topic} tokens (+{reserved} reserved)"
        )
    ids = np.arange(reserved, reserved + needed)
    return [ids[i * tokens_per_topic : (i + 1) * tokens_per_topic] for i in range(num_topics)]


def _background(rng: np.random.Generator, vocab_size: int, size: int, reserved: int = 4) -> np.ndarray:
    return rng.integers(reserved, vocab_size, size=size)


def _topical_segment(
    rng: np.random.Generator,
    pool: np.ndarray,
    length: int,
    vocab_size: int,
    topic_strength: float,
) -> np.ndarray:
    """A segment mixing topical tokens (probability ``topic_strength``) and background."""
    mask = rng.random(length) < topic_strength
    return np.where(mask, rng.choice(pool, size=length), _background(rng, vocab_size, length))


def _assemble_pair(first: np.ndarray, second: np.ndarray) -> np.ndarray:
    """[CLS] first [SEP] second, trimmed to the combined length."""
    sequence = np.concatenate([np.array([1]), first, np.array([2]), second])
    return sequence


def _generate_classification(
    spec: GlueTaskSpec, vocab_size: int, num_examples: int, rng: np.random.Generator
) -> Tuple[np.ndarray, np.ndarray]:
    # One topic group per class; each group has its own pool.
    pools = _topic_pools(vocab_size, spec.num_classes, spec.tokens_per_topic)
    tokens = np.empty((num_examples, spec.sequence_length), dtype=np.int64)
    labels = rng.integers(0, spec.num_classes, size=num_examples)
    for index in range(num_examples):
        label = int(labels[index])
        if spec.is_pair_task:
            # First segment: neutral context; second segment: carries the label topic.
            first_len = (spec.sequence_length - 2) // 2
            second_len = spec.sequence_length - 2 - first_len
            first = _background(rng, vocab_size, first_len)
            second = _topical_segment(
                rng, pools[label], second_len, vocab_size, spec.topic_strength
            )
            tokens[index] = _assemble_pair(first, second)[: spec.sequence_length]
        else:
            body = _topical_segment(
                rng, pools[label], spec.sequence_length - 1, vocab_size, spec.topic_strength
            )
            tokens[index] = np.concatenate([np.array([1]), body])[: spec.sequence_length]
    # Irreducible label noise.
    flip = rng.random(num_examples) < spec.label_noise
    noise_labels = rng.integers(0, spec.num_classes, size=num_examples)
    labels = np.where(flip, noise_labels, labels)
    return tokens, labels.astype(np.int64)


def _generate_regression(
    spec: GlueTaskSpec, vocab_size: int, num_examples: int, rng: np.random.Generator
) -> Tuple[np.ndarray, np.ndarray]:
    """STS-B style: target = how much the second segment leans on topic A vs B."""
    pools = _topic_pools(vocab_size, 2, spec.tokens_per_topic)
    tokens = np.empty((num_examples, spec.sequence_length), dtype=np.int64)
    targets = np.empty(num_examples, dtype=np.float64)
    for index in range(num_examples):
        similarity = float(rng.random())
        first_len = (spec.sequence_length - 2) // 2
        second_len = spec.sequence_length - 2 - first_len
        first = _topical_segment(rng, pools[0], first_len, vocab_size, spec.topic_strength)
        # Second segment: topical tokens drawn from pool A with probability
        # `similarity`, pool B otherwise.
        topical_mask = rng.random(second_len) < spec.topic_strength
        from_a = rng.random(second_len) < similarity
        topical = np.where(
            from_a, rng.choice(pools[0], size=second_len), rng.choice(pools[1], size=second_len)
        )
        second = np.where(topical_mask, topical, _background(rng, vocab_size, second_len))
        tokens[index] = _assemble_pair(first, second)[: spec.sequence_length]
        targets[index] = 5.0 * similarity + rng.normal(0.0, spec.label_noise * 5.0)
    return tokens, np.clip(targets, 0.0, 5.0)


def generate_task(
    task_name: str,
    vocab_size: int = 2000,
    seed: int = 0,
    spec_overrides: Dict[str, object] | None = None,
) -> TaskData:
    """Materialise the train/test split for one synthetic GLUE task.

    ``vocab_size`` must match the encoder configuration the task will be
    evaluated with.  ``spec_overrides`` allows tests to shrink example counts
    or sequence lengths.
    """
    if task_name not in GLUE_TASKS:
        known = ", ".join(GLUE_TASKS)
        raise KeyError(f"Unknown GLUE task {task_name!r}; known: {known}")
    spec = GLUE_TASKS[task_name]
    if spec_overrides:
        spec = GlueTaskSpec(**{**spec.__dict__, **spec_overrides})
    # Stable per-task seed offset (the built-in hash() is salted per process).
    task_offset = int(np.sum([ord(ch) * (index + 1) for index, ch in enumerate(task_name)]))
    rng = np.random.default_rng(seed + task_offset)
    total = spec.num_train + spec.num_test
    if spec.task_type == "classification":
        tokens, labels = _generate_classification(spec, vocab_size, total, rng)
    else:
        tokens, labels = _generate_regression(spec, vocab_size, total, rng)
    return TaskData(
        spec=spec,
        train_tokens=tokens[: spec.num_train],
        train_labels=labels[: spec.num_train],
        test_tokens=tokens[spec.num_train :],
        test_labels=labels[spec.num_train :],
        metadata={"vocab_size": vocab_size, "seed": seed},
    )
