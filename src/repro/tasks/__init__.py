"""Synthetic GLUE / SQuAD task substrate, metrics and evaluation loops."""

from .evaluation import (
    GlueBenchmark,
    SquadResult,
    evaluate_squad,
)
from .finetune import (
    FinetunedClassifier,
    FinetunedSpanModel,
    finetune_classification_task,
    finetune_regression_task,
    finetune_span_task,
)
from .glue import GLUE_TASKS, GlueTaskSpec, TaskData, generate_task, list_glue_tasks
from .metrics import (
    METRIC_FUNCTIONS,
    accuracy,
    compute_metric,
    f1_binary,
    matthews_correlation,
    pearson_correlation,
    span_exact_match,
    span_f1,
    spearman_correlation,
)
from .squad import SquadData, SquadTaskSpec, generate_squad_task

__all__ = [
    "GLUE_TASKS",
    "GlueTaskSpec",
    "TaskData",
    "generate_task",
    "list_glue_tasks",
    "SquadTaskSpec",
    "SquadData",
    "generate_squad_task",
    "accuracy",
    "f1_binary",
    "matthews_correlation",
    "pearson_correlation",
    "spearman_correlation",
    "span_exact_match",
    "span_f1",
    "METRIC_FUNCTIONS",
    "compute_metric",
    "finetune_classification_task",
    "finetune_regression_task",
    "finetune_span_task",
    "FinetunedClassifier",
    "FinetunedSpanModel",
    "GlueBenchmark",
    "evaluate_squad",
    "SquadResult",
]
