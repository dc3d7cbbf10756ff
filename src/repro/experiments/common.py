"""Shared configuration for the experiment drivers.

The paper's software experiments run full-size RoBERTa / MobileBERT on real
GLUE / SQuAD data on a GPU; the reproduction uses scaled-down encoders and
synthetic tasks, so nothing is downloaded and everything runs on a CPU.
This module centralises the experiment scale so the table drivers, the
examples and the benchmark harness all use the same settings — and so a
single knob (``ExperimentScale``) can shrink everything for smoke tests.
It also renders the drivers' results as plain-text tables in the paper's
layout, so the reproduction can be eyeballed against the original numbers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Sequence, Tuple

from ..api import BackendSpec
from ..transformer.nonlinear_backend import ALL_OPS

__all__ = [
    "ExperimentScale",
    "DEFAULT_SCALE",
    "SMOKE_SCALE",
    "METHOD_LABELS",
    "PER_OPERATOR_GROUPS",
    "backend_variant_specs",
    "format_table",
    "format_mapping_table",
]


@dataclass(frozen=True)
class ExperimentScale:
    """Knobs controlling how much work the software experiments do."""

    #: Synthetic-task sizes (per task).
    num_train: int = 256
    num_test: int = 128
    sequence_length: int = 48
    #: Which GLUE tasks to run (None = all eight).
    glue_tasks: Sequence[str] | None = None
    #: Encoder seed (the "pre-trained checkpoint" identity).
    model_seed: int = 3
    #: Task / head seed.
    task_seed: int = 0
    #: LUT size used throughout (the paper's setting).
    num_lut_entries: int = 16
    #: Table-5 sequence-length sweep (None = the paper's full eight points).
    table5_sequence_lengths: Sequence[int] | None = None

    def spec_overrides(self) -> Dict[str, object]:
        """Overrides applied to every GLUE task spec."""
        return {
            "num_train": self.num_train,
            "num_test": self.num_test,
            "sequence_length": self.sequence_length,
        }


#: Scale of a full ``python -m repro.experiments <name>`` run.
DEFAULT_SCALE = ExperimentScale()

#: Much smaller scale for CI-style smoke runs and unit tests.
SMOKE_SCALE = ExperimentScale(
    num_train=96,
    num_test=64,
    sequence_length=32,
    glue_tasks=("SST-2", "MRPC"),
    table5_sequence_lengths=(16, 128, 1024),
)


#: Report-row labels per approximation method.
METHOD_LABELS: Dict[str, str] = {
    "exact": "Baseline",
    "nn_lut": "NN-LUT",
    "linear_lut": "Linear-LUT",
    "ibert": "I-BERT",
}

#: The per-operator sweep of Table 2(a): row-label suffix -> operators replaced.
PER_OPERATOR_GROUPS: Tuple[Tuple[str, Tuple[str, ...]], ...] = (
    ("GELU only", ("gelu",)),
    ("Softmax only", ("softmax",)),
    ("LayerNorm only", ("layernorm",)),
    ("Altogether", ALL_OPS),
)


def backend_variant_specs(
    num_entries: int = 16,
    methods: Sequence[str] = ("linear_lut", "nn_lut"),
    groups: Sequence[Tuple[str, Sequence[str]]] = PER_OPERATOR_GROUPS,
    precisions: Sequence[str] = ("fp32",),
    input_scaling: bool = True,
) -> Dict[str, BackendSpec]:
    """Labelled grid of backend variants: method x operator group x precision.

    This is the one definition of the variant dictionaries the table drivers
    sweep (Table 2(a)'s per-operator rows, Table 3's Softmax-only precision
    rows) — previously duplicated across ``table2.py`` and ``table3.py``.
    The precision tag only appears in labels when more than one precision is
    requested, matching the papers' row-naming conventions.
    """
    lut_methods = {"nn_lut", "linear_lut"}
    specs: Dict[str, BackendSpec] = {}
    for method in methods:
        # Only the LUT methods have precision/entry variants, and only the
        # non-exact methods vary per operator group; sweeping the rest would
        # fabricate duplicate rows under distinct labels.
        method_precisions: Sequence[str | None] = (
            precisions if method in lut_methods else (None,)
        )
        method_groups = groups if method != "exact" else (("", ()),)
        for group_label, ops in method_groups:
            for precision in method_precisions:
                parts = [METHOD_LABELS.get(method, method)]
                if group_label:
                    parts.append(group_label)
                if precision is not None and len(precisions) > 1:
                    parts.append(precision.upper())
                kwargs: Dict[str, object] = {}
                if method != "exact":
                    kwargs["replace"] = tuple(ops)
                if precision is not None:
                    kwargs.update(
                        precision=precision,
                        num_entries=num_entries,
                        input_scaling=input_scaling,
                    )
                label = " ".join(parts)
                if label in specs:
                    raise ValueError(
                        f"duplicate variant label {label!r}; a sweep row would be "
                        "silently dropped — give groups distinct labels"
                    )
                specs[label] = BackendSpec.from_method(method, **kwargs)
    return specs


def format_table(
    headers: Sequence[str],
    rows: Iterable[Sequence[object]],
    float_format: str = "{:.2f}",
) -> str:
    """Render rows as a fixed-width text table."""
    rendered_rows: List[List[str]] = []
    for row in rows:
        rendered: List[str] = []
        for cell in row:
            if isinstance(cell, float):
                rendered.append(float_format.format(cell))
            else:
                rendered.append(str(cell))
        rendered_rows.append(rendered)
    widths = [len(h) for h in headers]
    for row in rendered_rows:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    lines = [
        "  ".join(header.ljust(widths[index]) for index, header in enumerate(headers)),
        "  ".join("-" * widths[index] for index in range(len(headers))),
    ]
    for row in rendered_rows:
        lines.append("  ".join(cell.ljust(widths[index]) for index, cell in enumerate(row)))
    return "\n".join(lines)


def format_mapping_table(
    results: Mapping[str, Mapping[str, float]],
    row_label: str = "method",
    float_format: str = "{:.1f}",
) -> str:
    """Render ``{row: {column: value}}`` as a text table with a stable column order."""
    columns: List[str] = []
    for row_values in results.values():
        for column in row_values:
            if column not in columns:
                columns.append(column)
    headers = [row_label] + columns
    rows = []
    for row_name, row_values in results.items():
        rows.append([row_name] + [row_values.get(column, float("nan")) for column in columns])
    return format_table(headers, rows, float_format=float_format)
