"""Experiment drivers: one module per table / figure of the paper.

* :mod:`repro.experiments.figure2` — operator-level approximation accuracy.
* :mod:`repro.experiments.table2` — GLUE accuracy under approximation
  (direct FP32 and INT8-matmul + calibration).
* :mod:`repro.experiments.table3` — MobileBERT-like / SQuAD Softmax-only.
* :mod:`repro.experiments.table4` — arithmetic-unit hardware comparison.
* :mod:`repro.experiments.table5` — system-level cycle breakdown / speedup.

All experiments are also reachable through a single registry —
:func:`run_experiment` / :data:`EXPERIMENT_NAMES` — and the package runs as
a CLI: ``python -m repro.experiments <name> [--smoke]``.
"""

from typing import Callable, Dict, Tuple

from ..core.registry import LutRegistry
from .common import (
    DEFAULT_SCALE,
    METHOD_LABELS,
    PER_OPERATOR_GROUPS,
    SMOKE_SCALE,
    ExperimentScale,
    backend_variant_specs,
)
from .figure2 import Figure2Result, run_figure2
from .table2 import Table2aResult, Table2bResult, run_table2a, run_table2b
from .table3 import Table3Result, run_table3
from .table4 import PAPER_TABLE4, Table4Result, run_table4
from .table5 import PAPER_SPEEDUPS, Table5Result, run_table5

__all__ = [
    "ExperimentScale",
    "DEFAULT_SCALE",
    "SMOKE_SCALE",
    "METHOD_LABELS",
    "PER_OPERATOR_GROUPS",
    "backend_variant_specs",
    "Figure2Result",
    "run_figure2",
    "Table2aResult",
    "Table2bResult",
    "run_table2a",
    "run_table2b",
    "Table3Result",
    "run_table3",
    "Table4Result",
    "run_table4",
    "PAPER_TABLE4",
    "Table5Result",
    "run_table5",
    "PAPER_SPEEDUPS",
    "EXPERIMENT_NAMES",
    "run_experiment",
]

#: name -> runner(scale, registry).  The software experiments thread both
#: through; table4 is scale-free, and table5 honours the scale's
#: ``table5_sequence_lengths`` sweep (None = the paper's full eight points).
_RUNNERS: Dict[str, Callable] = {
    "figure2": lambda scale, registry: run_figure2(
        num_entries=scale.num_lut_entries, registry=registry
    ),
    "table2a": lambda scale, registry: run_table2a(scale=scale, registry=registry),
    "table2b": lambda scale, registry: run_table2b(scale=scale, registry=registry),
    "table3": lambda scale, registry: run_table3(scale=scale, registry=registry),
    "table4": lambda scale, registry: run_table4(),
    "table5": lambda scale, registry: (
        run_table5(sequence_lengths=tuple(scale.table5_sequence_lengths))
        if scale.table5_sequence_lengths is not None
        else run_table5()
    ),
}

EXPERIMENT_NAMES: Tuple[str, ...] = tuple(_RUNNERS)


def run_experiment(
    name: str,
    scale: ExperimentScale | None = None,
    registry: LutRegistry | None = None,
):
    """Run one named experiment and return its result object (has ``.report()``)."""
    if name not in _RUNNERS:
        raise ValueError(
            f"unknown experiment {name!r}; available: {', '.join(EXPERIMENT_NAMES)}"
        )
    return _RUNNERS[name](scale or DEFAULT_SCALE, registry)
