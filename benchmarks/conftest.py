"""Shared fixtures for the paper-table benchmarks (``benchmark_*.py``).

These are not collected by the tier-1 run and are not the performance
benchmark — that is ``benchmarks/e2e/`` (declared in ``BENCHMARK.json``).
Each benchmark here regenerates one table or figure of the paper and prints the
reproduced rows (so ``pytest benchmarks/ --benchmark-only -s`` doubles as the
report generator for EXPERIMENTS.md), while pytest-benchmark records the
runtime of the regeneration itself.
"""

from __future__ import annotations

import pytest

from repro.core.registry import LutRegistry
from repro.experiments.common import ExperimentScale


@pytest.fixture(scope="session")
def bench_registry() -> LutRegistry:
    """Shared fitted-primitive registry so tables are fitted exactly once."""
    return LutRegistry()


@pytest.fixture(scope="session")
def bench_scale() -> ExperimentScale:
    """Scale used for the software-accuracy benchmarks (see EXPERIMENTS.md)."""
    return ExperimentScale(
        num_train=160,
        num_test=96,
        sequence_length=48,
        glue_tasks=("MRPC", "RTE", "CoLA", "SST-2", "STS-B", "QQP", "MNLI", "QNLI"),
    )


@pytest.fixture(scope="session")
def small_scale() -> ExperimentScale:
    """Reduced scale for the heavier sweeps (per-operator Table 2a variants)."""
    return ExperimentScale(
        num_train=96,
        num_test=64,
        sequence_length=48,
        glue_tasks=("MRPC", "CoLA", "SST-2", "STS-B"),
    )
