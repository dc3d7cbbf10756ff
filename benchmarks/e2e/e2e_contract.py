"""The benchmark's declared names and units, read from ``BENCHMARK.json``."""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, Mapping

BENCHMARK_JSON = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def load_benchmark() -> Dict[str, object]:
    return json.loads(BENCHMARK_JSON.read_text())


def units(benchmark: Mapping[str, object], section: str) -> Dict[str, str]:
    """``{metric name: unit}`` of ``end_to_end`` or ``per_layer``, in file order."""
    return {entry["name"]: entry["unit"] for entry in benchmark[section]}


def check_names(metrics: Mapping[str, float], declared: Mapping[str, str]) -> None:
    """A run must report exactly the declared metrics — no more, no fewer."""
    if set(metrics) != set(declared):
        raise RuntimeError(
            f"metrics differ from BENCHMARK.json: missing "
            f"{sorted(set(declared) - set(metrics))}, undeclared "
            f"{sorted(set(metrics) - set(declared))}"
        )
