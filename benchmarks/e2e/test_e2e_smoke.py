"""Tier-1 smoke guard for the end-to-end benchmark.

Runs every workload, timed and traced, on the ``tiny`` model for about a
second each, and checks that what a run prints is exactly what
``BENCHMARK.json`` declares.  Timings at this scale mean nothing and are not
asserted.
"""

from __future__ import annotations

import json
import re
import sys
import time
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))

import e2e_contract as contract  # noqa: E402
import e2e_layers as layers  # noqa: E402
import e2e_loadgen as loadgen  # noqa: E402
import e2e_workloads as workloads  # noqa: E402

BENCHMARK = contract.load_benchmark()
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


@pytest.fixture(scope="module")
def registry():
    return workloads.fit_registry()


def test_benchmark_json_meets_the_contract():
    assert set(BENCHMARK) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert BENCHMARK["paths"] == ["benchmarks/e2e"]
    assert 1 <= BENCHMARK["run_seconds"] <= 60
    # Gated workloads are a subset of what the harness can run (DESIGN.json
    # records why serve_short_sharded_shm is not gated).
    assert {w["name"] for w in BENCHMARK["workloads"]} <= set(workloads.WORKLOADS)
    names = []
    for workload in BENCHMARK["workloads"]:
        assert set(workload) == {"name", "why"} and len(workload["why"]) <= 200
        names.append(workload["name"])
    for metric in BENCHMARK["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
        names.append(metric["name"])
    for metric in BENCHMARK["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
        names.append(metric["name"])
    for metric in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]:
        assert UNIT.match(metric["unit"]) and metric["better"] in ("lower", "higher")
    assert all(NAME.match(name) for name in names)
    assert len(names) == len(set(names))
    setup = contract.units(BENCHMARK, "end_to_end")["setup_s"]
    assert setup == "s"
    assert 2 <= len(BENCHMARK["workloads"]) <= 8
    assert len(BENCHMARK["per_layer"]) <= 128 and len(BENCHMARK["end_to_end"]) <= 16


def test_design_record_names_every_declared_metric_and_workload():
    design = json.loads((HERE / "DESIGN.json").read_text())
    assert list(design["per_layer"]) == list(contract.units(BENCHMARK, "per_layer"))
    assert set(design["end_to_end"]) == set(contract.units(BENCHMARK, "end_to_end"))
    assert set(design["workloads"]) == set(workloads.WORKLOADS)
    assert all(entry["target"]["moves"] for entry in design["per_layer"].values())


def test_same_seed_gives_byte_identical_requests():
    def draw(seed):
        rng = np.random.default_rng([seed, 1])
        lengths = loadgen.pareto_lengths(rng, 200, 4, 64)
        return (
            loadgen.digest(
                loadgen.make_requests(rng, lengths, 8000),
                loadgen.poisson_due_times(rng, 200, 30.0),
            ),
            sorted(lengths),
        )

    assert draw(3) == draw(3)
    # Another seed rearranges the same multiset of lengths.
    assert draw(3)[0] != draw(4)[0] and draw(3)[1] == draw(4)[1]


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_timed_run_prints_the_declared_end_to_end_metrics(name, registry):
    result = workloads.run_timed(
        workloads.WORKLOADS[name], workloads.SMOKE, seed=1, seconds=0.5,
        process_start=time.perf_counter(), registry=registry,
    )
    contract.check_names(result.metrics, contract.units(BENCHMARK, "end_to_end"))
    assert result.correct and result.failed == 0 and result.attempted >= 1
    assert all(value > 0 for value in result.metrics.values())


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_traced_run_prints_the_declared_per_layer_metrics(name, registry, tmp_path):
    result = layers.run_traced(
        workloads.WORKLOADS[name], workloads.SMOKE, seed=1, seconds=0.5,
        out_dir=tmp_path, registry=registry,
    )
    contract.check_names(result.metrics, contract.units(BENCHMARK, "per_layer"))
    assert result.correct and result.failed == 0
    trace = json.loads((tmp_path / f"{name}.trace.json").read_text())
    assert trace["spans"]
    assert set(trace["spans"][0]) == {"name", "start", "end", "parent", "request_id"}
