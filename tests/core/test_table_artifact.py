"""The tracked NN-LUT table artifact (``src/repro/core/tables/nn_lut16.json``).

A default registry loads the four served tables from that file instead of
fitting them.  These tests hold the file to the fit: a refit reproduces every
row bit for bit, the stored signatures are today's recipe, a tampered row is
refused, and a process that only serves never imports scipy.
"""

from __future__ import annotations

import copy
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from repro.api import BackendSpec, InferenceSession, SessionConfig
from repro.core import registry as registry_module
from repro.core.functions import TRAINING_RANGES
from repro.core.registry import (
    FIT_RECIPES,
    SERVED_PRIMITIVES,
    TABLES_PATH,
    LutRegistry,
    fit_lut,
    table_sha256,
)
from repro.experiments import __main__ as experiments_cli

SRC = Path(registry_module.__file__).resolve().parents[2]


def _rows() -> dict:
    return json.loads(TABLES_PATH.read_text())["tables"]


def _decode(values) -> np.ndarray:
    return np.array([float.fromhex(value) for value in values])


def _assert_bitwise(name: str, label: str, actual, expected) -> None:
    actual, expected = np.asarray(actual, np.float64), np.asarray(expected, np.float64)
    if actual.tobytes() != expected.tobytes():
        gap = np.max(np.abs(actual - expected)) if actual.shape == expected.shape else "n/a"
        pytest.fail(f"{name} {label} differs (max |diff| {gap}, shapes "
                    f"{actual.shape} / {expected.shape})")


def test_artifact_holds_the_served_primitives():
    assert tuple(_rows()) == SERVED_PRIMITIVES


@pytest.fixture(scope="module")
def refits() -> dict:
    return {name: fit_lut(name, num_entries=16) for name in SERVED_PRIMITIVES}


@pytest.mark.parametrize("name", SERVED_PRIMITIVES)
def test_refit_equals_the_artifact_row_bitwise(name, refits):
    row, fitted = _rows()[name], refits[name]
    params = fitted.network.params
    for field in ("first_weight", "first_bias", "second_weight"):
        _assert_bitwise(name, field, getattr(params, field), _decode(row["network"][field]))
    _assert_bitwise(
        name, "output_bias", params.output_bias, float.fromhex(row["network"]["output_bias"])
    )
    _assert_bitwise(
        name, "final_loss", fitted.training_result.final_loss, float.fromhex(row["final_loss"])
    )
    loaded = LutRegistry().get(name, 16)
    for field in ("breakpoints", "slopes", "intercepts"):
        _assert_bitwise(name, field, getattr(fitted.lut, field), getattr(loaded.lut, field))
    assert loaded.lut.metadata == fitted.lut.metadata
    assert loaded.network.trainable_output_bias == fitted.network.trainable_output_bias


def test_fit_tables_writes_the_tracked_file(monkeypatch, tmp_path, refits, capsys):
    monkeypatch.setattr(registry_module, "fit_lut", lambda name: refits[name])
    monkeypatch.setattr(registry_module, "TABLES_PATH", tmp_path / TABLES_PATH.name)
    assert experiments_cli.main(["fit-tables"]) == 0
    assert (tmp_path / TABLES_PATH.name).read_bytes() == TABLES_PATH.read_bytes()
    digest = table_sha256(refits[name].lut for name in SERVED_PRIMITIVES)
    assert capsys.readouterr().out.split()[-1] == digest


@pytest.mark.parametrize("name", SERVED_PRIMITIVES)
def test_stored_signature_is_todays_recipe(name):
    # Spelled out from the recipe's parts rather than through fit_signature,
    # so a recipe edit without a regenerated artifact fails here.
    assert _rows()[name]["signature"] == {
        "num_entries": 16,
        "input_range": list(TRAINING_RANGES[name]),
        "recipe": FIT_RECIPES[name],
    }


def test_other_requests_are_fitted(monkeypatch):
    fitted = []
    monkeypatch.setattr(
        registry_module, "fit_lut", lambda name, **kwargs: fitted.append(name) or name
    )
    registry = LutRegistry()
    assert registry.get("gelu", 8) == "gelu"
    assert registry.get("erf", 16) == "erf"
    rows = copy.deepcopy(_rows())
    rows["exp"]["signature"]["recipe"]["sampling"] = "uniform"
    monkeypatch.setattr(registry_module, "_table_rows", lambda: rows)
    assert LutRegistry().get("exp", 16) == "exp"
    assert fitted == ["gelu", "erf", "exp"]
    assert registry.get("rsqrt", 16).network is not None  # the artifact, no fit


@pytest.mark.parametrize(
    "tamper",
    [
        lambda row: row["network"]["first_bias"].__setitem__(
            3, (float.fromhex(row["network"]["first_bias"][3]) * (1 + 1e-15)).hex()
        ),
        lambda row: row["network"].__setitem__("output_bias", (0.5).hex()),
        lambda row: row.__setitem__("sha256", "0" * 64),
    ],
    ids=["first_bias", "output_bias", "sha256"],
)
def test_tampered_row_raises_on_load(monkeypatch, tamper):
    rows = copy.deepcopy(_rows())
    tamper(rows["gelu"])
    monkeypatch.setattr(registry_module, "_table_rows", lambda: rows)
    with pytest.raises(ValueError, match="sha256"):
        LutRegistry().get("gelu", 16)
    assert LutRegistry().get("exp", 16).lut.num_entries == 16


def test_serving_process_never_imports_scipy():
    script = textwrap.dedent(
        """
        import math, sys
        import numpy as np
        from repro.api import BackendSpec, InferenceSession, SessionConfig
        from repro.core import functions
        from repro.core.registry import LutRegistry

        session = InferenceSession(
            SessionConfig(model_family="tiny"), BackendSpec.nn_lut(), LutRegistry()
        )
        session.forward([np.arange(1, 9), np.arange(3, 8)])
        assert "scipy" not in sys.modules, "serving imported scipy"
        x = np.array([-2.0, -0.5, 0.0, 1.0, 3.0])
        exact = [0.5 * v * (1.0 + math.erf(v / math.sqrt(2.0))) for v in x]
        np.testing.assert_allclose(functions.gelu(x), exact, rtol=1e-15, atol=1e-300)
        assert "scipy.special" in sys.modules
        """
    )
    result = subprocess.run(
        [sys.executable, "-c", script],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr


def test_calibration_is_identical_on_loaded_and_fitted_tables(refits):
    loaded, fitted = LutRegistry(), LutRegistry()
    for name, primitive in refits.items():
        loaded.get(name, 16)
        fitted.register(name, primitive)
    rng = np.random.default_rng(0)
    samples = [rng.integers(0, 100, size=length) for length in (8, 12, 8)]
    tables = [
        InferenceSession(
            SessionConfig(model_family="tiny"), BackendSpec.nn_lut(), registry
        ).calibrate(samples)
        for registry in (loaded, fitted)
    ]
    assert set(tables[0]) == set(SERVED_PRIMITIVES)
    for name in SERVED_PRIMITIVES:
        for field in ("breakpoints", "slopes", "intercepts"):
            _assert_bitwise(
                name, f"calibrated {field}",
                getattr(tables[0][name], field), getattr(tables[1][name], field),
            )
