"""Tests for the composite operators (GELU/Softmax/LayerNorm) and the registry."""

import numpy as np
import pytest

from oracles import ExactTable
from repro.core import functions
from repro.core.approximators import (
    ExactGelu,
    ExactLayerNorm,
    ExactSoftmax,
    LutGelu,
    LutLayerNorm,
    LutSoftmax,
)
from repro.core.registry import LutRegistry, fit_lut
from repro.core.scaling import InputScaler
from repro.core.training import TrainingConfig


class TestLutGelu:
    def test_accuracy_against_exact(self, fitted_gelu, rng):
        op = LutGelu(fitted_gelu.lut)
        x = rng.normal(0.0, 2.0, size=(16, 32))
        assert np.mean(np.abs(op(x) - functions.gelu(x))) < 0.02

    def test_saturation_outside_training_range(self, fitted_gelu):
        op = LutGelu(fitted_gelu.lut, clip_range=(-5, 5))
        x = np.array([-50.0, -10.0, 10.0, 50.0])
        np.testing.assert_allclose(op(x), [0.0, 0.0, 10.0, 50.0], atol=1e-9)

    def test_no_clipping_mode(self, fitted_gelu):
        op = LutGelu(fitted_gelu.lut, clip_range=None)
        x = np.linspace(-4, 4, 50)
        np.testing.assert_allclose(op(x), fitted_gelu.lut(x))


class TestLutSoftmax:
    def test_rows_approximately_normalised(self, fitted_exp, fitted_reciprocal, rng):
        op = LutSoftmax(fitted_exp.lut, fitted_reciprocal.lut)
        logits = rng.normal(0.0, 3.0, size=(8, 64))
        out = op(logits)
        assert np.all(out >= 0.0)
        # The row sum deviates from 1 by the relative error of the 1/x table
        # (a row-constant factor that downstream LayerNorm largely removes).
        np.testing.assert_allclose(out.sum(axis=-1), 1.0, atol=0.25)

    def test_close_to_exact(self, fitted_exp, fitted_reciprocal, rng):
        op = LutSoftmax(fitted_exp.lut, fitted_reciprocal.lut)
        logits = rng.normal(0.0, 2.0, size=(4, 32))
        reference = functions.softmax(logits)
        assert np.mean(np.abs(op(logits) - reference)) < 0.01

    def test_preserves_argmax(self, fitted_exp, fitted_reciprocal, rng):
        op = LutSoftmax(fitted_exp.lut, fitted_reciprocal.lut)
        logits = rng.normal(0.0, 3.0, size=(32, 16))
        np.testing.assert_array_equal(
            np.argmax(op(logits), axis=-1), np.argmax(functions.softmax(logits), axis=-1)
        )

    def test_axis_argument(self, fitted_exp, fitted_reciprocal, rng):
        op = LutSoftmax(fitted_exp.lut, fitted_reciprocal.lut)
        logits = rng.normal(size=(5, 7))
        np.testing.assert_allclose(op(logits, axis=0).sum(axis=0), 1.0, atol=0.15)

    def test_works_with_exact_scalars(self):
        op = LutSoftmax(ExactTable(functions.exp), ExactTable(functions.reciprocal))
        logits = np.array([[1.0, 2.0, 3.0]])
        np.testing.assert_allclose(op(logits), functions.softmax(logits), rtol=1e-10)


class TestLutLayerNorm:
    def test_close_to_exact_for_moderate_variance(self, fitted_rsqrt, rng):
        op = LutLayerNorm(fitted_rsqrt.lut, scaler=InputScaler())
        x = rng.normal(0.3, 1.5, size=(16, 128))
        assert np.mean(np.abs(op(x) - functions.layer_norm(x))) < 0.05

    def test_input_scaling_helps_small_variance(self, fitted_rsqrt, rng):
        x = rng.normal(0.0, 0.05, size=(16, 128))  # variance ~ 0.0025 << 1
        with_scaling = LutLayerNorm(fitted_rsqrt.lut, scaler=InputScaler())
        without_scaling = LutLayerNorm(fitted_rsqrt.lut, scaler=None)
        reference = functions.layer_norm(x)
        err_with = np.mean(np.abs(with_scaling(x) - reference))
        err_without = np.mean(np.abs(without_scaling(x) - reference))
        assert err_with < err_without

    def test_affine_parameters_passed_through(self, fitted_rsqrt, rng):
        op = LutLayerNorm(fitted_rsqrt.lut, scaler=InputScaler())
        x = rng.normal(size=(4, 32))
        gamma = np.full(32, 2.0)
        beta = np.full(32, 0.5)
        np.testing.assert_allclose(op(x, gamma=gamma, beta=beta), op(x) * 2.0 + 0.5, rtol=1e-9)


class TestExactWrappers:
    def test_exact_ops_match_functions(self, rng):
        x = rng.normal(size=(3, 9))
        np.testing.assert_allclose(ExactGelu()(x), functions.gelu(x))
        np.testing.assert_allclose(ExactSoftmax()(x), functions.softmax(x))
        np.testing.assert_allclose(ExactLayerNorm()(x), functions.layer_norm(x))


class TestRegistry:
    def test_fit_lut_entry_count(self):
        config = TrainingConfig(hidden_size=7, num_samples=2000, epochs=5, num_restarts=1)
        primitive = fit_lut("gelu", num_entries=8, config=config)
        assert primitive.lut.num_entries == 8
        assert primitive.network.hidden_size == 7

    def test_fit_lut_rejects_tiny_tables(self):
        with pytest.raises(ValueError, match="num_entries"):
            fit_lut("gelu", num_entries=1)

    def test_registry_caches(self, fast_registry):
        first = fast_registry.get("gelu", num_entries=16)
        second = fast_registry.get("gelu", num_entries=16)
        assert first is second
        assert "gelu" in fast_registry
        assert len(fast_registry) >= 1

    def test_registry_distinguishes_entry_counts(self):
        config = TrainingConfig(hidden_size=3, num_samples=1000, epochs=3, num_restarts=1)
        registry = LutRegistry(training_config=config)
        a = registry.get("gelu", num_entries=4)
        b = registry.get("gelu", num_entries=6)
        assert a.lut.num_entries == 4
        assert b.lut.num_entries == 6

    def test_register_override(self, fast_registry, fitted_gelu):
        registry = LutRegistry(training_config=fast_registry.training_config)
        registry.register("custom", fitted_gelu, num_entries=16)
        assert registry.get("custom", num_entries=16) is fitted_gelu
        registry.clear()
        assert len(registry) == 0
