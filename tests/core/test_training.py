"""Tests for dataset sampling, Adam, initialisation and the fitting pipeline."""

import numpy as np
import pytest

from repro.core import functions
from repro.core.initialization import INIT_SPECS, InitSpec, get_init_spec, initialize_network
from repro.core.training import (
    AdamOptimizer,
    TrainingConfig,
    curvature_anchors,
    fit_network,
    l1_loss,
    sample_training_data,
)

FAST = TrainingConfig(
    hidden_size=15, num_samples=4000, batch_size=2048, epochs=10, learning_rate=1e-3,
    seed=0, num_restarts=1,
)


class TestConfigValidation:
    def test_rejects_bad_sampling(self):
        with pytest.raises(ValueError, match="sampling"):
            TrainingConfig(sampling="weird")

    def test_rejects_nonpositive_sizes(self):
        with pytest.raises(ValueError):
            TrainingConfig(hidden_size=0)
        with pytest.raises(ValueError):
            TrainingConfig(epochs=0)


class TestSampling:
    def test_uniform_range(self, rng):
        x, y = sample_training_data(functions.gelu, (-5, 5), 1000, rng)
        assert x.min() >= -5 and x.max() <= 5
        np.testing.assert_allclose(y, functions.gelu(x))

    def test_log_sampling_positive_only(self, rng):
        x, _ = sample_training_data(functions.rsqrt, (0.1, 1024), 1000, rng, sampling="log")
        assert np.all(x >= 0.1) and np.all(x <= 1024)
        # Log sampling concentrates mass at small values.
        assert np.median(x) < 100

    def test_log_sampling_rejects_nonpositive_range(self, rng):
        with pytest.raises(ValueError, match="positive"):
            sample_training_data(functions.rsqrt, (-1, 10), 100, rng, sampling="log")

    def test_neg_log_sampling(self, rng):
        x, _ = sample_training_data(functions.exp, (-256, 0), 1000, rng, sampling="neg_log")
        assert np.all(x <= 0) and np.all(x >= -256)
        assert np.median(x) > -30  # concentrated near zero

    def test_neg_log_rejects_positive_range(self, rng):
        with pytest.raises(ValueError, match="non-positive"):
            sample_training_data(functions.exp, (-1, 2), 100, rng, sampling="neg_log")


class TestLosses:
    def test_l1(self):
        loss, grad = l1_loss(np.array([1.0, -1.0]), np.array([0.0, 0.0]))
        assert loss == pytest.approx(1.0)
        np.testing.assert_allclose(grad, [0.5, -0.5])


class TestAdam:
    def test_minimises_quadratic(self):
        opt = AdamOptimizer(learning_rate=0.1)
        params = {"w": np.array([5.0, -3.0])}
        for _ in range(500):
            grads = {"w": 2 * params["w"]}
            params = opt.step(params, grads)
        np.testing.assert_allclose(params["w"], 0.0, atol=1e-3)

    def test_rejects_nonpositive_lr(self):
        with pytest.raises(ValueError):
            AdamOptimizer(learning_rate=0.0)


class TestInitialization:
    def test_table1_specs(self):
        assert INIT_SPECS["exp"].weight_sign == "positive"
        assert INIT_SPECS["reciprocal"].weight_sign == "negative"
        assert INIT_SPECS["rsqrt"].bias_sign == "positive"
        assert get_init_spec("unknown-function") == InitSpec()

    def test_sign_constraints_applied(self):
        rng = np.random.default_rng(0)
        net = initialize_network("exp", 8, (-256, 0), rng=rng)
        assert np.all(net.params.first_weight > 0)
        assert np.all(net.params.first_bias > 0)
        net = initialize_network("reciprocal", 8, (1, 1024), rng=rng)
        assert np.all(net.params.first_weight < 0)

    def test_breakpoints_cover_range(self):
        rng = np.random.default_rng(1)
        net = initialize_network("gelu", 15, (-5, 5), rng=rng)
        bps = net.breakpoints()
        assert bps.min() > -5.5 and bps.max() < 5.5

    def test_explicit_anchors(self):
        anchors = np.array([-1.0, 0.0, 1.0])
        net = initialize_network("gelu", 3, (-5, 5), rng=np.random.default_rng(0), anchors=anchors)
        np.testing.assert_allclose(np.sort(net.breakpoints()), anchors, atol=1e-9)

    def test_anchor_length_mismatch(self):
        with pytest.raises(ValueError, match="anchors"):
            initialize_network("gelu", 3, (-5, 5), anchors=np.array([0.0]))

    def test_invalid_spec_value(self):
        with pytest.raises(ValueError, match="weight_sign"):
            InitSpec(weight_sign="sometimes")


class TestCurvatureAnchors:
    def test_quadratic_gives_uniform_anchors(self):
        anchors = curvature_anchors(lambda x: x**2, (-1, 1), 9, grid_points=20_000)
        # Constant curvature -> approximately uniform spacing.
        spacing = np.diff(anchors)
        assert spacing.max() / spacing.min() < 1.5

    def test_reciprocal_concentrates_at_low_end(self):
        anchors = curvature_anchors(lambda x: 1.0 / x, (1, 1024), 15, grid_points=50_000)
        assert np.sum(anchors < 100) >= 8

    def test_sorted_output(self):
        anchors = curvature_anchors(np.exp, (-10, 0), 7)
        assert np.all(np.diff(anchors) > 0)

    def test_validation(self):
        with pytest.raises(ValueError):
            curvature_anchors(np.exp, (1, 0), 3)
        with pytest.raises(ValueError):
            curvature_anchors(np.exp, (0, 1), 0)


class TestFitNetwork:
    def test_gelu_fit_quality(self):
        result = fit_network("gelu", config=FAST)
        grid = np.linspace(-5, 5, 500)
        error = np.mean(np.abs(result.network(grid) - functions.gelu(grid)))
        assert error < 0.02
        assert result.function_name == "gelu"
        assert len(result.loss_history) == FAST.epochs

    def test_custom_function_and_range(self):
        result = fit_network(
            "sigmoid",
            config=FAST,
            function=lambda x: 1.0 / (1.0 + np.exp(-x)),
            input_range=(-8.0, 8.0),
        )
        grid = np.linspace(-8, 8, 200)
        error = np.mean(np.abs(result.network(grid) - 1.0 / (1.0 + np.exp(-grid))))
        assert error < 0.03

    def test_deterministic_given_seed(self):
        a = fit_network("gelu", config=FAST)
        b = fit_network("gelu", config=FAST)
        np.testing.assert_allclose(a.network.params.first_weight, b.network.params.first_weight)
        np.testing.assert_allclose(a.network.params.second_weight, b.network.params.second_weight)
