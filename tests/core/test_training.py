"""Tests for the training grid, Table-1 initialisation and the closed-form fit."""

import struct

import numpy as np
import pytest

from repro.core import calibration, functions
from repro.core.registry import FIT_RECIPES, SERVED_PRIMITIVES, LutRegistry, fit_lut
from repro.core.training import (
    _HINGE_DIRECTIONS,
    _training_grid,
    curvature_anchors,
    fit_network,
)


class TestTrainingGrid:
    def test_uniform_range(self):
        x = _training_grid((-5, 5))
        assert (x.min(), x.max()) == (-5, 5)
        np.testing.assert_allclose(np.diff(x), np.diff(x)[0])

    def test_log_grid_positive_only(self):
        x = _training_grid((0.1, 1024), sampling="log")
        assert np.all(x >= 0.1) and np.all(x <= 1024)
        # A log grid concentrates points at small values.
        assert np.median(x) < 100

    def test_log_grid_rejects_nonpositive_range(self):
        with pytest.raises(ValueError, match="positive"):
            _training_grid((-1, 10), sampling="log")

    def test_neg_log_grid(self):
        x = _training_grid((-256, 0), sampling="neg_log")
        assert np.all(x <= 0) and np.all(x >= -256)
        assert np.median(x) > -30  # concentrated near zero

    def test_neg_log_rejects_positive_range(self):
        with pytest.raises(ValueError, match="non-positive"):
            _training_grid((-1, 2), sampling="neg_log")

    def test_a_tenth_stays_uniform(self):
        x = _training_grid((1, 1024), sampling="log")
        assert np.sum(x > 512) >= x.size // 20

    def test_rejects_bad_sampling_and_range(self):
        with pytest.raises(ValueError, match="sampling"):
            _training_grid((0, 1), sampling="weird")
        with pytest.raises(ValueError, match="high > low"):
            _training_grid((1, 1))


class TestTable1Directions:
    def test_table1_weight_signs(self):
        # Table 1: GELU "random", exp "positive", 1/x and 1/sqrt "negative".
        assert _HINGE_DIRECTIONS == {"gelu": 1.0, "exp": 1.0, "reciprocal": -1.0, "rsqrt": -1.0}

    @pytest.mark.parametrize("name", [*_HINGE_DIRECTIONS, "erf", "unknown-function"])
    def test_one_direction_per_primitive(self, name):
        network, _ = fit_network(name, hidden_size=7, function=np.sqrt, input_range=(1.0, 4.0))
        direction = _HINGE_DIRECTIONS.get(name, 1.0)
        np.testing.assert_array_equal(np.sign(network.first_weight), np.full(7, direction))

    def test_rejects_no_hidden_neurons(self):
        with pytest.raises(ValueError, match="num_anchors"):
            fit_network("gelu", hidden_size=0)


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


def network_bytes(network):
    return b"".join(
        np.asarray(a, dtype=np.float64).tobytes()
        for a in (
            network.first_weight, network.first_bias, network.second_weight,
            [network.output_bias],
        )
    )


class TestFitNetwork:
    def test_gelu_fit_quality(self):
        network, loss = fit_network("gelu")
        grid = np.linspace(-5, 5, 500)
        error = np.mean(np.abs(network(grid) - functions.gelu(grid)))
        assert error < 0.002
        x = _training_grid(functions.get_training_range("gelu"))
        assert loss == np.mean(np.abs(network(x) - functions.gelu(x)))

    def test_custom_function_and_range(self):
        network, _ = fit_network(
            "sigmoid",
            function=lambda x: 1.0 / (1.0 + np.exp(-x)),
            input_range=(-8.0, 8.0),
        )
        grid = np.linspace(-8, 8, 200)
        error = np.mean(np.abs(network(grid) - 1.0 / (1.0 + np.exp(-grid))))
        assert error < 0.01

    def test_deterministic(self):
        (a, a_loss), (b, b_loss) = (
            fit_network("rsqrt", sampling="log", relative=True) for _ in range(2)
        )
        assert network_bytes(a) == network_bytes(b)
        assert struct.pack("d", a_loss) == struct.pack("d", b_loss)

    @pytest.mark.parametrize("entries", [4, 8, 16, 32])
    @pytest.mark.parametrize("name", SERVED_PRIMITIVES)
    def test_output_layer_is_the_least_squares_optimum(self, name, entries):
        """Twin of the ridge normal-equations solve: SVD least squares on the
        same hinges, grid and weights finds no smaller weighted residual."""
        recipe = FIT_RECIPES[name]
        network = fit_lut(name, entries).network
        x = _training_grid(functions.get_training_range(name), recipe["sampling"])
        y = functions.get_target_function(name)(x)
        root = 1.0 / np.abs(y) if recipe["relative"] else np.ones_like(y)
        design = np.concatenate([network.hidden_activations(x), np.ones((x.size, 1))], axis=1)
        design *= root[:, None]
        solution = np.linalg.lstsq(design, y * root, rcond=None)[0]
        optimum = np.linalg.norm(design @ solution - y * root)
        residual = np.linalg.norm(root * (network.forward(x) - y))
        assert residual <= optimum * (1 + 1e-6)

    @pytest.mark.parametrize("name", SERVED_PRIMITIVES)
    def test_knots_are_the_curvature_anchors(self, name):
        recipe = FIT_RECIPES[name]
        network = fit_lut(name, 16).network
        low, high = functions.get_training_range(name)
        assert np.all(np.sign(network.first_weight) == _HINGE_DIRECTIONS[name])
        function = functions.get_target_function(name)
        x = _training_grid((low, high), recipe["sampling"])
        scale = np.max(np.abs(function(x)))
        center, half_width = (high + low) / 2, (high - low) / 2
        anchors = curvature_anchors(
            lambda z: function(z * half_width + center) / scale, (-1.0, 1.0), 15,
            relative=recipe["relative"],
        )
        np.testing.assert_allclose(
            network.breakpoints(), anchors * half_width + center, rtol=1e-12, atol=1e-12
        )

    #: Dense-grid error of the served 16-entry tables, with ~15 % headroom:
    #: mean absolute for GELU and exp, mean relative for 1/x and 1/sqrt.
    #: The Adam recipe these tables replaced read 2.66e-3, 5.6e-5, 3.82e-2
    #: and 5.46e-2.
    SERVED_CEILINGS = {"gelu": 1.0e-3, "exp": 2.0e-5, "reciprocal": 0.046, "rsqrt": 0.066}

    @pytest.mark.parametrize("name", SERVED_PRIMITIVES)
    def test_served_table_error_ceiling(self, name):
        lut = LutRegistry().lut(name, 16)
        low, high = functions.get_training_range(name)
        function = functions.get_target_function(name)
        if name in ("gelu", "exp"):
            grid = np.linspace(low, high, 200_001)
            error = np.mean(np.abs(lut(grid) - function(grid)))
        else:
            grid = np.geomspace(low, high, 200_001)
            error = np.mean(np.abs(lut(grid) - function(grid)) / function(grid))
        assert error < self.SERVED_CEILINGS[name]


class TestCalibrationSolve:
    def test_knots_follow_the_samples(self, fitted_gelu):
        samples = np.random.default_rng(7).normal(0.0, 0.5, size=9000)
        calibrated = calibration.calibrate_network(fitted_gelu.network, functions.gelu, samples)
        knots = calibrated.breakpoints()
        assert knots[0] == pytest.approx(samples.min(), abs=1e-12)
        assert knots[-1] < samples.max()
        assert np.all(calibrated.first_weight > 0)

        def error(network):
            return np.mean(np.abs(network(samples) - functions.gelu(samples)))

        assert error(calibrated) < 0.8 * error(fitted_gelu.network)

    def test_a_two_entry_table_keeps_its_one_knot_at_the_span_end(self):
        network = fit_lut("rsqrt", 2).network
        samples = np.random.default_rng(7).uniform(1.0, 16.0, size=2000)
        calibrated = calibration.calibrate_network(network, functions.rsqrt, samples)
        np.testing.assert_allclose(calibrated.breakpoints(), [samples.max()], rtol=1e-12)
        assert np.all(calibrated.first_weight < 0)

    def test_a_worse_solve_keeps_the_input(self, monkeypatch, fitted_gelu):
        solve = calibration._solve_network

        def zero_output_layer(*args, **kwargs):
            network = solve(*args, **kwargs)
            network.second_weight = np.zeros(network.hidden_size)
            network.output_bias = 0.0
            return network

        monkeypatch.setattr(calibration, "_solve_network", zero_output_layer)
        samples = np.random.default_rng(7).normal(0.0, 1.0, size=9000)
        kept = calibration.calibrate_network(fitted_gelu.network, functions.gelu, samples)
        assert kept is not fitted_gelu.network
        assert network_bytes(kept) == network_bytes(fitted_gelu.network)
