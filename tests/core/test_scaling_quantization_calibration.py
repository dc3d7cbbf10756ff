"""Tests for input scaling, LUT precision variants and calibration."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import ExactTable
from repro.core import functions
from repro.core.calibration import calibrate_lut, calibrate_network
from repro.core.conversion import network_to_lut
from repro.core.lut import LookupTable
from repro.core.quantization import Fp16LookupTable, Int32LookupTable
from repro.core.scaling import InputScaler


class TestInputScaler:
    def test_scale_is_power_of_two(self):
        scaler = InputScaler(scale_bits=10)
        assert scaler.scale == 1024.0
        assert scaler.output_scale == pytest.approx(32.0)

    def test_identity_for_exact_rsqrt(self):
        scaler = InputScaler()
        x = np.array([0.001, 0.5, 1.0, 10.0, 900.0])
        np.testing.assert_allclose(
            scaler.apply(x, ExactTable(functions.rsqrt)), functions.rsqrt(x), rtol=1e-12
        )

    def test_only_small_inputs_are_scaled(self):
        calls = []

        def spy(v):
            calls.append(np.asarray(v).copy())
            return functions.rsqrt(v)

        scaler = InputScaler(scale_bits=10, threshold=1.0)
        scaler.apply(np.array([0.25, 4.0]), ExactTable(spy))
        seen = calls[0]
        assert seen[0] == pytest.approx(256.0)  # 0.25 * 1024
        assert seen[1] == pytest.approx(4.0)

    def test_scaled_rsqrt_through_a_fitted_table(self, fitted_rsqrt):
        x = np.array([0.01, 0.1, 2.0, 55.0])
        scaled = InputScaler().apply(x, fitted_rsqrt.lut)
        rel = np.abs(scaled - functions.rsqrt(x)) / functions.rsqrt(x)
        assert np.all(rel < 0.2)

    def test_validation(self):
        with pytest.raises(ValueError):
            InputScaler(scale_bits=-1)
        with pytest.raises(ValueError):
            InputScaler(threshold=0.0)

    @given(st.floats(min_value=1e-4, max_value=0.99))
    @settings(max_examples=30, deadline=None)
    def test_scaling_identity_property(self, x):
        """sqrt(S) * rsqrt(S*x) == rsqrt(x) for the exact function."""
        scaler = InputScaler(scale_bits=10)
        out = scaler.apply(np.array([x]), ExactTable(functions.rsqrt))[0]
        assert out == pytest.approx(functions.rsqrt(np.array([x]))[0], rel=1e-9)


class TestQuantizedLuts:
    def _reference_lut(self):
        return LookupTable(
            breakpoints=[-1.0, 0.0, 1.0],
            slopes=[0.0, 0.5, 1.0, 1.0],
            intercepts=[0.0, 0.5, 0.0, 0.1],
            name="toy",
        )

    def test_symmetric_scale(self):
        # I-BERT's scale, max|v| / (2^(b-1) - 1), for the input span and the
        # slopes; an all-zero tensor gets 1.0 so dequantisation is a no-op.
        lut_q = Int32LookupTable(self._reference_lut(), input_range=(-2, 1), num_bits=8)
        assert lut_q.scales == (2.0 / 127, 1.0 / 127, (2.0 / 127) * (1.0 / 127))
        flat = LookupTable(breakpoints=[0.0], slopes=[0.0, 0.0], intercepts=[1.0, 2.0])
        assert Int32LookupTable(flat, input_range=(-1, 1)).scales[1] == 1.0

    @pytest.mark.parametrize("num_bits", [8, 16, 32])
    def test_int32_scales_follow_the_bit_width(self, fitted_gelu, num_bits):
        lut = fitted_gelu.lut
        lut_q = Int32LookupTable(lut, input_range=(-5, 4), num_bits=num_bits)
        limit = float(2 ** (num_bits - 1) - 1)
        input_scale, slope_scale, output_scale = lut_q.scales
        assert input_scale == 5.0 / limit
        assert slope_scale == float(np.max(np.abs(lut.slopes))) / limit
        assert output_scale == input_scale * slope_scale

    def test_fp16_close_to_fp32(self, fitted_gelu):
        lut16 = Fp16LookupTable(fitted_gelu.lut)
        x = np.linspace(-5, 5, 400)
        assert np.max(np.abs(lut16(x) - fitted_gelu.lut(x))) < 0.02
        assert isinstance(lut16, Fp16LookupTable)
        assert lut16.metadata["precision"] == "fp16"

    def test_int32_close_to_fp32(self, fitted_gelu):
        lut_q = Int32LookupTable(fitted_gelu.lut, input_range=(-5, 5))
        x = np.linspace(-5, 5, 400)
        assert np.max(np.abs(lut_q(x) - fitted_gelu.lut(x))) < 1e-3
        assert isinstance(lut_q, Int32LookupTable)
        assert lut_q.num_entries == fitted_gelu.lut.num_entries

    def test_int32_scales_exposed(self):
        lut_q = Int32LookupTable(self._reference_lut(), input_range=(-2, 2))
        input_scale, slope_scale, output_scale = lut_q.scales
        assert output_scale == pytest.approx(input_scale * slope_scale)

    def test_int32_invalid_range(self):
        with pytest.raises(ValueError, match="input_range"):
            Int32LookupTable(self._reference_lut(), input_range=(2, 2))

    def test_int32_low_bitwidth_degrades(self):
        lut = self._reference_lut()
        coarse = Int32LookupTable(lut, input_range=(-2, 2), num_bits=4)
        fine = Int32LookupTable(lut, input_range=(-2, 2), num_bits=32)
        x = np.linspace(-2, 2, 200)
        assert np.max(np.abs(coarse(x) - lut(x))) >= np.max(np.abs(fine(x) - lut(x)))


class TestCalibration:
    def test_calibration_improves_fit_on_shifted_distribution(self, fitted_rsqrt):
        # The deployed model only ever sees variances between 1 and 16: after
        # calibration the table should be better there than the generic fit.
        rng = np.random.default_rng(0)
        samples = rng.uniform(1.0, 16.0, size=20_000)
        calibrated = calibrate_network(fitted_rsqrt.network, functions.rsqrt, samples)
        grid = np.linspace(1.0, 16.0, 500)
        before = np.mean(np.abs(fitted_rsqrt.network(grid) - functions.rsqrt(grid)))
        after = np.mean(np.abs(calibrated(grid) - functions.rsqrt(grid)))
        assert after < before

    def test_calibrate_lut_returns_marked_table(self, fitted_rsqrt):
        samples = np.random.default_rng(1).uniform(1.0, 8.0, size=5000)
        lut = calibrate_lut(fitted_rsqrt.network, functions.rsqrt, samples, name="rsqrt")
        assert lut.metadata["calibrated"] is True
        assert lut.metadata["num_calibration_samples"] == 5000

    def test_original_network_untouched(self, fitted_gelu):
        before = fitted_gelu.network.first_weight.copy()
        samples = np.random.default_rng(2).uniform(-2, 2, size=2000)
        calibrate_network(fitted_gelu.network, functions.gelu, samples)
        np.testing.assert_allclose(fitted_gelu.network.first_weight, before)

    def test_calibration_is_reproducible(self, fitted_gelu):
        # Subsampling draws from a fixed seed and the solve is closed-form:
        # the same samples always give the same table.
        samples = np.random.default_rng(3).uniform(-2, 2, size=2000)
        first = calibrate_network(fitted_gelu.network, functions.gelu, samples)
        second = calibrate_network(fitted_gelu.network, functions.gelu, samples)
        grid = np.linspace(-3, 3, 101)
        assert np.array_equal(first(grid), second(grid))

    def test_single_valued_samples_return_the_input(self, fitted_gelu):
        # One distinct value spans no range to place knots in.
        calibrated = calibrate_network(fitted_gelu.network, functions.gelu, np.full(500, 0.7))
        assert calibrated is not fitted_gelu.network
        for name in ("first_weight", "first_bias", "second_weight", "output_bias"):
            np.testing.assert_array_equal(
                getattr(calibrated, name), getattr(fitted_gelu.network, name)
            )

    @pytest.mark.parametrize("name, size, seed", [("gelu", 20_000, 2), ("exp", 5000, 0)])
    def test_a_kept_network_keeps_its_bits(self, fast_registry, name, size, seed):
        # Samples over the whole training range: the generic fit wins the
        # guard, and the copy returned is the input's bits, not a round trip
        # through the solve's normalisation.
        fitted = fast_registry.get(name)
        low, high = functions.get_training_range(name)
        samples = np.random.default_rng(seed).uniform(low, high, size=size)
        kept = calibrate_network(fitted.network, functions.get_target_function(name), samples)
        assert kept is not fitted.network
        for field in ("first_weight", "first_bias", "second_weight", "output_bias"):
            assert np.array_equal(getattr(kept, field), getattr(fitted.network, field)), field
        table = network_to_lut(kept)
        for field in ("breakpoints", "slopes", "intercepts"):
            assert np.array_equal(getattr(table, field), getattr(fitted.lut, field)), field

    def test_empty_samples_rejected(self, fitted_gelu):
        with pytest.raises(ValueError, match="non-empty"):
            calibrate_network(fitted_gelu.network, functions.gelu, np.array([]))
