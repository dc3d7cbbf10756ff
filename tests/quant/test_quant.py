"""Tests for the fixed-point and FP16 numeric helpers."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.quant import (
    compute_scale,
    fake_quantize,
    fp16_matmul,
    fp16_roundtrip,
    quantize,
    quantized_matmul,
    to_fp16,
)


class TestFixedPoint:
    def test_scale_of_zeros_is_one(self):
        assert compute_scale(np.zeros(10)) == 1.0

    def test_scale_of_empty_is_one(self):
        assert compute_scale(np.array([]), num_bits=32) == 1.0

    def test_roundtrip_error_bounded_by_half_step(self, rng):
        values = rng.normal(0, 3, size=1000)
        scale = compute_scale(values, num_bits=8)
        assert scale == np.max(np.abs(values)) / 127
        recovered = fake_quantize(values, num_bits=8)
        assert np.max(np.abs(recovered - values)) <= scale / 2 + 1e-12

    def test_quantize_respects_bit_range(self, rng):
        q = quantize(rng.normal(size=500), num_bits=8)
        assert q.data.max() <= 127 and q.data.min() >= -127

    def test_higher_bits_lower_error(self, rng):
        values = rng.normal(size=500)
        err8 = np.abs(fake_quantize(values, 8) - values).max()
        err16 = np.abs(fake_quantize(values, 16) - values).max()
        assert err16 < err8

    def test_quantized_matmul_close_to_float(self, rng):
        a = rng.normal(size=(16, 32))
        w = rng.normal(size=(32, 8))
        exact = a @ w
        approx = quantized_matmul(a, w)
        relative = np.abs(approx - exact) / (np.abs(exact) + 1e-3)
        assert np.median(relative) < 0.05

    def test_num_bits_validation(self):
        with pytest.raises(ValueError):
            compute_scale(np.ones(3), num_bits=1)

    @given(hnp.arrays(np.float64, 32, elements=st.floats(-100, 100)))
    @settings(max_examples=40, deadline=None)
    def test_fake_quantize_idempotent(self, values):
        once = fake_quantize(values, num_bits=8)
        twice = fake_quantize(once, num_bits=8)
        np.testing.assert_allclose(once, twice, atol=1e-9)


class TestFp16:
    def test_roundtrip_precision(self):
        values = np.array([1.0, 0.1, 3.14159, 1000.0])
        assert np.max(np.abs(fp16_roundtrip(values) - values) / values) < 1e-3

    def test_to_fp16_dtype(self):
        assert to_fp16(np.ones(3)).dtype == np.float16

    def test_fp16_matmul_close_to_fp64(self, rng):
        a = rng.normal(size=(8, 16))
        b = rng.normal(size=(16, 4))
        exact = a @ b
        approx = fp16_matmul(a, b)
        assert np.max(np.abs(approx - exact)) < 0.05
