"""Equivalence tests: cached-quantized Linear vs the seed per-call path.

The seed behaviour (``matmul_with_precision`` re-deriving the weight operand
on every call) is still available via ``cache_weights=False``; the cached
path must reproduce it exactly in float64 for all three precisions, and the
float32 engine must stay within float32 rounding of it.
"""

import struct

import numpy as np
import pytest

from repro.api import BackendSpec, build_backend
from repro.core.kernels import native_available
from repro.quant.fixed_point import compute_scale, quantize, quantized_matmul
from repro.transformer import (
    Linear,
    TransformerConfig,
    matmul_with_precision,
    tiny_test_config,
)
from repro.transformer.models import EncoderModel

PRECISIONS = ("fp32", "fp16", "int8")

#: Both ComputeKernels; the native one skips on hosts without a C toolchain.
KERNELS = (
    "numpy",
    pytest.param(
        "native",
        marks=pytest.mark.skipif(
            not native_available(), reason="compiled native kernel unavailable"
        ),
    ),
)


def seed_linear_call(layer, x):
    """The seed ``Linear.__call__``: per-call weight preparation."""
    return matmul_with_precision(x, layer.weight, layer.precision) + layer.bias


@pytest.fixture()
def layer_and_inputs(rng):
    layer = Linear.initialize(24, 16, rng)
    x = rng.normal(size=(6, 5, 24))
    return layer, x


class TestCachedLinearBitCompatibility:
    @pytest.mark.parametrize("precision", PRECISIONS)
    def test_float64_engine_matches_seed_exactly(self, layer_and_inputs, precision):
        layer, x = layer_and_inputs
        layer.precision = precision
        assert np.array_equal(layer(x), seed_linear_call(layer, x))

    @pytest.mark.parametrize("precision", PRECISIONS)
    def test_cache_disabled_equals_cache_enabled(self, rng, precision):
        cached = Linear.initialize(16, 8, rng, precision=precision)
        uncached = Linear(
            weight=cached.weight,
            bias=cached.bias,
            precision=precision,
            cache_weights=False,
        )
        x = rng.normal(size=(32, 16))
        first = cached(x)  # populates the cache
        second = cached(x)  # served from the cache
        assert np.array_equal(first, second)
        assert np.array_equal(first, uncached(x))

    @pytest.mark.parametrize("precision", PRECISIONS)
    def test_float32_engine_close_to_seed(self, rng, precision):
        layer = Linear.initialize(24, 16, rng, precision=precision, compute_dtype="float32")
        x = rng.normal(size=(6, 24))
        fast = layer(x.astype(np.float32))
        assert fast.dtype == np.float32
        reference = seed_linear_call(layer, x)
        # int8 additionally quantises activations, whose float32 rounding can
        # flip an integer level; fp paths see only float32 arithmetic noise.
        tol = 5e-2 if precision == "int8" else 1e-4
        assert np.max(np.abs(fast - reference)) < tol

    def test_empty_and_large_batches(self, rng):
        layer = Linear.initialize(8, 4, rng, precision="int8")
        empty = np.empty((0, 8))
        assert layer(empty).shape == (0, 4)
        large = rng.normal(size=(4096, 8))
        assert np.array_equal(layer(large), seed_linear_call(layer, large))


class TestCacheLifecycle:
    def test_weight_operand_prepared_once(self, rng, monkeypatch):
        layer = Linear.initialize(8, 8, rng, precision="int8")
        calls = []
        original = layer._kernel_obj.quantize_pack

        def counting_quantize(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(layer._kernel_obj, "quantize_pack", counting_quantize)
        x = rng.normal(size=(4, 8))
        layer(x)
        layer(x)
        layer(x)
        assert len(calls) == 1  # the weight tensor, quantised exactly once

    def test_invalidate_after_in_place_weight_edit(self, rng):
        layer = Linear.initialize(8, 8, rng, precision="int8")
        x = rng.normal(size=(4, 8))
        before = layer(x)
        layer.weight[...] = layer.weight * 2.0  # in-place: cache goes stale
        assert np.array_equal(layer(x), before)  # stale by design...
        layer.invalidate()  # ...until the calibration flow invalidates
        assert np.array_equal(layer(x), seed_linear_call(layer, x))

    def test_rebinding_weight_invalidates_automatically(self, rng):
        layer = Linear.initialize(8, 8, rng, precision="int8")
        x = rng.normal(size=(4, 8))
        layer(x)
        layer.weight = np.asarray(layer.weight * 2.0)
        assert np.array_equal(layer(x), seed_linear_call(layer, x))

    def test_rebinding_bias_invalidates_automatically(self, rng):
        layer = Linear.initialize(8, 8, rng, compute_dtype="float32")
        x = rng.normal(size=(4, 8)).astype(np.float32)
        before = layer(x)
        layer.bias = np.full(8, 100.0)
        after = layer(x)
        assert not np.array_equal(before, after)
        assert np.allclose(after - before, 100.0, atol=1e-3)

    def test_precision_switch_uses_fresh_operand(self, rng):
        layer = Linear.initialize(16, 16, rng)
        x = rng.normal(size=(4, 16))
        fp32 = layer(x)
        layer.precision = "fp16"
        fp16 = layer(x)
        layer.precision = "int8"
        int8 = layer(x)
        assert np.max(np.abs(fp16 - fp32)) < 0.05
        assert np.max(np.abs(int8 - fp32)) < 0.2

    def test_compute_dtype_validation(self, rng):
        with pytest.raises(ValueError, match="compute_dtype"):
            Linear.initialize(4, 4, rng, compute_dtype="float16")
        with pytest.raises(ValueError, match="compute_dtype"):
            TransformerConfig(compute_dtype="bf16")


def operand_bytes(operand):
    """Every byte of a prepared int8 operand, per kernel format."""
    if isinstance(operand, np.ndarray):  # numpy kernel: float64 carrier
        return operand.dtype.str, operand.shape, operand.tobytes()
    return (operand.k, operand.n, operand.panels.shape, operand.panels.tobytes(),
            operand.colsum.dtype.str, operand.colsum.tobytes())


class TestPreparedInt8Operand:
    """The kernel's one-pass quantiser prepares the operand ``quantize()`` did."""

    @pytest.mark.parametrize("kernel", KERNELS)
    @pytest.mark.parametrize("weight", [
        "gaussian",
        # |w| / scale lands on .5 ties, so round-half-to-even is exercised
        "ties",
        "zeros",
    ])
    def test_operand_matches_quantize_bytes(self, rng, kernel, weight):
        w = {
            "gaussian": rng.normal(0.0, 0.05, size=(70, 37)),
            "ties": np.array([[127.0, 0.5, 1.5, -2.5], [-0.5, 3.5, 126.5, -126.5]]),
            "zeros": np.zeros((8, 5)),
        }[weight]
        layer = Linear(weight=w, bias=np.zeros(w.shape[1]), precision="int8",
                       kernel=kernel)
        _, operand, scale, _, _ = layer._prepared_operands()
        w_q = quantize(w, num_bits=8)
        expected = layer._kernel_obj.pack_weight_int8(w_q.data)
        assert struct.pack("d", scale) == struct.pack("d", w_q.scale)
        assert operand_bytes(operand) == operand_bytes(expected)
        if weight == "zeros":
            assert scale == 1.0

    @pytest.mark.parametrize("kernel", KERNELS)
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_weight_raises_as_quantize(self, rng, kernel, bad):
        w = rng.normal(size=(8, 4))
        w[3, 2] = bad
        layer = Linear(weight=w, bias=np.zeros(4), precision="int8", kernel=kernel)
        with pytest.raises(ValueError) as expected:
            quantize(w, num_bits=8)
        with pytest.raises(ValueError) as raised:
            layer.prepare()
        assert str(raised.value) == str(expected.value)


class TestQuantizeNonFinite:
    def test_compute_scale_rejects_nan_and_inf(self):
        with pytest.raises(ValueError, match="non-finite"):
            compute_scale(np.array([1.0, np.nan]))
        with pytest.raises(ValueError, match="non-finite"):
            compute_scale(np.array([-np.inf, 2.0]))

    def test_quantize_rejects_non_finite_with_explicit_scale(self):
        with pytest.raises(ValueError, match="non-finite"):
            quantize(np.array([1.0, np.inf]), scale=0.5)
        with pytest.raises(ValueError, match="non-finite"):
            quantize(np.array([np.nan]), scale=0.5)
        with pytest.raises(ValueError, match="non-finite"):
            quantize(np.array([1.0, -np.inf]), scale=0.5)

    def test_quantize_rejects_bad_scale(self):
        with pytest.raises(ValueError, match="scale"):
            quantize(np.ones(3), scale=0.0)
        with pytest.raises(ValueError, match="scale"):
            quantize(np.ones(3), scale=np.nan)

    def test_known_scale_skips_reduction(self, rng, monkeypatch):
        import repro.quant.fixed_point as fp

        def failing_compute_scale(*args, **kwargs):  # pragma: no cover
            raise AssertionError("compute_scale must not run when scale is given")

        monkeypatch.setattr(fp, "compute_scale", failing_compute_scale)
        values = rng.normal(size=64)
        q = fp.quantize(values, scale=0.05)
        assert q.scale == 0.05

    def test_quantized_matmul_with_prequantized_weights(self, rng):
        a = rng.normal(size=(8, 16))
        w = rng.normal(size=(16, 4))
        w_q = quantize(w, num_bits=8)
        assert np.array_equal(
            quantized_matmul(a, w), quantized_matmul(a, weights_q=w_q)
        )
        with pytest.raises(ValueError, match="weights"):
            quantized_matmul(a)


class TestEngineEndToEnd:
    @pytest.mark.parametrize("kernel", KERNELS)
    def test_float64_engine_reproduces_seed_forward(self, fast_registry, kernel):
        """Cached float64 model == uncached float64 model, bit for bit."""
        config = tiny_test_config(compute_dtype="float64", kernel=kernel)
        cached = EncoderModel.initialize(config, seed=3)
        uncached = EncoderModel.initialize(config, seed=3)
        for layer in uncached.encoder.layers:
            for linear in (
                layer.attention.query,
                layer.attention.key,
                layer.attention.value,
                layer.attention.output,
                layer.ffn_in,
                layer.ffn_out,
            ):
                linear.cache_weights = False
        uncached.pooler.cache_weights = False
        tokens = np.random.default_rng(0).integers(0, config.vocab_size, size=(2, 12))
        backend = build_backend(BackendSpec.nn_lut(), registry=fast_registry)
        assert np.array_equal(
            cached.forward(tokens, backend=backend),
            uncached.forward(tokens, backend=backend),
        )

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_float32_engine_close_to_float64(self, fast_registry, kernel):
        ref = EncoderModel.initialize(tiny_test_config(compute_dtype="float64"), seed=5)
        fast = EncoderModel.initialize(
            tiny_test_config(compute_dtype="float32", kernel=kernel), seed=5
        )
        tokens = np.random.default_rng(1).integers(0, 100, size=(2, 10))
        backend = build_backend(BackendSpec.nn_lut(), registry=fast_registry)
        a = ref.forward(tokens, backend=backend)
        b = fast.forward(tokens, backend=backend)
        assert b.dtype == np.float32
        assert np.max(np.abs(a - b)) < 1e-4

    def test_exact_backend_unchanged_semantics(self):
        model = EncoderModel.initialize(tiny_test_config(), seed=2)
        tokens = np.random.default_rng(2).integers(0, 100, size=(2, 8))
        hidden = model.forward(tokens, backend=build_backend(BackendSpec.exact()))
        assert hidden.shape == (2, 8, model.config.hidden_size)
        assert np.all(np.isfinite(hidden))
