"""ComputeKernel seam: registry semantics, graceful fallback, op parity.

The NativeKernel's contract is *bitwise* agreement with the NumpyKernel
reference — the compiled fast path must be a pure drop-in, so every parity
test here asserts exact equality (``equal_nan`` where NaN propagation is
part of the contract), not tolerances.  Machines without a working C
toolchain skip the native-only classes; the registry/fallback tests run
everywhere.
"""

import errno
import pickle
import threading
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import (
    BackendSpec,
    InferenceSession,
    SessionConfig,
    SessionPool,
    build_backend,
)
from repro.baselines.linear_lut import linear_lut_for
from repro.core.approximators import LutGelu, LutLayerNorm, LutSoftmax
from repro.core.functions import get_training_range
from repro.core.kernels import (
    GEMM_TIER_NAMES,
    KERNEL_NAMES,
    LUT_TIER_NAMES,
    NUMPY_KERNEL,
    NativeKernel,
    NumpyKernel,
    _PANEL_COLS,
    _fusible_table,
    get_kernel,
    kernel_info,
    native_available,
    native_unavailable_reason,
    reset_kernel_fallback_warning,
    resolve_kernel,
    validate_kernel_name,
)
from repro.core.lut import LookupTable
from repro.core.quantization import Fp16LookupTable, Int32LookupTable
from repro.core.scaling import InputScaler
from repro.transformer import tiny_test_config
from repro.transformer.models import EncoderModel

needs_native = pytest.mark.skipif(
    not native_available(), reason="compiled native kernel unavailable"
)

AVAILABLE_KERNELS = ["numpy"] + (["native"] if native_available() else [])


def eq(a, b):
    return np.array_equal(np.asarray(a), np.asarray(b), equal_nan=True)


class TestRegistry:
    def test_kernel_names(self):
        assert KERNEL_NAMES == ("numpy", "native")
        assert validate_kernel_name("numpy") == "numpy"
        with pytest.raises(ValueError, match="kernel must be one of"):
            validate_kernel_name("cuda")

    def test_get_kernel_numpy_is_singleton(self):
        assert get_kernel("numpy") is NUMPY_KERNEL
        assert resolve_kernel("numpy") is NUMPY_KERNEL
        with pytest.raises(ValueError):
            get_kernel("cuda")

    def test_kernel_info_shape(self):
        info = kernel_info()
        assert info["names"] == list(KERNEL_NAMES)
        assert isinstance(info["native_available"], bool)
        if info["native_available"]:
            assert info["gemm_impl"] in (1, 2, 3)
            assert GEMM_TIER_NAMES == {1: "scalar", 2: "vnni", 3: "amx"}
            assert info["gemm_tier"] == GEMM_TIER_NAMES[info["gemm_impl"]]
            # The best tier has nothing to explain; a lower one names what
            # was turned down and why.
            assert (info["gemm_tier_refused"] is None) == (info["gemm_impl"] == 3)
            assert LUT_TIER_NAMES == {1: "scalar", 2: "avx2", 3: "avx512"}
            assert info["lut_tier"] in LUT_TIER_NAMES.values()
            assert info["native_unavailable_reason"] is None
        else:
            assert info["native_unavailable_reason"]
            assert info["lut_tier"] is None

    @pytest.mark.parametrize("name", AVAILABLE_KERNELS)
    def test_kernels_pickle_to_singletons(self, name):
        kernel = get_kernel(name)
        clone = pickle.loads(pickle.dumps(kernel))
        assert clone is kernel


class TestFallback:
    @pytest.fixture(autouse=True)
    def _rearm_warning(self):
        reset_kernel_fallback_warning()
        yield
        reset_kernel_fallback_warning()

    def test_disabled_native_falls_back_with_single_warning(self, monkeypatch):
        monkeypatch.setenv("REPRO_NATIVE_KERNEL", "0")
        assert not native_available()
        assert "REPRO_NATIVE_KERNEL" in native_unavailable_reason()
        with pytest.warns(RuntimeWarning, match="falling back"):
            kernel = resolve_kernel("native")
        assert isinstance(kernel, NumpyKernel)
        # The warning fires once per process; repeat resolutions are silent.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert resolve_kernel("native") is kernel

    def test_strict_lookup_refuses_instead_of_falling_back(self, monkeypatch):
        monkeypatch.setenv("REPRO_NATIVE_KERNEL", "0")
        with pytest.raises(RuntimeError, match="native kernel unavailable"):
            get_kernel("native")
        with pytest.raises(RuntimeError, match="native kernel unavailable"):
            NativeKernel()

    def test_fallback_engine_results_identical(self, monkeypatch, fast_registry):
        """kernel="native" on a host without it == the numpy engine, bitwise."""
        monkeypatch.setenv("REPRO_NATIVE_KERNEL", "0")
        tokens = np.random.default_rng(0).integers(0, 100, size=(2, 9))
        reference = EncoderModel.initialize(
            tiny_test_config(compute_dtype="float64"), seed=3
        ).forward(tokens, backend=build_backend(
            BackendSpec.nn_lut(), registry=fast_registry
        ))
        with pytest.warns(RuntimeWarning, match="falling back"):
            model = EncoderModel.initialize(
                tiny_test_config(compute_dtype="float64", kernel="native"), seed=3
            )
            assert resolve_kernel("native") is NUMPY_KERNEL
        backend = build_backend(BackendSpec.nn_lut(), registry=fast_registry)
        assert np.array_equal(model.forward(tokens, backend=backend), reference)


@pytest.mark.parametrize("name", AVAILABLE_KERNELS)
class TestPackedQuantizeNonFinite:
    """Satellite gate: the packed quantize kernels reject non-finite input."""

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_quantize_scale_rejects(self, name, bad, dtype):
        kernel = get_kernel(name)
        x = np.array([1.0, bad, -2.0], dtype=dtype)
        with pytest.raises(ValueError, match="non-finite"):
            kernel.quantize_scale(x)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_quantize_pack_rejects_non_finite_values(self, name, bad, dtype):
        kernel = get_kernel(name)
        x = np.array([0.5, bad, 1.5], dtype=dtype)
        with pytest.raises(ValueError, match="non-finite"):
            kernel.quantize_pack(x, 0.01)

    @pytest.mark.parametrize("scale", [0.0, -1.0, np.nan, np.inf])
    def test_quantize_pack_rejects_bad_scale(self, name, scale):
        kernel = get_kernel(name)
        with pytest.raises(ValueError, match="scale"):
            kernel.quantize_pack(np.ones(4, dtype=np.float32), scale)

    def test_linear_int8_rejects_non_finite_activations(self, name):
        kernel = get_kernel(name)
        w_q = np.random.default_rng(0).integers(-127, 128, (8, 6), dtype=np.int8)
        operand = kernel.pack_weight_int8(w_q)
        x = np.ones((3, 8), dtype=np.float32)
        x[1, 2] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            kernel.linear_int8(x, operand, 0.01, np.float32)

    @pytest.mark.parametrize("shape", [(3, 16), (2, 3, 24), (8,)])
    def test_linear_int8_rejects_a_mismatched_last_axis(self, name, shape):
        """A last axis that is a multiple of k must not be silently re-rowed."""
        kernel = get_kernel(name)
        w_q = np.random.default_rng(0).integers(-127, 128, (8, 6), dtype=np.int8)
        operand = kernel.pack_weight_int8(w_q)
        good = np.ones(shape[:-1] + (8,), dtype=np.float32)
        assert kernel.linear_int8(good, operand, 0.01, np.float32).shape == (
            shape[:-1] + (6,)
        )
        if shape[-1] != 8:
            with pytest.raises(ValueError, match=r"\(\.\.\., 8\)|mismatch"):
                kernel.linear_int8(
                    np.ones(shape, dtype=np.float32), operand, 0.01, np.float32
                )


@pytest.fixture()
def matmul_lefts(monkeypatch):
    """The left operands that reach ``np.matmul``, in call order."""
    lefts = []
    real = np.matmul

    def recording_matmul(a, b):
        lefts.append(a)
        return real(a, b)

    monkeypatch.setattr(np, "matmul", recording_matmul)
    return lefts


@pytest.mark.parametrize("name", AVAILABLE_KERNELS)
class TestMatmulFp32Shapes:
    """``matmul_fp32``: one GEMM over token rows in float32, one per sequence in float64."""

    @pytest.fixture()
    def weight(self, rng):
        return rng.normal(size=(24, 10)).astype(np.float32)

    def test_float32_is_one_row_stacked_gemm(self, name, rng, weight, matmul_lefts):
        x = rng.normal(size=(4, 6, 24)).astype(np.float32)
        got = get_kernel(name).matmul_fp32(x, weight, np.float32)
        (left,) = matmul_lefts
        assert left.shape == (24, 24) and np.shares_memory(left, x)
        assert got.shape == (4, 6, 10) and got.dtype == np.float32

    def test_float64_stays_one_gemm_per_sequence(self, name, rng, weight, matmul_lefts):
        x = rng.normal(size=(4, 6, 24))
        w = weight.astype(np.float64)
        got = get_kernel(name).matmul_fp32(x, w, np.float64)
        (left,) = matmul_lefts
        assert left is x
        assert eq(got, np.matmul(x, w))

    @pytest.mark.parametrize("shape", [(24,), (0, 5, 24), (2, 3, 4, 24), (1, 1, 24)])
    def test_leading_axes_are_restored(self, name, rng, weight, shape):
        x = rng.normal(size=shape).astype(np.float32)
        got = get_kernel(name).matmul_fp32(x, weight, np.float32)
        want = np.matmul(x, weight)
        assert got.shape == want.shape == shape[:-1] + (10,)
        assert got.dtype == np.float32
        assert np.allclose(got, want, atol=1e-4)

    def test_strided_2d_view_is_not_copied(self, name, rng, weight, matmul_lefts):
        """The pooler's input, ``hidden[:, 0, :]``, goes to BLAS as it is."""
        hidden = rng.normal(size=(4, 6, 24)).astype(np.float32)
        first = hidden[:, 0, :]
        assert not first.flags.c_contiguous
        got = get_kernel(name).matmul_fp32(first, weight, np.float32)
        (left,) = matmul_lefts
        assert left is first
        assert eq(got, np.matmul(first, weight))

    def test_float64_input_is_cast_once_then_one_gemm(
        self, name, rng, weight, matmul_lefts
    ):
        x = rng.normal(size=(3, 5, 24))
        got = get_kernel(name).matmul_fp32(x, weight, np.float32)
        (left,) = matmul_lefts
        assert left.shape == (15, 24) and left.dtype == np.float32
        assert got.dtype == np.float32
        assert eq(got, np.matmul(left, weight).reshape(3, 5, 10))

    def test_bias_is_added_after_the_gemm(self, name, rng, weight):
        x = rng.normal(size=(3, 5, 24)).astype(np.float32)
        bias = rng.normal(size=10).astype(np.float32)
        kernel = get_kernel(name)
        assert eq(
            kernel.matmul_fp32(x, weight, np.float32, bias=bias),
            kernel.matmul_fp32(x, weight, np.float32) + bias,
        )

    def test_float32_batched_close_to_per_call(self, name, rng, weight):
        """Tolerance, not bits: float32 never carried the batch-invariance contract."""
        x = rng.normal(size=(4, 6, 24)).astype(np.float32)
        kernel = get_kernel(name)
        batched = kernel.matmul_fp32(x, weight, np.float32)
        for row, sequence in zip(batched, x):
            per_call = kernel.matmul_fp32(sequence[None], weight, np.float32)[0]
            assert np.max(np.abs(row - per_call)) < 1e-4


class TestNumpyInt8CarrierGemm:
    """The float64 carrier GEMM is row-stacked always: integer sums are exact."""

    @pytest.mark.parametrize("shape", [(3, 11, 24), (4, 96, 768)])
    @pytest.mark.parametrize("out_dtype", [np.float32, np.float64])
    def test_row_stacked_equals_per_sequence_bitwise(self, rng, shape, out_dtype):
        k, n = shape[-1], 40
        x = rng.normal(size=shape).astype(out_dtype)
        w_q = rng.integers(-127, 128, size=(k, n), dtype=np.int8)
        bias = rng.normal(size=n).astype(out_dtype)
        operand = NUMPY_KERNEL.pack_weight_int8(w_q)
        got = NUMPY_KERNEL.linear_int8(x, operand, 0.013, out_dtype, bias=bias)

        # One carrier GEMM per sequence, each token row at its own scale.
        act_scale = np.array(
            [[[NUMPY_KERNEL.quantize_scale(row)] for row in seq] for seq in x]
        )
        act = np.clip(np.round(x / act_scale.astype(out_dtype)), -127, 127)
        accumulator = np.matmul(act.astype(np.float64), operand)
        accumulator *= act_scale * 0.013
        want = accumulator.astype(out_dtype, copy=False)
        want += bias
        assert got.dtype == want.dtype and eq(got, want)

    def test_goes_to_blas_as_one_row_matrix(self, rng, matmul_lefts):
        x = rng.normal(size=(3, 11, 24))
        operand = NUMPY_KERNEL.pack_weight_int8(
            rng.integers(-127, 128, size=(24, 5), dtype=np.int8)
        )
        assert NUMPY_KERNEL.linear_int8(x, operand, 0.01, np.float64).shape == (3, 11, 5)
        assert [left.shape for left in matmul_lefts] == [(33, 24)]


@needs_native
class TestNativeOpParity:
    """Every ComputeKernel op: NativeKernel == NumpyKernel, bitwise."""

    @pytest.fixture(scope="class")
    def native(self):
        return get_kernel("native")

    @pytest.fixture(scope="class")
    def rng_cls(self):
        return np.random.default_rng(42)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_matmul_fp32(self, native, rng_cls, dtype):
        """Against the seed formula, not the function ``native`` delegates to."""
        x = rng_cls.normal(size=(3, 7, 12)).astype(dtype)
        w = rng_cls.normal(size=(12, 9)).astype(dtype)
        bias = rng_cls.normal(size=9).astype(dtype)
        got = native.matmul_fp32(x, w, dtype, bias=bias)
        want = np.matmul(x, w) + bias
        assert got.dtype == dtype and got.shape == want.shape
        if dtype == np.float64:
            assert eq(got, want)
        else:
            assert np.max(np.abs(got - want)) < 1e-4

    @pytest.mark.parametrize("in_dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("out_dtype", [np.float32, np.float64])
    def test_linear_int8(self, native, rng_cls, in_dtype, out_dtype):
        x = rng_cls.normal(size=(2, 11, 16)).astype(in_dtype)
        w_q = rng_cls.integers(-127, 128, size=(16, 10), dtype=np.int8)
        bias = rng_cls.normal(size=10).astype(out_dtype)
        got = native.linear_int8(
            x, native.pack_weight_int8(w_q), 0.013, out_dtype, bias=bias
        )
        want = NUMPY_KERNEL.linear_int8(
            x, NUMPY_KERNEL.pack_weight_int8(w_q), 0.013, out_dtype, bias=bias
        )
        assert got.dtype == want.dtype == out_dtype
        assert eq(got, want)

    def test_linear_int8_empty_batch(self, native, rng_cls):
        w_q = rng_cls.integers(-127, 128, size=(8, 5), dtype=np.int8)
        got = native.linear_int8(
            np.empty((0, 8), dtype=np.float32),
            native.pack_weight_int8(w_q),
            0.1,
            np.float32,
        )
        assert got.shape == (0, 5)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_quantize_scale_and_pack(self, native, rng_cls, dtype):
        x = rng_cls.normal(size=(6, 33)).astype(dtype)
        scale_native = native.quantize_scale(x)
        scale_numpy = NUMPY_KERNEL.quantize_scale(x)
        assert float(scale_native) == float(scale_numpy)
        assert eq(
            native.quantize_pack(x, scale_native),
            NUMPY_KERNEL.quantize_pack(x, scale_numpy),
        )

    # 16 float32 entries run on the vector core (where one is compiled);
    # float64 and 32 entries on the scalar compare-and-count loop.
    @pytest.mark.parametrize("entries", [16, 32])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_lut_eval(self, native, fast_registry, rng_cls, dtype, entries):
        table = fast_registry.lut("gelu", num_entries=entries)
        x = rng_cls.uniform(-8.0, 8.0, size=257).astype(dtype)
        x[3] = np.nan
        assert eq(native.lut_eval(table, x), NUMPY_KERNEL.lut_eval(table, x))
        # strided input and explicit out buffer
        assert eq(
            native.lut_eval(table, x[::2]), NUMPY_KERNEL.lut_eval(table, x[::2])
        )
        out = np.empty_like(x)
        result = native.lut_eval(table, x, out=out)
        assert result is out
        assert eq(out, NUMPY_KERNEL.lut_eval(table, x))

    @pytest.mark.parametrize("entries", [16, 32])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_lut_gelu_and_fused_bias(
        self, native, fast_registry, rng_cls, dtype, entries
    ):
        op = LutGelu(fast_registry.lut("gelu", num_entries=entries))
        x = rng_cls.uniform(-12.0, 12.0, size=(9, 65)).astype(dtype)
        x[0, 0] = np.nan  # NaN propagation is part of the contract
        bias = rng_cls.normal(size=65).astype(dtype)
        assert eq(native.lut_gelu(op, x.copy()), NUMPY_KERNEL.lut_gelu(op, x.copy()))
        assert eq(
            native.lut_gelu_bias(op, x.copy(), bias),
            NUMPY_KERNEL.lut_gelu_bias(op, x.copy(), bias),
        )

    @pytest.mark.parametrize("entries", [16, 32])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_lut_softmax(self, native, fast_registry, rng_cls, dtype, entries):
        op = LutSoftmax(
            fast_registry.lut("exp", num_entries=entries),
            fast_registry.lut("reciprocal", num_entries=entries),
        )
        x = rng_cls.normal(scale=3.0, size=(2, 3, 8, 8)).astype(dtype)
        assert eq(
            native.lut_softmax(op, x.copy(), -1),
            NUMPY_KERNEL.lut_softmax(op, x.copy(), -1),
        )

    # The Linear-LUT baseline's plain tables run on the C core; the FP16 /
    # INT32 tables stay on their own evaluate.  Either way: numpy's bits.
    @pytest.mark.parametrize("kind", ["linear_lut", "fp16", "int32"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_lut_ops_per_table_kind(self, native, fast_registry, rng_cls, dtype, kind):
        def table(name):
            if kind == "linear_lut":
                return linear_lut_for(name, num_entries=16)
            lut = fast_registry.lut(name, num_entries=16)
            if kind == "fp16":
                return Fp16LookupTable(lut)
            return Int32LookupTable(lut, input_range=get_training_range(name))

        gelu = LutGelu(table("gelu"))
        softmax = LutSoftmax(table("exp"), table("reciprocal"))
        assert _fusible_table(gelu.gelu_approx) == (kind == "linear_lut")
        x = rng_cls.uniform(-8.0, 8.0, size=(9, 65)).astype(dtype)
        bias = rng_cls.normal(size=65).astype(dtype)
        for got, want in (
            (native.lut_eval(gelu.gelu_approx, x), NUMPY_KERNEL.lut_eval(gelu.gelu_approx, x)),
            (native.lut_gelu(gelu, x.copy()), NUMPY_KERNEL.lut_gelu(gelu, x.copy())),
            (
                native.lut_gelu_bias(gelu, x.copy(), bias),
                NUMPY_KERNEL.lut_gelu_bias(gelu, x.copy(), bias),
            ),
            (
                native.lut_softmax(softmax, x.copy(), -1),
                NUMPY_KERNEL.lut_softmax(softmax, x.copy(), -1),
            ),
        ):
            assert got.dtype == want.dtype == dtype
            assert eq(got, want)

    def test_lut_layernorm(self, native, fast_registry, rng_cls):
        op = LutLayerNorm(
            fast_registry.lut("rsqrt", num_entries=16), scaler=InputScaler()
        )
        x = rng_cls.normal(size=(2, 7, 24)).astype(np.float32)
        gamma = rng_cls.normal(1.0, 0.1, size=24).astype(np.float32)
        beta = rng_cls.normal(0.0, 0.1, size=24).astype(np.float32)
        assert eq(
            native.lut_layernorm(op, x.copy(), gamma, beta),
            NUMPY_KERNEL.lut_layernorm(op, x.copy(), gamma, beta),
        )

    def test_bias_epilogues(self, native, rng_cls):
        x = rng_cls.normal(size=(33, 17)).astype(np.float32)
        x[2, 2] = np.nan
        bias = rng_cls.normal(size=17).astype(np.float32)
        residual = rng_cls.normal(size=(33, 17)).astype(np.float32)
        gamma = rng_cls.normal(1.0, 0.1, size=17).astype(np.float32)
        beta = rng_cls.normal(size=17).astype(np.float32)
        assert eq(
            native.bias_residual(x.copy(), bias, residual),
            NUMPY_KERNEL.bias_residual(x.copy(), bias, residual),
        )
        assert eq(
            native.bias_relu(x.copy(), bias),
            NUMPY_KERNEL.bias_relu(x.copy(), bias),
        )
        assert eq(
            native.affine(x.copy(), gamma, beta),
            NUMPY_KERNEL.affine(x.copy(), gamma, beta),
        )

    def test_concurrent_callers_share_one_kernel(self, native, fast_registry):
        """Two threads on the one kernel, one packed weight and one table each
        — what ``SessionPool`` replicas do — return the single-call bits."""
        rng = np.random.default_rng(5)
        packed = native.pack_weight_int8(
            rng.integers(-127, 128, size=(70, 37), dtype=np.int8)
        )
        bias = rng.normal(size=37).astype(np.float32)
        gelu = LutGelu(fast_registry.lut("gelu", num_entries=16))
        softmax = LutSoftmax(
            fast_registry.lut("exp", num_entries=16),
            fast_registry.lut("reciprocal", num_entries=16),
        )

        def ops(x):
            projected = native.linear_int8(x, packed, 0.02, np.float32, bias=bias)
            return (
                projected,
                native.lut_gelu_bias(gelu, projected.copy(), bias),
                native.lut_softmax(softmax, projected, -1),
            )

        inputs = [rng.normal(size=(96, 70)).astype(np.float32) for _ in range(2)]
        want = [ops(x) for x in inputs]
        start = threading.Barrier(len(inputs))
        failures = []

        def caller(x, expected):
            start.wait()
            for _ in range(20):
                if not all(eq(g, w) for g, w in zip(ops(x), expected)):
                    failures.append("mismatch")

        threads = [
            threading.Thread(target=caller, args=pair) for pair in zip(inputs, want)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert failures == []


def lut_case(seed, entries, rows, cols, with_nan):
    """A random sorted table and a float32 input seeded with its edge cases.

    The input holds the table's exact (float32) breakpoints and their
    ``nextafter`` neighbours, +/-0, denormals, +/-inf, the clip edges and
    ``exp_clip`` at random positions; roughly one table in three has a
    duplicated breakpoint.
    """
    rng = np.random.default_rng(seed)
    bp = np.sort(rng.uniform(-6.0, 6.0, size=entries - 1))
    if entries > 2 and rng.random() < 0.3:
        dup = rng.integers(0, entries - 2)
        bp[dup + 1] = bp[dup]
    table = LookupTable(bp, rng.normal(size=entries), rng.normal(size=entries))
    lo, hi = np.sort(rng.uniform(-7.0, 7.0, size=2))
    exp_clip = -float(rng.uniform(0.5, 300.0))
    edges = np.concatenate([bp, [lo, hi, exp_clip]]).astype(np.float32)
    specials = np.concatenate(
        [
            edges,
            np.nextafter(edges, np.float32(np.inf)),
            np.nextafter(edges, np.float32(-np.inf)),
            np.array([0.0, -0.0, 1e-40, -1e-40, np.inf, -np.inf], dtype=np.float32),
            np.array([np.nan] if with_nan else [], dtype=np.float32),
        ]
    )
    x = rng.uniform(-9.0, 9.0, size=(rows, cols)).astype(np.float32)
    seeded = rng.integers(0, x.size + 1)
    x.flat[rng.choice(x.size, size=seeded, replace=False)] = rng.choice(
        specials, size=seeded
    )
    return rng, table, (float(lo), float(hi)), exp_clip, x


#: table sizes the vector core holds, and sizes that fall back to the
#: scalar loop
table_entries = st.one_of(st.integers(1, 16), st.integers(17, 64))


@needs_native
class TestLutVectorCore:
    """The register-resident LUT operators == NumpyKernel in float32, bitwise.

    Whatever LUT tier the library was compiled with runs here (CI repeats
    this file with ``-march=x86-64-v3`` and ``-march=x86-64`` for the AVX2
    and portable tiers).
    """

    @pytest.fixture(scope="class")
    def native(self):
        return get_kernel("native")

    @given(
        seed=st.integers(0, 2**32 - 1),
        entries=table_entries,
        rows=st.integers(1, 5),
        cols=st.integers(1, 70),
        with_nan=st.booleans(),
        clipped=st.booleans(),
    )
    @settings(max_examples=150, deadline=None)
    def test_eval_and_gelu(self, seed, entries, rows, cols, with_nan, clipped):
        native = get_kernel("native")
        rng, table, clip_range, _, x = lut_case(seed, entries, rows, cols, with_nan)
        assert eq(native.lut_eval(table, x), NUMPY_KERNEL.lut_eval(table, x))
        op = LutGelu(table, clip_range=clip_range if clipped else None)
        bias = rng.normal(size=cols).astype(np.float32)
        kept = x.copy()
        got = native.lut_gelu(op, x)
        assert got is not x and eq(x, kept)  # the no-bias entry leaves x alone
        with np.errstate(invalid="ignore"):
            assert eq(got, NUMPY_KERNEL.lut_gelu(op, x))
            assert eq(
                native.lut_gelu_bias(op, x.copy(), bias),
                NUMPY_KERNEL.lut_gelu_bias(op, x.copy(), bias),
            )

    @given(
        seed=st.integers(0, 2**32 - 1),
        entries=table_entries,
        reciprocal_entries=table_entries,
        rows=st.integers(1, 5),
        cols=st.integers(1, 70),
        with_nan=st.booleans(),
        zero_max=st.booleans(),
    )
    @settings(max_examples=150, deadline=None)
    def test_softmax(
        self, seed, entries, reciprocal_entries, rows, cols, with_nan, zero_max
    ):
        native = get_kernel("native")
        rng, table, _, exp_clip, x = lut_case(seed, entries, rows, cols, with_nan)
        if zero_max:
            # Row maximum exactly 0: the seeded breakpoints, exp_clip and
            # their neighbours reach the exp table unshifted.
            x = np.minimum(x, np.float32(0.0))
            x[:, rng.integers(0, cols)] = 0.0
        reciprocal = LookupTable(
            np.sort(rng.uniform(0.0, cols, size=reciprocal_entries - 1)),
            rng.normal(size=reciprocal_entries),
            rng.normal(size=reciprocal_entries),
        )
        op = LutSoftmax(table, reciprocal, exp_clip=exp_clip)
        scores = x.reshape(1, rows, cols)
        kept = scores.copy()
        with np.errstate(invalid="ignore"):
            want = NUMPY_KERNEL.lut_softmax(op, scores, -1)
            assert eq(native.lut_softmax(op, scores, -1), want)
            assert eq(scores, kept)
            # a non-last axis and a strided view take the reference path
            assert eq(
                native.lut_softmax(op, scores, 1),
                NUMPY_KERNEL.lut_softmax(op, scores, 1),
            )
            assert eq(
                native.lut_softmax(op, scores[..., ::2], -1),
                NUMPY_KERNEL.lut_softmax(op, scores[..., ::2], -1),
            )

    def test_nan_row_max_poisons_the_row_only(self, native):
        _, table, _, exp_clip, x = lut_case(7, 16, 4, 37, False)
        x = np.nan_to_num(x, posinf=3.0, neginf=-3.0)
        x[2, 19] = np.nan
        reciprocal = LookupTable([2.0, 9.0], [-0.1, -0.01, -0.001], [1.0, 0.5, 0.2])
        out = native.lut_softmax(
            LutSoftmax(table, reciprocal, exp_clip=exp_clip), x, -1
        )
        assert np.isnan(out[2]).all() and not np.isnan(out[[0, 1, 3]]).any()

    def test_native_kernel_never_builds_the_bucket_tables(self, native):
        """The bucket decomposition is the numpy path's; C only counts."""
        rng = np.random.default_rng(3)
        x = rng.normal(size=40).astype(np.float32)
        for entries, values in ((16, x), (17, x), (16, x.astype(np.float64))):
            table = LookupTable(
                np.linspace(-4.0, 4.0, entries - 1),
                rng.normal(size=entries),
                rng.normal(size=entries),
            )
            native.lut_eval(table, values)
            assert table._buckets is None


def on_gemm_tier(tier):
    """Context: the engine's projections run on GEMM tier ``tier`` (at most
    the probed one), the way ``gemm_int8(tier=...)`` does for the raw GEMM."""
    from repro.core import kernels as K

    return mock.patch.dict(K._native_state, gemm_tier=tier)


def int8_matrix(rng, shape, extreme):
    """Random int8 values; ``extreme`` pins every entry to +/-127."""
    if extreme:
        return rng.choice(np.array([-127, 127], dtype=np.int8), size=shape)
    return rng.integers(-127, 128, size=shape, dtype=np.int8)


@needs_native
class TestGemmTiers:
    """The packed int8 GEMM is exact on every micro-kernel tier the host has.

    ``gemm_int8(tier=...)`` runs a lower tier than the probed one, so an AMX
    host also exercises the VNNI and portable loops over the same layout.
    """

    @pytest.fixture(scope="class")
    def native(self):
        return get_kernel("native")

    @given(
        m=st.integers(1, 70),
        k=st.integers(1, 300),
        n=st.integers(1, 100),
        extreme_a=st.booleans(),
        extreme_w=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_every_tier_equals_int64_matmul(
        self, m, k, n, extreme_a, extreme_w, seed
    ):
        native = get_kernel("native")
        rng = np.random.default_rng(seed)
        a = int8_matrix(rng, (m, k), extreme_a)
        w = int8_matrix(rng, (k, n), extreme_w)
        want = a.astype(np.int64) @ w.astype(np.int64)
        packed = native.pack_weight_int8(w)
        for tier in range(1, native.gemm_impl + 1):
            got = native.gemm_int8(a, packed, tier=tier)
            assert got.dtype == np.int32
            assert np.array_equal(got, want), (tier, m, k, n)

    @given(
        m=st.one_of(st.sampled_from([15, 16, 17, 31, 33]), st.integers(1, 70)),
        k=st.integers(1, 200),
        n=st.integers(1, 100),
        in_dtype=st.sampled_from([np.float32, np.float64]),
        out_dtype=st.sampled_from([np.float32, np.float64]),
        with_bias=st.booleans(),
        weight_scale=st.sampled_from([0.02, 1.0, 1e-30, 1e-42, 1e-300, 3e-318]),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=120, deadline=None)
    def test_fused_projection_on_every_tier_equals_numpy(
        self, m, k, n, in_dtype, out_dtype, with_bias, weight_scale, seed
    ):
        """quantise -> GEMM -> tile-store epilogue == NumpyKernel.linear_int8,
        down to denormal outputs (tiny scale products), on each tier."""
        native = get_kernel("native")
        rng = np.random.default_rng(seed)
        x = (rng.normal(size=(m, k)) * rng.choice([1e-3, 1.0, 40.0])).astype(in_dtype)
        w_q = int8_matrix(rng, (k, n), extreme=False)
        bias = rng.normal(size=n).astype(out_dtype) if with_bias else None
        want = NUMPY_KERNEL.linear_int8(
            x, NUMPY_KERNEL.pack_weight_int8(w_q), weight_scale, out_dtype, bias=bias
        )
        packed = native.pack_weight_int8(w_q)
        before = x.copy()
        for tier in range(1, native.gemm_impl + 1):
            with on_gemm_tier(tier):
                got = native.linear_int8(x, packed, weight_scale, out_dtype, bias=bias)
            assert got.dtype == want.dtype == out_dtype
            assert eq(got, want), (tier, m, k, n)
        assert np.array_equal(x, before)  # the caller's x is never written

    @given(
        m=st.integers(1, 40),
        k=st.integers(1, 200),
        n=st.integers(1, 70),
        in_dtype=st.sampled_from([np.float32, np.float64]),
        out_dtype=st.sampled_from([np.float32, np.float64]),
        zero_rows=st.integers(0, 3),
        bad=st.sampled_from([None, np.nan, np.inf, -np.inf]),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=80, deadline=None)
    def test_per_row_scales_on_every_tier_equal_numpy(
        self, m, k, n, in_dtype, out_dtype, zero_rows, bad, seed
    ):
        """Rows 1e6 apart in magnitude, all-zero rows, a non-finite row: each
        row at its own scale, numpy == native on every tier, and a row's
        result is the one it gets alone."""
        native = get_kernel("native")
        rng = np.random.default_rng(seed)
        magnitude = np.where(rng.random((m, 1)) < 0.5, 1e-3, 1e3)
        x = (rng.normal(size=(m, k)) * magnitude).astype(in_dtype)
        x[rng.permutation(m)[:zero_rows]] = 0.0
        if bad is not None:
            x[rng.integers(m), rng.integers(k)] = bad
        w_q = int8_matrix(rng, (k, n), extreme=False)
        bias = rng.normal(size=n).astype(out_dtype)
        operand, packed = NUMPY_KERNEL.pack_weight_int8(w_q), native.pack_weight_int8(w_q)
        if bad is not None:
            with pytest.raises(ValueError, match="non-finite"):
                NUMPY_KERNEL.linear_int8(x, operand, 0.02, out_dtype, bias=bias)
            for tier in range(1, native.gemm_impl + 1):
                with on_gemm_tier(tier), pytest.raises(ValueError, match="non-finite"):
                    native.linear_int8(x, packed, 0.02, out_dtype, bias=bias)
            return
        want = NUMPY_KERNEL.linear_int8(x, operand, 0.02, out_dtype, bias=bias)
        for tier in range(1, native.gemm_impl + 1):
            with on_gemm_tier(tier):
                got = native.linear_int8(x, packed, 0.02, out_dtype, bias=bias)
            assert eq(got, want), (tier, m, k, n)
        row = rng.integers(m)
        alone = NUMPY_KERNEL.linear_int8(x[row : row + 1], operand, 0.02, out_dtype, bias=bias)
        assert eq(alone, want[row : row + 1])

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_shared_activation_equals_separate_calls(self, native, dtype):
        """Q/K/V-style: one quantised activation, several projections."""
        rng = np.random.default_rng(5)
        x = rng.normal(size=(2, 19, 70)).astype(dtype)
        projections = [
            (int8_matrix(rng, (70, n), False), scale, bias)
            for n, scale, bias in (
                (37, 0.02, rng.normal(size=37).astype(dtype)),
                (70, 0.5, None),
                (1, 0.003, rng.normal(size=1).astype(dtype)),
            )
        ]
        want = [
            NUMPY_KERNEL.linear_int8(
                x, NUMPY_KERNEL.pack_weight_int8(w_q), scale, dtype, bias=bias
            )
            for w_q, scale, bias in projections
        ]
        reference = NUMPY_KERNEL.linear_int8_shared(
            x,
            [(NUMPY_KERNEL.pack_weight_int8(w), s, b) for w, s, b in projections],
            dtype,
        )
        packed = [(native.pack_weight_int8(w), s, b) for w, s, b in projections]
        before = x.copy()
        for tier in range(1, native.gemm_impl + 1):
            with on_gemm_tier(tier):
                got = native.linear_int8_shared(x, packed, dtype)
                separate = [
                    native.linear_int8(x, op, s, dtype, bias=b) for op, s, b in packed
                ]
            assert len(got) == len(want) == len(reference)
            for g, sep, w, r in zip(got, separate, want, reference):
                assert g.shape == (2, 19, w.shape[-1])
                assert eq(g, w) and eq(sep, w) and eq(r, w)
        assert np.array_equal(x, before)

    def test_shared_activation_falls_back_per_operand(self, native):
        """Mixed k takes the plain loop, which refuses the operand x misfits."""
        rng = np.random.default_rng(6)
        x = rng.normal(size=(4, 12)).astype(np.float32)
        fits = native.pack_weight_int8(int8_matrix(rng, (12, 5), False))
        wider = native.pack_weight_int8(int8_matrix(rng, (24, 5), False))
        with pytest.raises(ValueError):
            native.linear_int8_shared(
                x, [(fits, 0.1, None), (wider, 0.1, None)], np.float32
            )

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_activation_raises_before_any_output(self, native, bad):
        rng = np.random.default_rng(8)
        x = rng.normal(size=(70, 33)).astype(np.float32)
        x[69, 32] = bad  # the very last element
        packed = native.pack_weight_int8(int8_matrix(rng, (33, 20), False))
        before = x.copy()
        with pytest.raises(ValueError, match="non-finite"):
            native.linear_int8(x, packed, 0.01, np.float32)
        with pytest.raises(ValueError, match="non-finite"):
            native.linear_int8_shared(x, [(packed, 0.01, None)] * 3, np.float32)
        assert eq(x, before)
        # The C entry's own contract: status 1 and `out` untouched.
        out = np.full((70, 20), 7.0, dtype=np.float32)
        q = np.zeros((70, 33), dtype=np.int8)
        row_scales = np.zeros(70)  # one float64 per row
        status = native._lib.repro_linear_s8(
            x.ctypes.data, 0, q.ctypes.data, row_scales.ctypes.data, 70, 33,
            packed.panels.ctypes.data, packed.colsum.ctypes.data, 20, 0.01,
            None, out.ctypes.data, 0, native.gemm_impl,
        )
        assert status == 1 and np.all(out == 7.0) and eq(x, before)

    def test_bias_the_tile_store_cannot_read_is_added_by_numpy(self, native):
        """float64 bias on a float32 output, and a broadcast (1, n) bias."""
        rng = np.random.default_rng(9)
        x = rng.normal(size=(7, 20)).astype(np.float32)
        w_q = int8_matrix(rng, (20, 9), False)
        for bias in (rng.normal(size=9), rng.normal(size=(1, 9)).astype(np.float32)):
            assert eq(
                native.linear_int8(
                    x, native.pack_weight_int8(w_q), 0.02, np.float32, bias=bias
                ),
                NUMPY_KERNEL.linear_int8(
                    x, NUMPY_KERNEL.pack_weight_int8(w_q), 0.02, np.float32, bias=bias
                ),
            )
        with pytest.raises(ValueError, match="out_dtype"):
            native.linear_int8(x, native.pack_weight_int8(w_q), 0.02, np.float16)

    def test_tier_above_the_probed_one_is_clamped(self, native):
        rng = np.random.default_rng(0)
        a, w = int8_matrix(rng, (5, 9), False), int8_matrix(rng, (9, 3), False)
        got = native.gemm_int8(a, native.pack_weight_int8(w), tier=99)
        assert np.array_equal(got, a.astype(np.int64) @ w.astype(np.int64))

    def test_contraction_past_the_int32_limit_is_refused(self, native):
        from repro.core.kernels import _GEMM_K_MAX

        assert 255 * 127 * _GEMM_K_MAX < 2**31 <= 255 * 127 * (_GEMM_K_MAX + 1)
        native.pack_weight_int8(np.zeros((_GEMM_K_MAX, 1), dtype=np.int8))
        with pytest.raises(ValueError, match=str(_GEMM_K_MAX)):
            native.pack_weight_int8(np.zeros((_GEMM_K_MAX + 1, 1), dtype=np.int8))

    def test_refused_tier_falls_to_the_next(self):
        """The load-time probe: compile-time tiers, then the AMX permission."""
        from repro.core.kernels import _probe_gemm_tier

        class Lib:
            def __init__(self, compiled, amx_errno):
                self.repro_gemm_impl = lambda: compiled
                self.repro_amx_request = lambda: amx_errno

        assert _probe_gemm_tier(Lib(3, 0)) == (3, None)
        tier, refused = _probe_gemm_tier(Lib(3, errno.EPERM))
        assert tier == 2
        assert "amx" in refused and "ARCH_REQ_XCOMP_PERM" in refused
        assert _probe_gemm_tier(Lib(2, errno.ENOSYS))[0] == 2
        tier, refused = _probe_gemm_tier(Lib(1, errno.ENOSYS))
        assert tier == 1 and refused.startswith("amx, vnni: not compiled in")

    def test_engine_runs_on_a_refused_tier(self, native, monkeypatch):
        """A process whose probe settled lower reports it and computes the same."""
        from repro.core import kernels as K

        rng = np.random.default_rng(2)
        x = rng.normal(size=(40, 70)).astype(np.float32)
        w_q = int8_matrix(rng, (70, 33), False)
        packed = native.pack_weight_int8(w_q)
        want = native.linear_int8(x, packed, 0.02, np.float32)
        monkeypatch.setitem(K._native_state, "gemm_tier", 1)
        monkeypatch.setitem(K._native_state, "gemm_refused", "amx: refused (test)")
        info = kernel_info()
        assert info["gemm_impl"] == 1 and info["gemm_tier"] == "scalar"
        assert info["gemm_tier_refused"] == "amx: refused (test)"
        assert eq(native.linear_int8(x, packed, 0.02, np.float32), want)


def numpy_pack(data):
    """The numpy packer ``repro_pack_s8`` replaced, kept verbatim as oracle:
    zero-padded copy, k4-interleaving transpose, int32 column sums."""
    data = np.asarray(data)
    k, n = data.shape
    k_pad = -(-k // 64) * 64
    num_panels = -(-n // _PANEL_COLS)
    padded = np.zeros((k_pad, num_panels * _PANEL_COLS), dtype=np.int8)
    padded[:k, :n] = data
    # (k/4, 4, panel, col) -> (panel, k/4, col, 4)
    panels = np.ascontiguousarray(
        padded.reshape(k_pad // 4, 4, num_panels, _PANEL_COLS).transpose(2, 0, 3, 1)
    )
    colsum = np.zeros(-(-n // 64) * 64, dtype=np.int32)
    colsum[:n] = data.sum(axis=0, dtype=np.int32)
    return panels, colsum


@needs_native
class TestPackerTwin:
    """``repro_pack_s8`` writes the numpy packer's panels and sums byte for byte."""

    @pytest.fixture(scope="class")
    def native(self):
        return get_kernel("native")

    @pytest.mark.parametrize(
        "shape",
        [(1, 1), (3, 17), (63, 65), (64, _PANEL_COLS), (768, 3072), (3072, 768)],
        ids=lambda shape: "x".join(map(str, shape)),
    )
    @pytest.mark.parametrize("values", ["random", "zeros", "extremes"])
    def test_panels_and_colsum_equal_the_numpy_packer(self, native, shape, values):
        rng = np.random.default_rng(sum(shape))
        if values == "zeros":
            w = np.zeros(shape, dtype=np.int8)
        else:
            w = int8_matrix(rng, shape, extreme=values == "extremes")
        packed = native.pack_weight_int8(w)
        panels, colsum = numpy_pack(w)
        assert (packed.k, packed.n) == shape
        assert packed.panels.dtype == np.int8 and packed.colsum.dtype == np.int32
        assert packed.panels.shape == panels.shape
        assert packed.panels.ctypes.data % 64 == 0
        assert packed.panels.tobytes() == panels.tobytes()
        assert packed.colsum.tobytes() == colsum.tobytes()

    def test_wider_integer_input_packs_as_its_int8_values(self, native):
        """``quant.quantize`` hands over int64 data; it packs like the int8."""
        w = int8_matrix(np.random.default_rng(4), (70, 37), extreme=False)
        wide = native.pack_weight_int8(w.astype(np.int64))
        panels, colsum = numpy_pack(w)
        assert wide.panels.tobytes() == panels.tobytes()
        assert wide.colsum.tobytes() == colsum.tobytes()

    @pytest.mark.parametrize("shape", [(8,), (2, 8, 4)])
    def test_a_weight_that_is_not_a_matrix_is_refused(self, native, shape):
        with pytest.raises(ValueError, match=r"\(k, n\)"):
            native.pack_weight_int8(np.zeros(shape, dtype=np.int8))


@needs_native
class TestNativeEngineParity:
    """Sessions on the native kernel == numpy-kernel sessions, bitwise."""

    @pytest.mark.parametrize("precision", ["fp32", "int8"])
    @pytest.mark.parametrize("compute_dtype", ["float32", "float64"])
    def test_forward_and_pooled(self, fast_registry, precision, compute_dtype):
        rng = np.random.default_rng(9)
        requests = [rng.integers(0, 100, size=length) for length in (5, 12, 9)]
        sessions = {}
        for kernel in ("numpy", "native"):
            config = tiny_test_config(
                matmul_precision=precision,
                compute_dtype=compute_dtype,
                kernel=kernel,
            )
            model = EncoderModel.initialize(config, seed=3)
            sessions[kernel] = InferenceSession.from_model(
                model, spec=BackendSpec.nn_lut(), registry=fast_registry
            )
        for a, b in zip(
            sessions["numpy"].forward(requests),
            sessions["native"].forward(requests),
        ):
            assert np.array_equal(a, b)
        assert np.array_equal(
            sessions["numpy"].pooled(requests),
            sessions["native"].pooled(requests),
        )

    @pytest.mark.parametrize("precision", ["fp32", "int8"])
    def test_two_replica_pool_equals_a_single_session(self, fast_registry, precision):
        """Replica threads sharing the one kernel and the one frozen model."""
        config = SessionConfig(
            model_family="tiny",
            compute_dtype="float64",
            matmul_precision=precision,
            kernel="native",
            max_batch_size=3,
        )
        pool = SessionPool(
            config, spec=BackendSpec.nn_lut(), registry=fast_registry, num_replicas=2
        )
        single = InferenceSession.from_model(
            pool.model, spec=pool.spec, registry=fast_registry, max_batch_size=3
        )
        assert pool.model.config.kernel == single.model.config.kernel == "native"
        rng = np.random.default_rng(7)
        lengths = (5, 12, 5, 9, 30, 12, 7, 5, 9, 5)
        requests = [rng.integers(0, 100, size=length) for length in lengths]
        for a, b in zip(pool.forward(requests), single.forward(requests)):
            assert np.array_equal(a, b)


class TestCompileHygiene:
    """Build-plumbing contracts: temp-file hygiene + the CFLAGS escape hatch."""

    def test_failed_spawn_leaves_no_temp_files(self, monkeypatch, tmp_path):
        # Regression: when subprocess.run itself raised (missing compiler
        # binary, TimeoutExpired) the mkstemp'd temp .so was never removed —
        # every failed attempt leaked a kernels cache entry.
        from repro.core import kernels as K

        monkeypatch.setenv("REPRO_KERNEL_CACHE_DIR", str(tmp_path))
        with pytest.raises(RuntimeError, match="native kernel compilation failed"):
            K._compile_library("/nonexistent/repro-test-cc", "int repro_probe;")
        assert list(tmp_path.iterdir()) == []

    def test_cflags_reach_the_compile_command_and_failures_stay_clean(
        self, monkeypatch, tmp_path
    ):
        from repro.core import kernels as K

        compiler = K._find_compiler()
        if compiler is None:
            pytest.skip("no C compiler on this machine")
        bogus = "-fdefinitely-not-a-real-flag"
        monkeypatch.setenv("REPRO_KERNEL_CFLAGS", bogus)
        monkeypatch.setenv("REPRO_KERNEL_CACHE_DIR", str(tmp_path))
        with pytest.raises(RuntimeError) as excinfo:
            K._compile_library(compiler, "cflags-probe-source")
        assert bogus in str(excinfo.value)  # the escape hatch reached cc
        assert list(tmp_path.iterdir()) == []  # and the failure left no litter

    def test_extra_cflags_parsing(self, monkeypatch):
        from repro.core.kernels import _extra_cflags

        monkeypatch.delenv("REPRO_KERNEL_CFLAGS", raising=False)
        assert _extra_cflags() == ()
        monkeypatch.setenv("REPRO_KERNEL_CFLAGS", "  -g   -DPROBE=1 ")
        assert _extra_cflags() == ("-g", "-DPROBE=1")
