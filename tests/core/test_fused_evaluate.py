"""Equivalence tests: fused LUT kernels vs the seed evaluation semantics.

The seed implementations (double float64 cast, ``searchsorted``, un-fused
gathers) are replicated inline here as the reference; the fused
``evaluate(x, out=None)`` kernels must reproduce them bit for bit on float64
inputs and to within 1e-6 on float32 inputs over the training ranges.
"""

import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.linear_lut import linear_lut_for
from repro.core import approximators, functions
from repro.core.approximators import LutGelu, LutSoftmax
from repro.core.kernels import NUMPY_KERNEL, _fusible_table
from repro.core.lut import (
    _BLOCK_ELEMENTS,
    LookupTable,
    lut_evaluation_stats,
    reset_lut_evaluation_stats,
)
from repro.core.quantization import Fp16LookupTable, Int32LookupTable


def seed_lut_call(lut, x):
    """The seed's ``LookupTable.__call__`` (including its double cast)."""
    x = np.asarray(x, dtype=np.float64)
    idx = np.searchsorted(lut.breakpoints, np.asarray(x, dtype=np.float64), side="right")
    return lut.slopes[idx] * x + lut.intercepts[idx]


def seed_fp16_call(lut16, x):
    x16 = np.asarray(x, dtype=np.float16)
    idx = np.searchsorted(
        lut16.breakpoints.astype(np.float64), x16.astype(np.float64), side="right"
    )
    return (lut16.slopes[idx] * x16 + lut16.intercepts[idx]).astype(np.float64)


def seed_int32_call(lut_q, x):
    xq = np.round(np.asarray(x, dtype=np.float64) / lut_q.scales[0]).astype(np.int64)
    idx = np.searchsorted(lut_q.q_breakpoints, xq, side="right")
    acc = lut_q.q_slopes[idx] * xq + lut_q.q_intercepts[idx]
    return acc.astype(np.float64) * lut_q.scales[2]


def random_table(rng, num_entries=16, scale=1.0):
    return LookupTable(
        breakpoints=np.sort(rng.normal(size=num_entries - 1)) * scale,
        slopes=rng.normal(size=num_entries),
        intercepts=rng.normal(size=num_entries),
    )


EDGE_INPUTS = [
    np.array([]),  # empty
    np.array(0.25),  # scalar (0-d)
    np.array([0.0]),
    np.linspace(-50.0, 50.0, 100_003),  # large, beyond the table range
]


class TestFusedFloat64BitCompatibility:
    """On float64 inputs the fused kernel must equal the seed path exactly."""

    @pytest.mark.parametrize("case", range(4))
    def test_random_tables(self, rng, case):
        lut = random_table(rng, scale=10.0**case)
        span = np.abs(lut.breakpoints).max() + 1
        x = np.concatenate(
            [
                rng.uniform(-2 * span, 2 * span, 20_000),
                lut.breakpoints,
                np.nextafter(lut.breakpoints, -np.inf),
                np.nextafter(lut.breakpoints, np.inf),
            ]
        )
        assert np.array_equal(lut(x), seed_lut_call(lut, x))
        assert np.array_equal(lut.evaluate(x), seed_lut_call(lut, x))

    @pytest.mark.parametrize("x", EDGE_INPUTS, ids=["empty", "scalar", "one", "large"])
    def test_edge_inputs(self, rng, x):
        lut = random_table(rng)
        result = lut(x)
        assert result.shape == np.shape(x)
        assert result.dtype == np.float64
        assert np.array_equal(result, seed_lut_call(lut, x))

    def test_fitted_primitives(self, fast_registry):
        for name in ("gelu", "exp", "reciprocal", "rsqrt"):
            lut = fast_registry.lut(name, num_entries=16)
            low, high = lut.metadata["input_range"]
            grid = np.linspace(low, high, 50_001)
            assert np.array_equal(lut(grid), seed_lut_call(lut, grid))

    def test_segment_index_matches_searchsorted(self, rng):
        lut = random_table(rng)
        x = rng.uniform(-3, 3, 10_000)
        assert np.array_equal(
            lut.segment_index(x), np.searchsorted(lut.breakpoints, x, side="right")
        )


class TestFusedFloat32:
    """Float32 inputs stay float32 and match the seed path to 1e-6 on-range."""

    def test_fitted_primitives_within_tolerance(self, fast_registry):
        for name in ("gelu", "exp", "reciprocal", "rsqrt"):
            lut = fast_registry.lut(name, num_entries=16)
            low, high = lut.metadata["input_range"]
            grid = np.linspace(low, high, 50_001)
            fused32 = lut.evaluate(grid.astype(np.float32))
            assert fused32.dtype == np.float32
            assert np.max(np.abs(fused32 - seed_lut_call(lut, grid))) < 1e-6

    def test_float32_index_matches_float32_searchsorted(self, rng):
        lut = random_table(rng)
        x32 = np.concatenate(
            [rng.uniform(-3, 3, 20_000), lut.breakpoints, [np.pi, -np.pi]]
        ).astype(np.float32)
        bp32 = lut.breakpoints.astype(np.float32)
        assert np.array_equal(
            lut.segment_index(x32), np.searchsorted(bp32, x32, side="right")
        )

    def test_out_buffer_and_aliasing(self, rng):
        lut = random_table(rng)
        x = rng.normal(size=1000).astype(np.float32)
        expected = lut.evaluate(x)
        out = np.empty_like(x)
        assert lut.evaluate(x, out=out) is out
        assert np.array_equal(out, expected)
        buf = x.copy()
        assert lut.evaluate(buf, out=buf) is buf  # in-place chains are allowed
        assert np.array_equal(buf, expected)

    def test_out_shape_dtype_validated(self, rng):
        lut = random_table(rng)
        x = rng.normal(size=8).astype(np.float32)
        with pytest.raises(ValueError, match="out must match"):
            lut.evaluate(x, out=np.empty(7, dtype=np.float32))
        with pytest.raises(ValueError, match="out must match"):
            lut.evaluate(x, out=np.empty(8, dtype=np.float64))


class TestPrecisionVariants:
    """FP16/INT32 fused kernels against their seed implementations."""

    @pytest.mark.parametrize("x", EDGE_INPUTS, ids=["empty", "scalar", "one", "large"])
    def test_fp16_bit_compatible(self, rng, x):
        lut16 = Fp16LookupTable(random_table(rng))
        assert np.array_equal(lut16(x), seed_fp16_call(lut16, x))

    @pytest.mark.parametrize("x", EDGE_INPUTS, ids=["empty", "scalar", "one", "large"])
    def test_int32_bit_compatible(self, rng, x):
        lut_q = Int32LookupTable(random_table(rng), input_range=(-5, 5))
        assert np.array_equal(lut_q(x), seed_int32_call(lut_q, x))

    def test_call_preserves_floating_dtype(self, rng, fitted_gelu):
        # Regression: __call__ force-cast through float64, so the fp32 engine
        # silently upcast wherever a backend reached a reduced-precision
        # table via __call__ instead of evaluate().
        x32 = rng.uniform(-4, 4, size=128).astype(np.float32)
        lut16 = Fp16LookupTable(fitted_gelu.lut)
        lut_q = Int32LookupTable(fitted_gelu.lut, input_range=(-5, 5))
        for variant in (lut16, lut_q):
            called = variant(x32)
            assert called.dtype == np.float32
            assert np.array_equal(called, variant.evaluate(x32))
            assert variant(x32.astype(np.float64)).dtype == np.float64
            # Non-float input still promotes to float64 once.
            assert variant(np.arange(3)).dtype == np.float64

    def test_fp16_int32_float32_inputs(self, rng, fitted_gelu):
        x = rng.uniform(-5, 5, 5000)
        lut16 = Fp16LookupTable(fitted_gelu.lut)
        lut_q = Int32LookupTable(fitted_gelu.lut, input_range=(-5, 5))
        for variant, seed_fn, tol in (
            (lut16, seed_fp16_call, 1e-2),  # fp16 resolution
            (lut_q, seed_int32_call, 1e-5),  # float32 activation rounding
        ):
            fused32 = variant.evaluate(x.astype(np.float32))
            assert fused32.dtype == np.float32
            assert np.max(np.abs(fused32 - seed_fn(variant, x))) < tol


class TestLinearLutTable:
    def test_linear_baseline_is_a_plain_table_on_the_c_core(self):
        lut = linear_lut_for("gelu", num_entries=16)
        assert type(lut) is LookupTable
        assert lut.metadata["mode"] == "linear"
        assert _fusible_table(lut)

    def test_o1_index_matches_searchsorted_including_breakpoints(self, rng):
        lut = linear_lut_for("reciprocal", num_entries=16)
        # the equally-spaced grid admits the bucketed search: no binary search
        assert lut._bucket_tables(np.dtype(np.float64)) is not None
        x = np.concatenate(
            [
                rng.uniform(0.5, 1100, 50_000),
                lut.breakpoints,
                np.nextafter(lut.breakpoints, -np.inf),
                np.nextafter(lut.breakpoints, np.inf),
            ]
        )
        assert np.array_equal(
            lut.segment_index(x), np.searchsorted(lut.breakpoints, x, side="right")
        )
        assert np.array_equal(lut(x), seed_lut_call(lut, x))


class TestBucketedSearchRobustness:
    def test_duplicate_breakpoints_fall_back_to_searchsorted(self, rng):
        bp = np.array([-1.0, 0.0, 0.0, 0.0, 1.0, 2.0, 3.0])
        lut = LookupTable(
            breakpoints=bp, slopes=rng.normal(size=8), intercepts=rng.normal(size=8)
        )
        x = rng.uniform(-2, 4, 10_000)
        assert np.array_equal(
            lut.segment_index(x), np.searchsorted(bp, x, side="right")
        )
        assert lut._buckets is False

    def test_invalidate_after_in_place_mutation(self, rng):
        lut = random_table(rng)
        x32 = rng.normal(size=100).astype(np.float32)
        stale = lut.evaluate(x32).copy()
        lut.slopes[...] = lut.slopes + 1.0
        lut.invalidate()
        refreshed = lut.evaluate(x32)
        assert not np.array_equal(stale, refreshed)
        assert np.allclose(refreshed - stale, x32, atol=1e-4)

    def test_input_scaler_promotes_float16(self, fitted_rsqrt):
        from repro.core.scaling import InputScaler

        x16 = np.array([0.5, 2.0, 100.0], dtype=np.float16)
        result = InputScaler().apply(x16, fitted_rsqrt.lut)  # must not raise
        assert result.dtype == np.float64

    def test_rebinding_parameters_invalidates_caches(self, rng):
        lut = random_table(rng)
        x32 = rng.normal(size=100).astype(np.float32)
        lut.evaluate(x32)  # warm the per-dtype parameter cache
        lut.slopes = lut.slopes + 1.0
        lut.intercepts = lut.intercepts.copy()
        fresh = LookupTable(
            breakpoints=lut.breakpoints.copy(),
            slopes=lut.slopes.copy(),
            intercepts=lut.intercepts.copy(),
        )
        assert np.array_equal(lut.evaluate(x32), fresh.evaluate(x32))


def seed_lut_call_as(lut, x):
    """``seed_lut_call`` in the dtype of ``x``: float32 sees float32 parameters."""
    if x.dtype == np.float64:
        return seed_lut_call(lut, x)
    bp, sl, ic = (
        a.astype(x.dtype) for a in (lut.breakpoints, lut.slopes, lut.intercepts)
    )
    idx = np.searchsorted(bp, x, side="right")
    return sl[idx] * x + ic[idx]


def block_table(kind, rng):
    if kind == "bucketed":  # jittered grid: gaps stay wide enough for buckets
        bp = np.linspace(-4.0, 4.0, 15) + rng.uniform(-0.2, 0.2, size=15)
        return LookupTable(bp, rng.normal(size=16), rng.normal(size=16))
    if kind == "uniform":
        return linear_lut_for("gelu", num_entries=16)
    # a duplicated breakpoint admits no bucket decomposition -> searchsorted
    bp = np.sort(np.concatenate([rng.normal(size=6), [0.5, 0.5]]))
    return LookupTable(bp, rng.normal(size=9), rng.normal(size=9))


def block_input(lut, rng, size, dtype):
    """``size`` values with NaN, +-inf and every breakpoint mixed in."""
    x = rng.uniform(-8.0, 8.0, size=size).astype(dtype)
    special = np.concatenate(
        [[np.nan, np.inf, -np.inf], lut._params(np.dtype(dtype))[0]]
    ).astype(dtype)[:size]
    x[rng.choice(size, size=special.size, replace=False)] = special
    return x


class TestBlockedEvaluate:
    """A tensor walked in ``_BLOCK_ELEMENTS`` blocks equals one pass, bit for bit."""

    @given(
        seed=st.integers(0, 2**32 - 1),
        size=st.sampled_from(
            [0, 1, _BLOCK_ELEMENTS - 1, _BLOCK_ELEMENTS, _BLOCK_ELEMENTS + 1,
             2 * _BLOCK_ELEMENTS + 3]
        ),
        dtype=st.sampled_from([np.float32, np.float64]),
        kind=st.sampled_from(["bucketed", "searchsorted", "uniform"]),
        strided=st.booleans(),
        out_mode=st.sampled_from(["none", "alias", "disjoint"]),
    )
    @settings(max_examples=80, deadline=None)
    def test_bitwise_equal_to_seed(self, seed, size, dtype, kind, strided, out_mode):
        rng = np.random.default_rng(seed)
        lut = block_table(kind, rng)
        assert (lut._bucket_tables(np.dtype(dtype)) is None) == (kind == "searchsorted")
        values = block_input(lut, rng, size, dtype)
        if strided:
            backing = np.zeros(2 * size, dtype=dtype)
            x = backing[::2]
            x[...] = values
        else:
            x = values
        with np.errstate(invalid="ignore"):  # 0 * inf in a flat segment
            expected = seed_lut_call_as(lut, values.copy())
            out = {"none": None, "alias": x, "disjoint": np.empty(size, dtype=dtype)}[
                out_mode
            ]
            got = lut.evaluate(x, out=out)
        assert got.dtype == dtype
        if out is not None:
            assert got is out
        assert np.array_equal(got, expected, equal_nan=True)

    def test_partially_overlapping_out_is_one_block(self, rng):
        # Regression: with the store of block k landing on the input of block
        # k + 1, a plain block loop returns wrong values from the second block on.
        lut = block_table("bucketed", rng)
        a = rng.normal(size=2 * _BLOCK_ELEMENTS + 7)
        expected = seed_lut_call(lut, a[:-1].copy())
        lut.evaluate(a[:-1], out=a[1:])
        assert np.array_equal(a[1:], expected)
        b = rng.normal(size=2 * _BLOCK_ELEMENTS + 7).astype(np.float32)
        expected = seed_lut_call_as(lut, b[1:].copy())
        lut.evaluate(b[1:], out=b[:-1])
        assert np.array_equal(b[:-1], expected)

    def test_one_evaluation_counted_per_call(self, rng):
        lut = block_table("bucketed", rng)
        x = rng.normal(size=3 * _BLOCK_ELEMENTS + 1)
        reset_lut_evaluation_stats()
        lut.evaluate(x)
        assert lut_evaluation_stats() == {
            "evaluations": 1, "noncontiguous_inputs": 0, "contiguous_copies": 0,
        }

    def test_threads_sharing_a_table_return_single_thread_bits(self, rng):
        lut = block_table("bucketed", rng)
        inputs = [
            rng.normal(size=2 * _BLOCK_ELEMENTS + 5).astype(np.float32) for _ in range(2)
        ]
        expected = [lut.evaluate(x) for x in inputs]
        results = [[] for _ in inputs]

        def work(x, sink):
            for _ in range(20):
                sink.append(lut.evaluate(x))

        threads = [
            threading.Thread(target=work, args=pair) for pair in zip(inputs, results)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
            assert not thread.is_alive()
        for want, got in zip(expected, results):
            assert len(got) == 20
            assert all(np.array_equal(want, g) for g in got)

    @pytest.mark.parametrize("precision", ["fp16", "int32"])
    def test_precision_tables_keep_their_own_evaluate(self, rng, precision):
        lut = random_table(rng)
        x = rng.uniform(-5, 5, size=_BLOCK_ELEMENTS + 3)
        if precision == "fp16":
            variant, seed_fn = Fp16LookupTable(lut), seed_fp16_call
        else:
            variant = Int32LookupTable(lut, input_range=(-5, 5))
            seed_fn = seed_int32_call
        assert np.array_equal(variant.evaluate(x), seed_fn(variant, x))


class TestRowBlockedComposites:
    """GELU / softmax run per row block equal their single-block bodies."""

    @pytest.fixture()
    def ops(self, fast_registry):
        return (
            LutGelu(fast_registry.lut("gelu", num_entries=16)),
            LutSoftmax(
                fast_registry.lut("exp", num_entries=16),
                fast_registry.lut("reciprocal", num_entries=16),
            ),
        )

    @staticmethod
    def single_block(monkeypatch, call):
        with monkeypatch.context() as patch:
            patch.setattr(approximators, "_BLOCK_ELEMENTS", 1 << 62)
            reset_lut_evaluation_stats()
            result = call()
            return result, lut_evaluation_stats()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_gelu_rows_not_a_multiple_of_the_block(self, ops, rng, monkeypatch, dtype):
        gelu, _ = ops
        cols = 100  # 327 rows per block; 700 = 2 * 327 + 46
        x = rng.uniform(-9, 9, size=(7, 100, cols)).astype(dtype)
        bias = rng.normal(size=cols).astype(dtype)
        want, want_stats = self.single_block(monkeypatch, lambda: gelu(x))
        reset_lut_evaluation_stats()
        assert np.array_equal(gelu(x), want)
        assert lut_evaluation_stats() == want_stats
        # the kernel's fused epilogue: bias added block by block, x clobbered
        want, _ = self.single_block(
            monkeypatch, lambda: NUMPY_KERNEL.lut_gelu_bias(gelu, x.copy(), bias)
        )
        clobbered = x.copy()
        assert np.array_equal(NUMPY_KERNEL.lut_gelu_bias(gelu, clobbered, bias), want)
        assert np.array_equal(clobbered, x + bias)
        unclipped = LutGelu(gelu.gelu_approx, clip_range=None)
        want, _ = self.single_block(monkeypatch, lambda: unclipped(x))
        assert np.array_equal(unclipped(x), want)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_softmax_rows_not_a_multiple_of_the_block(self, ops, rng, monkeypatch, dtype):
        _, softmax = ops
        x = rng.normal(scale=3.0, size=(3, 5, 47, 100)).astype(dtype)
        x[..., 90:] = -1e4  # padding mask
        x[1, 2, 3, :] = -1e4  # a fully masked row
        want, want_stats = self.single_block(monkeypatch, lambda: softmax(x))
        reset_lut_evaluation_stats()
        got = softmax(x)
        assert lut_evaluation_stats() == want_stats
        assert want_stats["evaluations"] == 2  # exp + reciprocal, not per block
        assert np.array_equal(got, want)
        assert np.array_equal(got[1, 2, 3], np.full(100, got[1, 2, 3, 0]))
        if dtype == np.float64:
            from test_seed_operators import seed_softmax

            assert np.array_equal(
                got, seed_softmax(softmax.exp_approx, softmax.reciprocal_approx, x)
            )

    def test_one_block_shapes(self, ops, rng):
        from test_seed_operators import seed_gelu, seed_softmax

        gelu, softmax = ops
        tall = rng.normal(scale=3.0, size=(700, 100))
        assert np.array_equal(
            softmax(tall, axis=0),
            seed_softmax(softmax.exp_approx, softmax.reciprocal_approx, tall, axis=0),
        )
        flat = rng.uniform(-9, 9, size=2 * _BLOCK_ELEMENTS + 3)
        assert np.array_equal(gelu(flat), seed_gelu(gelu.gelu_approx, flat))
        assert np.array_equal(
            softmax(flat),
            seed_softmax(softmax.exp_approx, softmax.reciprocal_approx, flat),
        )
        strided = rng.uniform(-9, 9, size=(700, 200))[:, ::2]
        assert np.array_equal(gelu(strided), seed_gelu(gelu.gelu_approx, strided))

    @pytest.mark.parametrize("precision", ["fp16", "int32"])
    def test_precision_tables_are_row_blocked(self, ops, rng, monkeypatch, precision):
        # FP16 / INT32 tables meet the same evaluate(x, out=) contract, so the
        # composites block them too; their later blocks skip the counter.
        def quantized(lut):
            if precision == "fp16":
                return Fp16LookupTable(lut)
            return Int32LookupTable(lut, input_range=(-300.0, 1100.0))

        gelu, softmax = ops
        gelu = LutGelu(quantized(gelu.gelu_approx))
        softmax = LutSoftmax(
            quantized(softmax.exp_approx), quantized(softmax.reciprocal_approx)
        )
        x = rng.normal(scale=3.0, size=(700, 100)).astype(np.float32)
        for op in (gelu, softmax):
            want, want_stats = self.single_block(monkeypatch, lambda: op(x))
            reset_lut_evaluation_stats()
            got = op(x)
            assert got.dtype == np.float32
            assert np.array_equal(got, want)
            assert lut_evaluation_stats() == want_stats


class TestErrorHelpersAndScales:
    def test_error_helpers_share_grid(self, rng):
        lut = LookupTable(breakpoints=[], slopes=[1.0], intercepts=[0.0])
        assert lut.max_error(lambda v: v, (-1, 1)) == pytest.approx(0.0)
        assert lut.mean_l1_error(lambda v: v + 2.0, (-1, 1)) == pytest.approx(2.0)
        # max >= mean for any function, by construction on the shared grid
        lut2 = random_table(rng)
        f = functions.gelu
        assert lut2.max_error(f, (-5, 5)) >= lut2.mean_l1_error(f, (-5, 5))

    def test_symmetric_scale_rejects_non_finite(self, rng):
        # A NaN/inf slope or an unbounded input range must not mint an int32
        # table from a poisoned scale.
        lut = random_table(rng)
        with pytest.raises(ValueError, match="non-finite"):
            Int32LookupTable(lut, input_range=(-np.inf, 5.0))
        broken = lut.copy()
        broken.slopes = np.where(np.arange(broken.slopes.size) == 3, np.nan, broken.slopes)
        with pytest.raises(ValueError, match="non-finite"):
            Int32LookupTable(broken, input_range=(-5, 5))
