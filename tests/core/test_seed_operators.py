"""The LUT operators vs the seed's written-out float64 formulas, bit for bit.

``test_fused_evaluate.py`` pins the scalar table look-up to the seed's
``searchsorted`` evaluation; this file pins the three *composites* built on
it.  The seed's GELU / Softmax / LayerNorm are written out below exactly as
the first implementation computed them — float64 casts, a fresh temporary per
step, ``np.where`` for every select — and ``LutGelu`` / ``LutSoftmax`` /
``LutLayerNorm.__call__`` as well as ``NonlinearBackend.apply_*`` on every
available compute kernel must reproduce them exactly on float64 inputs.

``tests/transformer/test_engine_parity.py`` cannot see a change *inside* an
operator (its reference forward calls ``backend.gelu(...)`` itself); this
reference shares nothing with the operators but the tables.
"""

import numpy as np
import pytest
from test_fused_evaluate import seed_lut_call

from repro.api import BackendSpec, build_backend
from repro.core.kernels import get_kernel, native_available

#: ``"call"`` is the operator's own ``__call__``; the others are
#: ``NonlinearBackend.apply_*`` through that compute kernel.
PATHS = [
    "call",
    "numpy",
    pytest.param(
        "native",
        marks=pytest.mark.skipif(
            not native_available(), reason="compiled native kernel unavailable"
        ),
    ),
]


def seed_gelu(lut, x, clip_range=(-5.0, 5.0)):
    x = np.asarray(x, dtype=np.float64)
    low, high = clip_range
    inside = np.clip(x, low, high)
    approx = np.asarray(seed_lut_call(lut, inside))
    result = np.where(x > high, x, approx)
    result = np.where(x < low, 0.0, result)
    return result


def seed_softmax(exp_lut, reciprocal_lut, x, axis=-1, exp_clip=-256.0):
    x = np.asarray(x, dtype=np.float64)
    shifted = x - np.max(x, axis=axis, keepdims=True)
    shifted = np.clip(shifted, exp_clip, 0.0)
    exps = np.asarray(seed_lut_call(exp_lut, shifted), dtype=np.float64)
    exps = np.maximum(exps, 0.0)
    denom = np.sum(exps, axis=axis, keepdims=True)
    denom = np.maximum(denom, 1e-12)
    inv = np.asarray(seed_lut_call(reciprocal_lut, denom), dtype=np.float64)
    inv = np.maximum(inv, 0.0)
    return exps * inv


def seed_layernorm(
    rsqrt_lut, x, gamma=None, beta=None, axis=-1,
    scale_bits=10, threshold=1.0, eps=1e-5, clip_max=1024.0,
):
    scale = float(2**scale_bits)
    output_scale = float(np.sqrt(scale))

    def rsqrt(variance):
        variance = np.asarray(variance, dtype=np.float64)
        if clip_max is not None:
            variance = np.minimum(variance, clip_max)
        small = variance < threshold
        scaled_input = np.where(small, variance * scale, variance)
        raw = np.asarray(seed_lut_call(rsqrt_lut, scaled_input), dtype=np.float64)
        return np.where(small, raw * output_scale, raw)

    x = np.asarray(x, dtype=np.float64)
    mean = np.mean(x, axis=axis, keepdims=True)
    var = np.mean((x - mean) ** 2, axis=axis, keepdims=True)
    inv_std = rsqrt(var + eps)
    normalised = (x - mean) * inv_std
    if gamma is not None:
        normalised = normalised * gamma
    if beta is not None:
        normalised = normalised + beta
    return normalised


@pytest.fixture(scope="module")
def backend(fast_registry):
    return build_backend(BackendSpec.nn_lut(), registry=fast_registry)


def same_bits(result, reference):
    return result.dtype == np.float64 and np.array_equal(result, reference)


@pytest.mark.parametrize("path", PATHS)
def test_gelu_matches_seed_formula(backend, rng, path):
    lut = backend.gelu.gelu_approx
    # Well past the (-5, 5) clip on both sides, the clip edges themselves and
    # every breakpoint; 37 columns end in a partial vector.
    x = rng.normal(scale=4.0, size=(23, 37))
    x.flat[:6] = [-5.0, 5.0, -50.0, 50.0, np.nextafter(5.0, 6.0), np.nextafter(-5.0, -6.0)]
    x.flat[6 : 6 + lut.breakpoints.size] = lut.breakpoints
    bias = rng.normal(size=37)
    if path == "call":
        plain, biased = backend.gelu(x), backend.gelu(x + bias)
    else:
        kernel = get_kernel(path)
        plain = backend.apply_gelu(x.copy(), kernel=kernel)
        biased = backend.apply_gelu(x.copy(), bias=bias, kernel=kernel)
    assert same_bits(plain, seed_gelu(lut, x))
    assert same_bits(biased, seed_gelu(lut, x + bias))


@pytest.mark.parametrize("path", PATHS)
def test_softmax_matches_seed_formula(backend, rng, path):
    op = backend.softmax
    scores = rng.normal(scale=3.0, size=(2, 3, 7, 37))
    scores[0, 0, 0] *= 200.0  # spread past the exp table's -256 clip
    scores[..., 29:] = -1e4  # padding mask
    scores[1, 2, 3] = -1e4  # a fully masked row
    if path == "call":
        result = op(scores)
    else:
        result = backend.apply_softmax(scores.copy(), kernel=get_kernel(path))
    assert same_bits(result, seed_softmax(op.exp_approx, op.reciprocal_approx, scores))


@pytest.mark.parametrize("path", PATHS)
@pytest.mark.parametrize("affine", [True, False], ids=["affine", "plain"])
def test_layernorm_matches_seed_formula(backend, rng, path, affine):
    op = backend.layernorm
    assert (op.scaler.scale_bits, op.scaler.threshold) == (10, 1.0)
    hidden = rng.normal(size=(4, 9, 32))
    hidden[0] *= 1e-3  # variance far below the scaling threshold
    hidden[1, :4] *= 0.5  # just below it
    hidden[2] *= 3.0  # above it: no input scaling
    hidden[3] *= 100.0  # past clip_max
    hidden[1, 8] = 0.25  # constant row: variance is eps alone
    gamma = rng.normal(1.0, 0.1, size=32) if affine else None
    beta = rng.normal(0.0, 0.1, size=32) if affine else None
    if path == "call":
        result = op(hidden, gamma=gamma, beta=beta)
    else:
        result = backend.apply_layernorm(
            hidden.copy(), gamma=gamma, beta=beta, kernel=get_kernel(path)
        )
    assert same_bits(result, seed_layernorm(op.rsqrt_approx, hidden, gamma, beta))
