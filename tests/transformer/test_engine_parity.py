"""One engine path: every kernel x backend x architecture == the seed reference.

The encoder runs a single layer body (projection -> kernel epilogue) for
every compute kernel, operator backend, activation, normalisation and
recorder state.  ``seed_forward`` below is the reference it must reproduce
bit for bit in float64: the original unfused op sequence, written out
independently of the encoder — per-call ``matmul_with_precision(x, W) + b``
linears (the seed oracle in ``tests/oracles.py``) and the backend's operator
objects called directly.

The second gate is the serving half of the same guarantee, off the ``tiny``
model's 32/64 shapes: a micro-batch of same-length requests equals the
requests served one at a time, bit for bit, because both issue GEMMs of the
identical shape (one per sequence).  BLAS results are *not* invariant to
stacking the batch's rows into one GEMM — the 60/122 and 96/130 widths and
batches of length-1 requests (``m = 1`` is gemv, ``m = batch`` is gemm) are
where that shows.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import seed_linear_call
from repro.api import BackendSpec, InferenceSession, SessionConfig, build_backend
from repro.core.kernels import native_available
from repro.transformer import tiny_test_config
from repro.transformer.models import EncoderModel

KERNELS = (
    "numpy",
    pytest.param(
        "native",
        marks=pytest.mark.skipif(
            not native_available(), reason="compiled native kernel unavailable"
        ),
    ),
)

SPECS = {
    "nn_lut": BackendSpec.nn_lut(),
    "linear_lut": BackendSpec.linear_lut(),
    "exact": BackendSpec.exact(),
    "ibert": BackendSpec.ibert(),
}


def seed_forward(model, tokens, mask, backend):
    """The seed's unfused forward; returns hidden states + operator inputs."""
    seen = {"gelu": [], "softmax": [], "layernorm": []}
    config = model.config

    def normalise(x, params):
        if config.normalization == "layernorm":
            seen["layernorm"].append(x.copy())
            return backend.layernorm(x, gamma=params.gamma, beta=params.beta, axis=-1)
        return x * params.gamma + params.beta

    def heads(x):
        batch, seq, _ = x.shape
        return x.reshape(batch, seq, config.num_heads, config.head_dim).transpose(
            0, 2, 1, 3
        )

    hidden = normalise(model.embedding(tokens), model.embedding_norm)
    for layer in model.encoder.layers:
        attention = layer.attention
        q, k, v = (
            heads(seed_linear_call(projection, hidden))
            for projection in (attention.query, attention.key, attention.value)
        )
        scores = np.matmul(q, k.transpose(0, 1, 3, 2)) / np.sqrt(config.head_dim)
        scores = np.where(mask[:, None, None, :] <= 0, -1e4, scores)
        seen["softmax"].append(scores.copy())
        context = np.matmul(backend.softmax(scores, axis=-1), v)
        context = context.transpose(0, 2, 1, 3).reshape(hidden.shape)
        hidden = normalise(
            hidden + seed_linear_call(attention.output, context), layer.attention_norm
        )
        inner = seed_linear_call(layer.ffn_in, hidden)
        if config.activation == "gelu":
            seen["gelu"].append(inner.copy())
            inner = backend.gelu(inner)
        else:
            inner = np.maximum(inner, 0.0)
        hidden = normalise(hidden + seed_linear_call(layer.ffn_out, inner), layer.output_norm)
    return hidden, seen


@pytest.mark.parametrize("recording", [False, True], ids=["plain", "recording"])
@pytest.mark.parametrize("normalization", ["layernorm", "nonorm"])
@pytest.mark.parametrize("activation", ["gelu", "relu"])
@pytest.mark.parametrize("method", sorted(SPECS))
@pytest.mark.parametrize("kernel", KERNELS)
def test_float64_engine_equals_seed_reference(
    fast_registry, kernel, method, activation, normalization, recording
):
    config = tiny_test_config(
        compute_dtype="float64",
        kernel=kernel,
        activation=activation,
        normalization=normalization,
    )
    model = EncoderModel.initialize(config, seed=3)
    backend = build_backend(SPECS[method], registry=fast_registry)
    rng = np.random.default_rng(0)
    tokens = rng.integers(0, config.vocab_size, size=(3, 11))
    mask = np.ones((3, 11), dtype=np.int64)
    mask[1, 7:] = 0
    expected, seen = seed_forward(model, tokens, mask, backend)

    with backend.recording(recording) as recorder:
        hidden = model.forward(tokens, backend=backend, attention_mask=mask)
    assert hidden.dtype == np.float64
    assert np.array_equal(hidden, expected)
    for op, inputs in seen.items():
        recorded = getattr(recorder, f"{op}_inputs")
        if not recording:
            assert recorded == []
            continue
        assert len(recorded) == len(inputs), op
        for site, (got, want) in enumerate(zip(recorded, inputs)):
            assert np.array_equal(got, want), f"{op} site {site}"


#: (hidden, intermediate, heads): ``tiny`` as it is, then two widths whose
#: float64 GEMMs change bits when a batch's rows are stacked.
WIDTHS = ((32, 64, 2), (60, 122, 4), (96, 130, 4))


@pytest.mark.parametrize("matmul_precision", ["fp32", "fp16"])
@pytest.mark.parametrize("method", ["exact", "nn_lut"])
@pytest.mark.parametrize("width", WIDTHS, ids=lambda w: f"{w[0]}x{w[1]}")
def test_float64_batched_equals_per_call(
    fast_registry, width, method, matmul_precision
):
    hidden, intermediate, heads = width
    session = InferenceSession(
        SessionConfig(
            model_family="tiny",
            compute_dtype="float64",
            matmul_precision=matmul_precision,
            max_batch_size=4,
            model_overrides={
                "hidden_size": hidden,
                "intermediate_size": intermediate,
                "num_heads": heads,
            },
        ),
        SPECS[method],
        registry=fast_registry,
    )
    vocab_size = session.model.config.vocab_size

    @settings(max_examples=25, deadline=None)
    @given(st.integers(2, 4), st.integers(1, 20), st.integers(0, 2**32 - 1))
    @example(4, 1, 0)  # several length-1 requests in one batch
    @example(2, 1, 1)
    def check(batch, length, seed):
        rng = np.random.default_rng(seed)
        requests = list(rng.integers(0, vocab_size, size=(batch, length)))
        batched = session.forward(requests)
        for request, got in zip(requests, batched):
            (per_call,) = session.forward([request])
            assert got.dtype == np.float64
            assert np.array_equal(got, per_call)

    check()
