"""Tests for the numpy Transformer substrate and the pluggable backends."""

import numpy as np
import pytest

from repro.api import BackendSpec, build_backend
from repro.core import functions
from repro.core.kernels import NUMPY_KERNEL
from repro.transformer import (
    Embedding,
    EncoderModel,
    Linear,
    MobileBertLikeModel,
    MultiHeadSelfAttention,
    NonlinearBackend,
    NormParameters,
    RobertaLikeModel,
    TransformerConfig,
    TransformerEncoder,
    tiny_test_config,
)
from repro.transformer.heads import ClassificationHead, RegressionHead, SpanHead


def _exact():
    return build_backend(BackendSpec.exact())


def _nn_lut(registry=None, **spec_kwargs):
    return build_backend(BackendSpec.nn_lut(**spec_kwargs), registry=registry)


class TestConfig:
    def test_head_dim(self):
        config = tiny_test_config()
        assert config.head_dim * config.num_heads == config.hidden_size

    def test_validation(self):
        with pytest.raises(ValueError, match="divisible"):
            TransformerConfig(hidden_size=30, num_heads=4)
        with pytest.raises(ValueError, match="activation"):
            TransformerConfig(activation="swish")
        with pytest.raises(ValueError, match="matmul_precision"):
            TransformerConfig(matmul_precision="int4")


class TestLayers:
    def test_linear_shapes(self, rng):
        layer = Linear.initialize(8, 4, rng)
        out = layer(rng.normal(size=(3, 5, 8)))
        assert out.shape == (3, 5, 4)

    def test_linear_precisions_agree_roughly(self, rng):
        layer = Linear.initialize(16, 16, rng)
        x = rng.normal(size=(4, 16))
        fp32 = layer(x)
        layer.precision = "fp16"
        fp16 = layer(x)
        layer.precision = "int8"
        int8 = layer(x)
        assert np.max(np.abs(fp16 - fp32)) < 0.05
        assert np.max(np.abs(int8 - fp32)) < 0.2

    def test_linear_rejects_unknown_precision(self, rng):
        layer = Linear.initialize(2, 2, rng, precision="bf16")
        with pytest.raises(ValueError, match="precision"):
            layer(rng.normal(size=(2, 2)))

    def test_embedding_lookup(self, rng):
        emb = Embedding.initialize(vocab_size=50, max_sequence_length=16, hidden_size=8, rng=rng)
        out = emb(np.array([[0, 1, 2], [3, 4, 5]]))
        assert out.shape == (2, 3, 8)

    def test_embedding_rejects_out_of_range(self, rng):
        emb = Embedding.initialize(vocab_size=10, max_sequence_length=4, hidden_size=8, rng=rng)
        with pytest.raises(ValueError, match="vocabulary"):
            emb(np.array([[11]]))
        with pytest.raises(ValueError, match="sequence length"):
            emb(np.zeros((1, 9), dtype=int))

    def test_norm_parameters_affine(self, rng):
        params = NormParameters.initialize(4)
        gamma, beta = params.cast(np.float64)
        np.testing.assert_allclose(
            NUMPY_KERNEL.affine(np.ones((2, 4)), gamma, beta), np.ones((2, 4))
        )


class TestAttentionAndEncoder:
    def test_attention_output_shape(self, rng):
        config = tiny_test_config()
        attn = MultiHeadSelfAttention.initialize(config, rng)
        x = rng.normal(size=(2, 8, config.hidden_size))
        out, bias = attn(x, _exact())
        assert out.shape == x.shape
        assert bias.shape == (config.hidden_size,)

    def test_attention_mask_blocks_padding(self, rng):
        config = tiny_test_config()
        attn = MultiHeadSelfAttention.initialize(config, rng)
        x = rng.normal(size=(1, 6, config.hidden_size))
        mask = np.array([[1, 1, 1, 0, 0, 0]])
        masked, _ = attn(x, _exact(), attention_mask=mask)
        # Changing the padded tokens must not change the unmasked outputs.
        x2 = x.copy()
        x2[0, 3:] += 10.0
        masked2, _ = attn(x2, _exact(), attention_mask=mask)
        np.testing.assert_allclose(masked[0, :3], masked2[0, :3], atol=1e-8)

    @pytest.mark.parametrize("head_dim", [9, 16, 25, 64, 32, 48, 80])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_score_divisor_keeps_the_float64_quotient(self, rng, head_dim, dtype):
        """``scores /= np.sqrt(head_dim)`` bit for bit: a root the score dtype
        holds exactly (9, 16, 25, 64) divides in that dtype, the rest (32,
        48, 80) keep the float64 scalar."""
        from repro.transformer.attention import _score_divisor

        divisor = _score_divisor(head_dim, np.dtype(dtype))
        exact_root = float(np.sqrt(head_dim)).is_integer()
        assert divisor.dtype == (dtype if exact_root else np.float64)
        scores = (rng.normal(size=(3, 4, 17, 17)) * 50).astype(dtype)
        scores[0, 0, 0, :4] = [0.0, -0.0, np.finfo(dtype).tiny, np.finfo(dtype).max]
        want = scores.copy()
        want /= np.sqrt(head_dim)
        got = scores.copy()
        got /= divisor
        assert got.dtype == dtype and np.array_equal(got, want)

    @pytest.mark.parametrize("precision", ["fp32", "fp16", "int8"])
    @pytest.mark.parametrize("kernel", ["numpy", "native"])
    @pytest.mark.parametrize("compute_dtype", ["float32", "float64"])
    def test_call_all_equals_separate_calls(
        self, rng, precision, kernel, compute_dtype
    ):
        """Q/K/V through one kernel call == three Linear calls, bit for bit."""
        engine = dict(precision=precision, kernel=kernel, compute_dtype=compute_dtype)
        layers = [Linear.initialize(24, n, rng, **engine) for n in (24, 24, 7)]
        for layer in layers:
            layer.bias = rng.normal(size=layer.out_features)
        x = rng.normal(size=(2, 5, 24)).astype(compute_dtype)
        together = Linear.call_all(layers, x)
        for layer, got in zip(layers, together):
            want = layer(x)
            assert got.dtype == want.dtype and np.array_equal(got, want)
        # Layers of different engines fall back to the plain loop.
        other = "fp16" if precision == "int8" else "int8"
        mixed = [layers[0], Linear.initialize(24, 3, rng, **dict(engine, precision=other))]
        for layer, got in zip(mixed, Linear.call_all(mixed, x)):
            assert np.array_equal(got, layer(x))

    def test_encoder_stack_runs(self, rng):
        config = tiny_test_config()
        encoder = TransformerEncoder.initialize(config, rng)
        x = rng.normal(size=(2, 8, config.hidden_size))
        out = encoder(x, _exact())
        assert out.shape == x.shape
        assert encoder.num_layers == config.num_layers
        assert encoder.num_parameters() > 0


class TestModels:
    def test_roberta_like_forward_and_pooled(self):
        model = RobertaLikeModel.build(seed=0, num_layers=2, hidden_size=32, num_heads=2,
                                       intermediate_size=64, vocab_size=200)
        tokens = np.random.default_rng(0).integers(0, 200, size=(4, 16))
        hidden = model.forward(tokens)
        pooled = model.pooled(tokens)
        assert hidden.shape == (4, 16, 32)
        assert pooled.shape == (4, 32)
        assert model.num_parameters() > 0

    def test_deterministic_given_seed(self):
        a = RobertaLikeModel.build(seed=7, num_layers=1, hidden_size=32, num_heads=2,
                                   intermediate_size=64, vocab_size=100)
        b = RobertaLikeModel.build(seed=7, num_layers=1, hidden_size=32, num_heads=2,
                                   intermediate_size=64, vocab_size=100)
        tokens = np.random.default_rng(1).integers(0, 100, size=(2, 8))
        np.testing.assert_allclose(a.pooled(tokens), b.pooled(tokens))

    def test_mobilebert_like_ignores_gelu_and_layernorm_backends(self):
        """Softmax is MobileBERT's only transcendental op: replacing GELU and
        LayerNorm must not change its output at all."""
        model = MobileBertLikeModel.build(seed=0, num_layers=2, hidden_size=32, num_heads=2,
                                          intermediate_size=32, vocab_size=300)
        tokens = np.random.default_rng(2).integers(0, 300, size=(2, 12))
        exact = model.forward(tokens, backend=_exact())
        approx = model.forward(
            tokens,
            backend=build_backend(BackendSpec.linear_lut(replace=["gelu", "layernorm"])),
        )
        np.testing.assert_allclose(exact, approx, atol=1e-12)


class TestBackends:
    def test_unknown_operator_rejected(self):
        with pytest.raises(ValueError, match="Unknown operator"):
            _nn_lut(replace=["gelu", "attention"])

    def test_partial_replacement_keeps_other_ops_exact(self, fast_registry, rng):
        backend = _nn_lut(registry=fast_registry, replace=["gelu"])
        x = rng.normal(size=(2, 8))
        np.testing.assert_allclose(backend.apply_softmax(x), functions.softmax(x))
        np.testing.assert_allclose(backend.apply_layernorm(x), functions.layer_norm(x))

    def test_backend_precisions(self, fast_registry, rng):
        x = rng.normal(size=(4, 16))
        for precision in ("fp32", "fp16", "int32"):
            backend = _nn_lut(registry=fast_registry, precision=precision)
            assert np.all(np.isfinite(backend.apply_gelu(x)))

    def test_invalid_precision(self, fast_registry):
        with pytest.raises(ValueError, match="precision"):
            _nn_lut(registry=fast_registry, precision="int4")

    def test_recorder_collects_inputs(self, fast_registry, rng):
        backend = _nn_lut(registry=fast_registry)
        backend.recorder.enabled = True
        backend.apply_gelu(rng.normal(size=(2, 3)))
        backend.apply_softmax(rng.normal(size=(2, 3)))
        backend.apply_layernorm(rng.normal(size=(2, 3)))
        assert len(backend.recorder.gelu_inputs) == 1
        assert len(backend.recorder.softmax_inputs) == 1
        assert len(backend.recorder.layernorm_inputs) == 1
        backend.recorder.clear()
        assert len(backend.recorder.gelu_inputs) == 0

    def test_ibert_backend_close_to_exact(self, rng):
        model = RobertaLikeModel.build(seed=0, num_layers=2, hidden_size=32, num_heads=2,
                                       intermediate_size=64, vocab_size=100)
        tokens = rng.integers(0, 100, size=(2, 10))
        exact = model.pooled(tokens, backend=_exact())
        approx = model.pooled(tokens, backend=build_backend(BackendSpec.ibert()))
        assert np.mean(np.abs(exact - approx)) < 0.05

    def test_hand_built_backend_with_exact_scalars(self, rng):
        from repro.core.approximators import (
            ExactScalar, LutGelu, LutLayerNorm, LutSoftmax,
        )
        from repro.core.scaling import InputScaler

        backend = NonlinearBackend(
            name="hand-built",
            gelu=LutGelu(ExactScalar(functions.gelu)),
            softmax=LutSoftmax(
                ExactScalar(functions.exp), ExactScalar(functions.reciprocal)
            ),
            layernorm=LutLayerNorm(
                ExactScalar(functions.rsqrt), scaler=InputScaler()
            ),
        )
        x = rng.normal(size=(3, 7))
        np.testing.assert_allclose(backend.apply_gelu(x), functions.gelu(x), atol=1e-9)


class TestHeads:
    def test_classification_head_learns_separable_data(self, rng):
        features = np.concatenate([rng.normal(-2, 1, (100, 8)), rng.normal(2, 1, (100, 8))])
        labels = np.concatenate([np.zeros(100, int), np.ones(100, int)])
        head = ClassificationHead.fit(features, labels, num_classes=2)
        assert np.mean(head.predict(features) == labels) > 0.95
        proba = head.predict_proba(features)
        np.testing.assert_allclose(proba.sum(axis=-1), 1.0, rtol=1e-9)

    def test_regression_head_recovers_linear_target(self, rng):
        features = rng.normal(size=(200, 6))
        weights = rng.normal(size=6)
        targets = features @ weights + 0.5
        head = RegressionHead.fit(features, targets)
        assert np.max(np.abs(head.predict(features) - targets)) < 1e-3

    def test_span_head_finds_planted_spans(self, rng):
        # Token features where span membership is encoded in one dimension.
        num, seq, hidden = 40, 20, 8
        features = rng.normal(size=(num, seq, hidden)) * 0.1
        starts = rng.integers(2, 10, size=num)
        ends = starts + 4
        for i in range(num):
            features[i, starts[i] : ends[i] + 1, 0] += 3.0
        head = SpanHead.fit(features, starts, ends)
        pred_starts, pred_ends = head.predict(features)
        overlap = np.mean((pred_starts <= ends) & (pred_ends >= starts))
        assert overlap > 0.9

    def test_head_validation(self, rng):
        with pytest.raises(ValueError):
            ClassificationHead.fit(rng.normal(size=(4, 3, 2)), np.zeros(4, int), 2)
        with pytest.raises(ValueError):
            SpanHead.fit(rng.normal(size=(4, 8)), np.zeros(4, int), np.ones(4, int))
