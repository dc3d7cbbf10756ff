"""Transformer encoder configurations.

Full-size configurations matching RoBERTa-base and MobileBERT are provided
for completeness (and are what the hardware workload model in
``repro.hardware.workload`` uses to count operations), while the software
accuracy experiments default to proportionally scaled-down encoders so the
pure-numpy forward passes stay fast.  The scaled-down models keep the
architectural properties that matter for the reproduction: pre-/post-LN
placement, GELU vs ReLU feed-forward activation, and MobileBERT's property
that Softmax is the only transcendental non-linearity in its transformer
block (its normalisation is the element-wise affine "NoNorm").
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.kernels import KERNEL_NAMES

__all__ = [
    "TransformerConfig",
    "roberta_base_config",
    "roberta_like_small_config",
    "mobilebert_config",
    "mobilebert_like_small_config",
    "tiny_test_config",
]


@dataclass(frozen=True)
class TransformerConfig:
    """Hyper-parameters of an encoder-only Transformer.

    Attributes
    ----------
    hidden_size:
        Model (embedding) dimension.
    num_layers:
        Number of encoder layers.
    num_heads:
        Attention heads; must divide ``hidden_size``.
    intermediate_size:
        Feed-forward inner dimension.
    max_sequence_length:
        Longest supported sequence (sizes the position embeddings).
    vocab_size:
        Token vocabulary size (synthetic tasks use small vocabularies).
    activation:
        ``"gelu"`` (BERT/RoBERTa) or ``"relu"`` (MobileBERT blocks).
    normalization:
        ``"layernorm"`` or ``"nonorm"`` (MobileBERT's element-wise affine).
    matmul_precision:
        ``"fp32"``, ``"fp16"`` or ``"int8"`` — precision of the linear layers,
        selecting the Table 2(b) / Table 3 settings.
    compute_dtype:
        Float width of the inference engine's tensors: ``"float32"`` (the
        vectorized fast path, default) or ``"float64"`` (reproduces the seed
        numerics bit for bit; opt in for reference comparisons).
    kernel:
        Compute kernel running the linear layers' GEMMs and every encoder
        epilogue (see :mod:`repro.core.kernels`): ``"numpy"`` (the reference,
        default) or ``"native"`` (compiled int8 GEMM + fused epilogues,
        bitwise-equal results, falls back to numpy when no C toolchain is
        available).  The engine's one kernel setting.
    name:
        Human-readable tag used in experiment reports.
    """

    hidden_size: int = 128
    num_layers: int = 4
    num_heads: int = 4
    intermediate_size: int = 512
    max_sequence_length: int = 128
    vocab_size: int = 1000
    activation: str = "gelu"
    normalization: str = "layernorm"
    matmul_precision: str = "fp32"
    compute_dtype: str = "float32"
    kernel: str = "numpy"
    name: str = "transformer"

    def __post_init__(self) -> None:
        if self.hidden_size % self.num_heads != 0:
            raise ValueError(
                f"hidden_size ({self.hidden_size}) must be divisible by "
                f"num_heads ({self.num_heads})"
            )
        if self.activation not in ("gelu", "relu"):
            raise ValueError(f"activation must be 'gelu' or 'relu', got {self.activation!r}")
        if self.normalization not in ("layernorm", "nonorm"):
            raise ValueError(
                f"normalization must be 'layernorm' or 'nonorm', got {self.normalization!r}"
            )
        if self.matmul_precision not in ("fp32", "fp16", "int8"):
            raise ValueError(
                "matmul_precision must be 'fp32', 'fp16' or 'int8', "
                f"got {self.matmul_precision!r}"
            )
        if self.compute_dtype not in ("float32", "float64"):
            raise ValueError(
                "compute_dtype must be 'float32' or 'float64', "
                f"got {self.compute_dtype!r}"
            )
        if self.kernel not in KERNEL_NAMES:
            raise ValueError(
                f"kernel must be one of {KERNEL_NAMES}, got {self.kernel!r}"
            )

    @property
    def head_dim(self) -> int:
        return self.hidden_size // self.num_heads


def roberta_base_config(**overrides: object) -> TransformerConfig:
    """RoBERTa-base: 12 layers, hidden 768, 12 heads, FFN 3072, GELU."""
    params = dict(
        hidden_size=768,
        num_layers=12,
        num_heads=12,
        intermediate_size=3072,
        max_sequence_length=1024,
        vocab_size=50265,
        activation="gelu",
        normalization="layernorm",
        name="roberta-base",
    )
    params.update(overrides)
    return TransformerConfig(**params)


def roberta_like_small_config(**overrides: object) -> TransformerConfig:
    """Scaled-down RoBERTa-like encoder used by the software experiments."""
    params = dict(
        hidden_size=128,
        num_layers=4,
        num_heads=4,
        intermediate_size=512,
        max_sequence_length=128,
        vocab_size=2000,
        activation="gelu",
        normalization="layernorm",
        name="roberta-like-small",
    )
    params.update(overrides)
    return TransformerConfig(**params)


def mobilebert_config(**overrides: object) -> TransformerConfig:
    """MobileBERT: 24 thin layers, ReLU feed-forward, NoNorm normalisation.

    (The real MobileBERT uses bottleneck blocks with stacked FFNs; for the
    purposes of this reproduction the relevant property is that Softmax is the
    only transcendental non-linearity in its transformer block.)
    """
    params = dict(
        hidden_size=512,
        num_layers=24,
        num_heads=4,
        intermediate_size=512,
        max_sequence_length=512,
        vocab_size=30522,
        activation="relu",
        normalization="nonorm",
        name="mobilebert",
    )
    params.update(overrides)
    return TransformerConfig(**params)


def mobilebert_like_small_config(**overrides: object) -> TransformerConfig:
    """Scaled-down MobileBERT-like encoder used by the SQuAD-style experiment."""
    params = dict(
        hidden_size=128,
        num_layers=4,
        num_heads=4,
        intermediate_size=128,
        max_sequence_length=128,
        vocab_size=2000,
        activation="relu",
        normalization="nonorm",
        name="mobilebert-like-small",
    )
    params.update(overrides)
    return TransformerConfig(**params)


def tiny_test_config(**overrides: object) -> TransformerConfig:
    """Very small configuration for fast unit tests."""
    params = dict(
        hidden_size=32,
        num_layers=2,
        num_heads=2,
        intermediate_size=64,
        max_sequence_length=32,
        vocab_size=100,
        activation="gelu",
        normalization="layernorm",
        name="tiny-test",
    )
    params.update(overrides)
    return TransformerConfig(**params)
