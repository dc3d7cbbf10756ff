"""Pure-numpy Transformer encoder substrate with pluggable non-linearities."""

from .attention import MultiHeadSelfAttention
from .config import (
    TransformerConfig,
    mobilebert_config,
    mobilebert_like_small_config,
    roberta_base_config,
    roberta_like_small_config,
    tiny_test_config,
)
from .encoder import TransformerEncoder, TransformerEncoderLayer
from .heads import ClassificationHead, RegressionHead, SpanHead
from .layers import (
    Embedding,
    Linear,
    NormParameters,
)
from .models import EncoderModel
from .nonlinear_backend import (
    ALL_OPS,
    NonlinearBackend,
    OperatorRecorder,
)

__all__ = [
    "TransformerConfig",
    "roberta_base_config",
    "roberta_like_small_config",
    "mobilebert_config",
    "mobilebert_like_small_config",
    "tiny_test_config",
    "Linear",
    "Embedding",
    "NormParameters",
    "MultiHeadSelfAttention",
    "TransformerEncoderLayer",
    "TransformerEncoder",
    "EncoderModel",
    "ClassificationHead",
    "RegressionHead",
    "SpanHead",
    "ALL_OPS",
    "NonlinearBackend",
    "OperatorRecorder",
]
