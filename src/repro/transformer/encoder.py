"""Transformer encoder layers and stacks.

Every layer runs one body: projections hand out ``(x W, bias)`` and the bias
add is folded into the op it feeds (residual add, GELU, ReLU) by the compute
kernel the model resolved from ``TransformerConfig.kernel``.  The reference
``NumpyKernel`` performs the plain op sequence (``x += bias; residual + x``),
the compiled kernel the same scalar operations in one pass over the tensor —
so the kernel only selects *where* the work happens, never what is computed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, List

import numpy as np

from ..core.kernels import NUMPY_KERNEL, ComputeKernel
from .attention import MultiHeadSelfAttention
from .config import TransformerConfig
from .layers import Linear, NormParameters
from .nonlinear_backend import NonlinearBackend

__all__ = ["TransformerEncoderLayer", "TransformerEncoder", "normalise"]


def normalise(
    x: np.ndarray,
    params: NormParameters,
    normalization: str,
    backend: NonlinearBackend,
    kernel: ComputeKernel,
) -> np.ndarray:
    """LayerNorm through the backend, or NoNorm's element-wise affine."""
    gamma, beta = params.cast(x.dtype)
    if normalization == "layernorm":
        return backend.apply_layernorm(x, gamma=gamma, beta=beta, kernel=kernel)
    return kernel.affine(x, gamma, beta)


@dataclass
class TransformerEncoderLayer:
    """Post-LN encoder layer: attention + FFN, each with residual + norm.

    The feed-forward activation is GELU for BERT/RoBERTa-style configurations
    and ReLU for MobileBERT-style ones; the normalisation is either LayerNorm
    (statistics through the backend) or NoNorm (element-wise affine only).
    """

    attention: MultiHeadSelfAttention
    ffn_in: Linear
    ffn_out: Linear
    attention_norm: NormParameters
    output_norm: NormParameters
    activation: str = "gelu"
    normalization: str = "layernorm"

    @classmethod
    def initialize(
        cls, config: TransformerConfig, rng: np.random.Generator
    ) -> "TransformerEncoderLayer":
        engine = dict(
            precision=config.matmul_precision,
            compute_dtype=config.compute_dtype,
            kernel=config.kernel,
        )
        return cls(
            attention=MultiHeadSelfAttention.initialize(config, rng),
            ffn_in=Linear.initialize(
                config.hidden_size, config.intermediate_size, rng, **engine
            ),
            ffn_out=Linear.initialize(
                config.intermediate_size, config.hidden_size, rng, **engine
            ),
            attention_norm=NormParameters.initialize(config.hidden_size, rng),
            output_norm=NormParameters.initialize(config.hidden_size, rng),
            activation=config.activation,
            normalization=config.normalization,
        )

    def __call__(
        self,
        hidden_states: np.ndarray,
        backend: NonlinearBackend,
        attention_mask: np.ndarray | None = None,
        kernel: ComputeKernel = NUMPY_KERNEL,
    ) -> np.ndarray:
        # Each projection output is freshly allocated, so the epilogues write
        # into it instead of a new temporary per site.
        attn_raw, attn_bias = self.attention(
            hidden_states, backend, attention_mask, kernel
        )
        residual = kernel.bias_residual(attn_raw, attn_bias, hidden_states)
        hidden_states = normalise(
            residual, self.attention_norm, self.normalization, backend, kernel
        )
        # The widened projection stays unnamed: an activation that returns a
        # new tensor then releases it before the next projection allocates.
        if self.activation == "gelu":
            ffn_hidden = backend.apply_gelu(
                *self.ffn_in.call_prebias(hidden_states), kernel
            )
        else:
            ffn_hidden = kernel.bias_relu(*self.ffn_in.call_prebias(hidden_states))
        out_raw, out_bias = self.ffn_out.call_prebias(ffn_hidden)
        residual = kernel.bias_residual(out_raw, out_bias, hidden_states)
        return normalise(
            residual, self.output_norm, self.normalization, backend, kernel
        )

    def linears(self) -> Iterator[Linear]:
        """The layer's projections: attention query/key/value/output, FFN."""
        attention = self.attention
        yield from (attention.query, attention.key, attention.value, attention.output)
        yield from (self.ffn_in, self.ffn_out)

    def num_parameters(self) -> int:
        return (
            self.attention.num_parameters()
            + self.ffn_in.num_parameters()
            + self.ffn_out.num_parameters()
            + self.attention_norm.num_parameters()
            + self.output_norm.num_parameters()
        )


@dataclass
class TransformerEncoder:
    """A stack of encoder layers."""

    layers: List[TransformerEncoderLayer] = field(default_factory=list)

    @classmethod
    def initialize(cls, config: TransformerConfig, rng: np.random.Generator) -> "TransformerEncoder":
        layers = [
            TransformerEncoderLayer.initialize(config, rng) for _ in range(config.num_layers)
        ]
        return cls(layers=layers)

    def __call__(
        self,
        hidden_states: np.ndarray,
        backend: NonlinearBackend,
        attention_mask: np.ndarray | None = None,
        kernel: ComputeKernel = NUMPY_KERNEL,
    ) -> np.ndarray:
        for layer in self.layers:
            hidden_states = layer(hidden_states, backend, attention_mask, kernel)
        return hidden_states

    @property
    def num_layers(self) -> int:
        return len(self.layers)

    def num_parameters(self) -> int:
        return sum(layer.num_parameters() for layer in self.layers)
