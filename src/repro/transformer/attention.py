"""Multi-head self-attention with a pluggable Softmax implementation."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.kernels import NUMPY_KERNEL, ComputeKernel
from .config import TransformerConfig
from .layers import Linear
from .nonlinear_backend import NonlinearBackend

__all__ = ["MultiHeadSelfAttention"]


def _score_divisor(head_dim: int, dtype: np.dtype) -> np.floating:
    """``sqrt(head_dim)`` as the scalar ``scores /= ...`` divides by.

    In the scores' own dtype when it holds the root exactly (head_dim 16,
    64, ...): float32 scores over a float64 scalar run numpy's float64 loop
    with a cast each way, five times slower, for the same bits — a quotient
    rounded to 53 bits and then to 24 is the quotient rounded to 24.  A root
    the dtype would round (head_dim 32, 48) stays float64, as before.
    """
    root = np.sqrt(head_dim)
    narrow = dtype.type(root)
    return narrow if narrow == root else root


@dataclass
class MultiHeadSelfAttention:
    """Standard scaled dot-product multi-head self-attention.

    The Softmax over attention scores is routed through the encoder's
    :class:`NonlinearBackend`, which is where NN-LUT / Linear-LUT / I-BERT
    approximations plug in.
    """

    query: Linear
    key: Linear
    value: Linear
    output: Linear
    num_heads: int

    @classmethod
    def initialize(
        cls, config: TransformerConfig, rng: np.random.Generator
    ) -> "MultiHeadSelfAttention":
        hidden = config.hidden_size
        engine = dict(
            precision=config.matmul_precision,
            compute_dtype=config.compute_dtype,
            kernel=config.kernel,
        )
        return cls(
            query=Linear.initialize(hidden, hidden, rng, **engine),
            key=Linear.initialize(hidden, hidden, rng, **engine),
            value=Linear.initialize(hidden, hidden, rng, **engine),
            output=Linear.initialize(hidden, hidden, rng, **engine),
            num_heads=config.num_heads,
        )

    def _split_heads(self, x: np.ndarray) -> np.ndarray:
        """(batch, seq, hidden) -> (batch, heads, seq, head_dim)."""
        batch, seq, hidden = x.shape
        head_dim = hidden // self.num_heads
        return x.reshape(batch, seq, self.num_heads, head_dim).transpose(0, 2, 1, 3)

    def _merge_heads(self, x: np.ndarray) -> np.ndarray:
        """(batch, heads, seq, head_dim) -> (batch, seq, hidden)."""
        batch, heads, seq, head_dim = x.shape
        return x.transpose(0, 2, 1, 3).reshape(batch, seq, heads * head_dim)

    def __call__(
        self,
        hidden_states: np.ndarray,
        backend: NonlinearBackend,
        attention_mask: np.ndarray | None = None,
        kernel: ComputeKernel = NUMPY_KERNEL,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Apply self-attention; returns ``(context W_o, bias)``.

        The output projection's bias is left un-added so the encoder layer's
        compute-kernel epilogue folds it into the residual pass (see
        :meth:`repro.transformer.layers.Linear.call_prebias`).

        Parameters
        ----------
        hidden_states:
            Array of shape ``(batch, seq, hidden)``.
        backend:
            Non-linear backend providing the Softmax implementation.
        attention_mask:
            Optional ``(batch, seq)`` array with 1 for valid tokens and 0 for
            padding; masked positions receive a large negative score.
        kernel:
            Compute kernel evaluating a table-driven Softmax.
        """
        # The context is computed in its own frame so q/k/v and the score
        # tensor are released before the output projection allocates.
        return self.output.call_prebias(
            self._context(hidden_states, backend, attention_mask, kernel)
        )

    def _context(
        self,
        hidden_states: np.ndarray,
        backend: NonlinearBackend,
        attention_mask: np.ndarray | None,
        kernel: ComputeKernel,
    ) -> np.ndarray:
        """Merged-head attention context, before the output projection."""
        if hidden_states.ndim != 3:
            raise ValueError(
                f"hidden_states must be (batch, seq, hidden), got {hidden_states.shape}"
            )
        q, k, v = map(
            self._split_heads,
            Linear.call_all((self.query, self.key, self.value), hidden_states),
        )

        scores = np.matmul(q, k.transpose(0, 1, 3, 2))
        scores /= _score_divisor(q.shape[-1], scores.dtype)
        if attention_mask is not None:
            mask = np.asarray(attention_mask)[:, None, None, :]
            np.copyto(scores, -1e4, where=mask <= 0)
        probabilities = backend.apply_softmax(scores, axis=-1, kernel=kernel)
        context = np.matmul(probabilities, v)
        return self._merge_heads(context)

    def num_parameters(self) -> int:
        return sum(
            layer.num_parameters() for layer in (self.query, self.key, self.value, self.output)
        )
