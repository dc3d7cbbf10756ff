"""Encoder models: RoBERTa-like and MobileBERT-like feature extractors.

The software experiments evaluate how much *accuracy of a fixed, trained
model* changes when its non-linear operators are swapped for approximations.
Here a "model" is a frozen randomly-initialised encoder (the substitute for a
pre-trained checkpoint: nothing is downloaded) plus task heads trained on top
of the exact-backend features by ``repro.tasks.finetune``.  The same encoder
instance is then re-run with each approximate backend and the fixed heads,
mirroring the paper's direct-approximation protocol (no approximation-aware
fine-tuning).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .config import (
    TransformerConfig,
    mobilebert_like_small_config,
    roberta_like_small_config,
)
from ..core.kernels import resolve_kernel
from .encoder import TransformerEncoder, TransformerEncoderLayer, normalise
from .layers import Embedding, Linear, NormParameters
from .nonlinear_backend import NonlinearBackend, _exact_backend

__all__ = ["EncoderModel", "RobertaLikeModel", "MobileBertLikeModel"]


class _ZeroFillGenerator:
    """Duck-typed ``Generator`` whose draws are all zeros.

    Lets :meth:`EncoderModel.skeleton` reuse the exact ``initialize``
    construction path (same layers, same shapes, same engine settings)
    without paying for random fills that are about to be overwritten.
    """

    def normal(self, loc: float = 0.0, scale: float = 1.0, size=None) -> np.ndarray:
        return np.zeros(() if size is None else size, dtype=np.float64)


@dataclass
class EncoderModel:
    """Embeddings + encoder stack + pooler.

    ``forward`` returns the full sequence of hidden states; ``pooled`` returns
    the first-token representation passed through a tanh pooler (the BERT
    convention used by the classification heads).
    """

    config: TransformerConfig
    embedding: Embedding
    encoder: TransformerEncoder
    embedding_norm: NormParameters
    pooler: Linear

    @classmethod
    def initialize(cls, config: TransformerConfig, seed: int = 0) -> "EncoderModel":
        """A frozen encoder drawn from ``seed``, every linear prepared.

        Each encoder layer is prepared right after it is drawn, so a build
        whose operands are not the float64 masters (int8, or any precision
        on the float32 engine) releases a layer's masters before drawing the
        next: at most one layer's masters are resident at a time.  A
        released master is re-derived bit for bit when read (``Linear``).
        """
        return cls._build(config, np.random.default_rng(seed), prepare=True)

    @classmethod
    def skeleton(cls, config: TransformerConfig) -> "EncoderModel":
        """Structure-only model: every weight array zero-filled.

        For flows that immediately overwrite the parameters with real ones
        (``repro.api.session.attach_weight_state`` — e.g. a shard worker
        mapping shared-memory weights): allocating zeros costs calloc pages
        instead of a full random fill per array, and nothing is prepared.
        """
        return cls._build(config, _ZeroFillGenerator(), prepare=False)

    @classmethod
    def _build(cls, config: TransformerConfig, rng, prepare: bool) -> "EncoderModel":
        embedding = Embedding.initialize(
            config.vocab_size, config.max_sequence_length, config.hidden_size, rng
        )
        encoder = TransformerEncoder()
        for _ in range(config.num_layers):
            layer = TransformerEncoderLayer.initialize(config, rng)
            if prepare:
                for linear in layer.linears():
                    linear.prepare()
            encoder.layers.append(layer)
        embedding_norm = NormParameters.initialize(config.hidden_size, rng)
        pooler = Linear.initialize(
            config.hidden_size,
            config.hidden_size,
            rng,
            precision=config.matmul_precision,
            compute_dtype=config.compute_dtype,
            kernel=config.kernel,
        )
        if prepare:
            pooler.prepare()
        return cls(
            config=config,
            embedding=embedding,
            encoder=encoder,
            embedding_norm=embedding_norm,
            pooler=pooler,
        )

    def forward(
        self,
        token_ids: np.ndarray,
        backend: NonlinearBackend | None = None,
        attention_mask: np.ndarray | None = None,
    ) -> np.ndarray:
        """Return hidden states of shape ``(batch, seq, hidden)``."""
        backend = backend or _exact_backend()
        # One kernel for the whole forward; "native" degrades to the numpy
        # kernel (identical results) on hosts without a C toolchain.
        kernel = resolve_kernel(self.config.kernel)
        embeddings = self.embedding(token_ids)
        # The embedding tables are float64 masters; the engine runs in the
        # configured compute dtype from here on.
        embeddings = embeddings.astype(np.dtype(self.config.compute_dtype), copy=False)
        embeddings = normalise(
            embeddings, self.embedding_norm, self.config.normalization, backend, kernel
        )
        return self.encoder(embeddings, backend, attention_mask, kernel)

    __call__ = forward

    def pool_hidden(self, hidden_states: np.ndarray) -> np.ndarray:
        """Tanh pooler over the first-token representation of hidden states.

        The single definition of the pooling composition — the serving layer
        applies it per sequence to keep bit-exact parity with per-call
        inference.
        """
        return np.tanh(self.pooler(hidden_states[:, 0, :]))

    def pooled(
        self,
        token_ids: np.ndarray,
        backend: NonlinearBackend | None = None,
        attention_mask: np.ndarray | None = None,
    ) -> np.ndarray:
        """First-token ("[CLS]") representation through a tanh pooler."""
        hidden = self.forward(token_ids, backend=backend, attention_mask=attention_mask)
        return self.pool_hidden(hidden)

    def num_parameters(self) -> int:
        return (
            self.embedding.num_parameters()
            + self.encoder.num_parameters()
            + self.embedding_norm.num_parameters()
            + self.pooler.num_parameters()
        )

    def iter_linears(self) -> Iterator[Linear]:
        """Every linear layer in the model (attention, FFN, pooler).

        Serving sessions use this to prepare the cached weight operands up
        front; calibration flows that edit weights in place use it to
        ``invalidate()`` them all.
        """
        for layer in self.encoder.layers:
            yield from layer.linears()
        yield self.pooler


@dataclass
class RobertaLikeModel(EncoderModel):
    """GELU + LayerNorm encoder (all three non-linear operator types present)."""

    @classmethod
    def build(cls, seed: int = 0, **config_overrides: object) -> "RobertaLikeModel":
        config = roberta_like_small_config(**config_overrides)
        base = EncoderModel.initialize(config, seed=seed)
        return cls(
            config=base.config,
            embedding=base.embedding,
            encoder=base.encoder,
            embedding_norm=base.embedding_norm,
            pooler=base.pooler,
        )


@dataclass
class MobileBertLikeModel(EncoderModel):
    """ReLU + NoNorm encoder: Softmax is its only transcendental operator.

    This mirrors the property the paper exploits in Table 3 (MobileBERT /
    SQuAD): approximating Softmax is the only change an approximate backend
    can make to this model's computation.
    """

    @classmethod
    def build(cls, seed: int = 0, **config_overrides: object) -> "MobileBertLikeModel":
        config = mobilebert_like_small_config(**config_overrides)
        base = EncoderModel.initialize(config, seed=seed)
        return cls(
            config=base.config,
            embedding=base.embedding,
            encoder=base.encoder,
            embedding_norm=base.embedding_norm,
            pooler=base.pooler,
        )
