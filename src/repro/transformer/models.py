"""The encoder model: embeddings, encoder stack and pooler.

The RoBERTa-like and MobileBERT-like models of the experiments are this one
class over the ``roberta`` / ``mobilebert`` config factories
(``repro.api.SessionConfig(model_family=...).build_model()``).

The software experiments evaluate how much *accuracy of a fixed, trained
model* changes when its non-linear operators are swapped for approximations.
Here a "model" is a frozen randomly-initialised encoder (the substitute for a
pre-trained checkpoint: nothing is downloaded) plus task heads trained on top
of the exact-backend features by ``repro.tasks.finetune``.  The same encoder
instance is then re-run with each approximate backend and the fixed heads,
mirroring the paper's direct-approximation protocol (no approximation-aware
fine-tuning).

Two cores per forward
---------------------
On every engine ``EncoderModel.forward`` runs a batch of two or more
sequences as two contiguous row halves — the caller's thread the first, a
process-wide helper thread the second — joins them once and returns the rows
in order, bit for bit the unsplit result: float64 issues its GEMMs per
sequence, a row-stacked float32 GEMM's rows do not depend on how many rows
were stacked above one (a one-row product goes to gemv, which rounds
differently, so a half of one token row never splits), and int8 quantises
each token row at its own scale and sums its integers exactly.
It splits only onto an idle core (:class:`_CoreSlots`) and only when each
half carries enough work to pay for the second thread (``_MIN_HALF_ROWS``,
``_MIN_HALF_ELEMENTS``).  A recording backend never splits: the recorded
order stays that of one thread.
"""

from __future__ import annotations

import os
import threading
from concurrent import futures
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .config import TransformerConfig
from ..core.kernels import ComputeKernel, resolve_kernel
from .encoder import TransformerEncoder, TransformerEncoderLayer, normalise
from .layers import Embedding, Linear, NormParameters
from .nonlinear_backend import NonlinearBackend, _exact_backend

__all__ = ["EncoderModel"]


def _usable_cores() -> int:
    """Cores this process may run on: its affinity mask where there is one."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity masks on this platform
        return os.cpu_count() or 1


#: Least token rows in a half.  A float32 GEMM of fewer rows has not reached
#: this core's sgemm rate (README, "The float projection": 101-106 GFLOP/s at
#: 48 rows, 138-151 from 192 up), so two halves below it spend more CPU than
#: the one GEMM they replace.  Measured on the gated fp32 blocks (2 vCPU,
#: three rounds, tok/s and cpu-s/ktok of one session): one thread 839 / 1.19,
#: every batch split 1305 / 1.36, halves of >= 192 rows 1104 / 1.31.  At 2 or
#: more it also keeps a one-row half, which numpy sends to gemv (rounding
#: unlike gemm), from splitting.
_MIN_HALF_ROWS = 192

#: Least activation elements (rows x hidden) in a half.  Below it the two
#: threads mostly queue for the interpreter lock between numpy calls too short
#: to release it; measured on 2 vCPUs, numpy kernel, float32, forward time
#: unsplit -> split: at hidden 32 (256 / 512 rows a half) 8.0 -> 11.2 / 15.7 ->
#: 15.4 ms, at hidden 128 (64 / 128 / 256) 17.2 -> 20.0 / 34.9 -> 31.5 / 55.3
#: -> 36.5 ms: break-even near 16k on both widths.
_MIN_HALF_ELEMENTS = 16_384


class _CoreSlots:
    """The process's usable cores, counted out to running forwards.

    Every forward holds one slot while it runs and never waits for one (the
    count may exceed the cores).  A forward that could split asks for a
    second slot without waiting and splits only if one is free, so a split
    borrows an idle core and never one another forward is using: replicas
    that already fill the cores (``SessionPool``) do not split.  A process
    that is itself one replica per core (a ``ShardedPool`` worker) limits
    itself to one slot (:func:`_one_slot_per_process`).

    The helper threads that run second halves are made on the first split,
    one per two cores: no more halves can be in flight.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._busy = 0
        self._cores: int | None = None  # None: the affinity mask decides
        self._helper: futures.ThreadPoolExecutor | None = None

    @contextmanager
    def hold(self, split: bool) -> Iterator[futures.ThreadPoolExecutor | None]:
        """One slot for a forward; yields the helper if it got a second."""
        usable = _usable_cores() if split else 0
        with self._lock:
            cores = usable if self._cores is None else self._cores
            split = split and self._busy + 2 <= cores
            self._busy += 2 if split else 1
            if split and self._helper is None:
                self._helper = futures.ThreadPoolExecutor(
                    max_workers=max(1, cores // 2),
                    thread_name_prefix="repro-forward-half",
                )
            helper = self._helper if split else None
        try:
            yield helper
        finally:
            with self._lock:
                self._busy -= 2 if split else 1


_CORE_SLOTS = _CoreSlots()


def _fresh_core_slots() -> None:
    # A forked child has none of the parent's threads: a helper it inherited
    # would take work and never run it.
    global _CORE_SLOTS
    _CORE_SLOTS = _CoreSlots()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_fresh_core_slots)


def _one_slot_per_process() -> None:
    """This process's forwards never split: it is one replica of a pool
    sized one replica per core."""
    with _CORE_SLOTS._lock:
        _CORE_SLOTS._cores = 1


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
        """Return hidden states of shape ``(batch, seq, hidden)``.

        With an idle core, the two row halves of the batch run on two
        threads (see the module docstring); the result is the same bits
        either way.
        """
        backend = backend or _exact_backend()
        # One kernel for the whole forward; "native" degrades to the numpy
        # kernel (identical results) on hosts without a C toolchain.
        kernel = resolve_kernel(self.config.kernel)
        token_ids = np.asarray(token_ids)
        if attention_mask is not None:
            attention_mask = np.asarray(attention_mask)
        half = self._split_point(token_ids, backend, attention_mask)
        with _CORE_SLOTS.hold(split=half > 0) as helper:
            if helper is None:
                return self._forward_rows(token_ids, backend, attention_mask, kernel)
            masks = (None, None)
            if attention_mask is not None:
                masks = (attention_mask[:half], attention_mask[half:])
            second = helper.submit(
                self._forward_rows, token_ids[half:], backend, masks[1], kernel
            )
            try:
                first = self._forward_rows(token_ids[:half], backend, masks[0], kernel)
            finally:
                # Neither half's error leaves while the other still runs.
                futures.wait((second,))
            return np.concatenate((first, second.result()))

    __call__ = forward

    def _split_point(
        self,
        token_ids: np.ndarray,
        backend: NonlinearBackend,
        attention_mask: np.ndarray | None,
    ) -> int:
        """Rows in the first half of a split forward; 0 when it must not split."""
        if (
            backend.recorder.enabled
            or token_ids.ndim != 2
            or (
                attention_mask is not None
                and attention_mask.shape[:1] != token_ids.shape[:1]
            )
        ):
            return 0
        half = len(token_ids) // 2
        rows = half * token_ids.shape[1]
        if rows < _MIN_HALF_ROWS or rows * self.config.hidden_size < _MIN_HALF_ELEMENTS:
            return 0
        return half

    def _forward_rows(
        self,
        token_ids: np.ndarray,
        backend: NonlinearBackend,
        attention_mask: np.ndarray | None,
        kernel: ComputeKernel,
    ) -> np.ndarray:
        """Embedding, its norm and the encoder stack over ``token_ids``."""
        embeddings = self.embedding(token_ids)
        # The embedding tables are float64 masters; the engine runs in the
        # configured compute dtype from here on.
        embeddings = embeddings.astype(np.dtype(self.config.compute_dtype), copy=False)
        embeddings = normalise(
            embeddings, self.embedding_norm, self.config.normalization, backend, kernel
        )
        return self.encoder(embeddings, backend, attention_mask, kernel)

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
