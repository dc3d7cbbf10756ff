"""Basic numpy layers for the Transformer substrate.

Everything is forward-only (the encoders are frozen feature extractors in the
software experiments; only the task heads are trained, by closed-form or
gradient fitting in ``repro.tasks.finetune``).  The linear layers support the
three matmul precision settings used in the paper's experiments: FP32, FP16
(Table 3) and INT8 (Table 2(b), I-BERT's quantised baseline).

Inference fast path
-------------------
:class:`Linear` follows I-BERT's static-weight discipline: the weight operand
for the selected precision (a dtype-cast copy for FP32/FP16, the quantised
integer tensor for INT8) is prepared once on first use and reused across all
forward calls.  ``invalidate()`` drops the prepared operands — calibration
flows that overwrite ``weight`` in place must call it; rebinding the
``weight`` attribute invalidates automatically.  ``compute_dtype`` selects the
engine's float width (float64 reproduces the seed numerics bit for bit;
float32 is what the vectorized inference engine runs on).

One resident copy per served weight
-----------------------------------
A layer drawn by :meth:`Linear.initialize` records its draw (the bit
generator's type and state just before the draw, the scale and the shape).
Once its prepared operand is not the float64 master itself — FP16, INT8, or
FP32 on the float32 engine — the layer drops the master; reading ``weight``
re-runs the recorded draw, bit for bit, and from then on keeps (pins) the
array, so in-place edits followed by ``invalidate()`` are served as before.
A weight passed in explicitly (constructor, ``weight = ...``) is never
dropped.  ``EncoderModel.initialize`` prepares each encoder layer right after
drawing it, so a build holds at most one layer's masters at a time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from ..core.kernels import resolve_kernel

__all__ = [
    "Linear",
    "Embedding",
    "NormParameters",
]

#: compute dtypes supported by the inference engine.
COMPUTE_DTYPES: Dict[str, np.dtype] = {
    "float32": np.dtype(np.float32),
    "float64": np.dtype(np.float64),
}


def _draw_weight(rng: np.random.Generator, scale: float, shape: Tuple[int, int]) -> np.ndarray:
    """The one Gaussian draw behind an initialised weight (and its re-run)."""
    return rng.normal(0.0, scale, size=shape)


@dataclass(eq=False)
class Linear:
    """Affine layer ``y = x W + b`` with selectable matmul precision.

    The weight operand for the active ``(precision, compute_dtype)`` pair is
    prepared once and cached; a drawn master the operand does not need is
    dropped and re-derived on access (see the module docstring).  Equality
    is identity: comparing weights would re-derive them.
    """

    weight: np.ndarray
    bias: np.ndarray
    precision: str = "fp32"
    compute_dtype: str = "float64"
    kernel: str = "numpy"

    def __post_init__(self) -> None:
        self.bias = np.asarray(self.bias, dtype=np.float64)
        if len(self._shape) != 2:
            raise ValueError(f"weight must be 2-D, got shape {self._shape}")
        if self.bias.shape != (self._shape[1],):
            raise ValueError(
                f"bias shape {self.bias.shape} does not match weight output dim "
                f"{self._shape[1]}"
            )
        if self.compute_dtype not in COMPUTE_DTYPES:
            raise ValueError(
                f"compute_dtype must be one of {sorted(COMPUTE_DTYPES)}, "
                f"got {self.compute_dtype!r}"
            )
        # Resolved once: a kernel is part of the layer's engine identity, like
        # its precision.  "native" degrades to the numpy kernel (one warning
        # per process) when no C toolchain is available — identical results.
        self._kernel_obj = resolve_kernel(self.kernel)
        # (precision, compute_dtype) -> (weight binding token, prepared operand,
        # weight scale or None, bias in compute dtype, source bias ref).
        self._prepared: Dict[Tuple[str, str], Tuple] = {}

    def _get_weight(self) -> np.ndarray:
        """The float64 master, re-derived from the recorded draw if dropped.

        Handing it out pins it: from then on it stays resident, so a caller
        may edit it in place and ``invalidate()``.  Like such edits, a read
        is not synchronised with another thread preparing the same layer.
        """
        weight = self._master()
        self._weight = weight
        self._draw = None
        return weight

    def _set_weight(self, value: np.ndarray) -> None:
        value = np.asarray(value, dtype=np.float64)
        self._weight = value
        self._shape = value.shape
        self._draw = None
        # A fresh token per binding: a prepared entry is current while it
        # holds the token of the binding it was prepared from.
        self._binding = object()

    def _master(self) -> np.ndarray:
        """The resident master, or a fresh re-run of the recorded draw."""
        weight = self._weight
        if weight is None:
            kind, state, scale, shape = self._draw
            bit_generator = kind()
            bit_generator.state = state
            weight = _draw_weight(np.random.Generator(bit_generator), scale, shape)
        return weight

    @classmethod
    def initialize(
        cls,
        in_features: int,
        out_features: int,
        rng: np.random.Generator,
        precision: str = "fp32",
        scale: float | None = None,
        compute_dtype: str = "float64",
        kernel: str = "numpy",
    ) -> "Linear":
        """Gaussian initialisation with a 1/sqrt(fan_in) scale by default.

        A draw from a ``numpy.random.Generator`` is recorded, so the master
        can be dropped once prepared and re-derived bit for bit; any other
        source (the zero-filled skeleton) counts as explicitly passed in.
        """
        scale = scale if scale is not None else 1.0 / np.sqrt(in_features)
        shape = (in_features, out_features)
        draw = None
        if isinstance(rng, np.random.Generator):
            bit_generator = rng.bit_generator
            draw = (type(bit_generator), bit_generator.state, scale, shape)
        layer = cls(
            weight=_draw_weight(rng, scale, shape),
            bias=np.zeros(out_features, dtype=np.float64),
            precision=precision,
            compute_dtype=compute_dtype,
            kernel=kernel,
        )
        layer._draw = draw
        return layer

    def __repr__(self) -> str:
        return (
            f"Linear(weight=<float64 {self._shape}>, bias=<float64 "
            f"{self.bias.shape}>, precision={self.precision!r}, "
            f"compute_dtype={self.compute_dtype!r}, kernel={self.kernel!r})"
        )

    @property
    def in_features(self) -> int:
        return int(self._shape[0])

    @property
    def out_features(self) -> int:
        return int(self._shape[1])

    def invalidate(self) -> None:
        """Drop all prepared weight operands (after in-place weight edits)."""
        self._prepared.clear()

    def prepare(self) -> None:
        """Eagerly prepare the weight operand for the active precision.

        Preparation is otherwise lazy (first forward call); serving sessions
        call this up front so no request pays the one-time quantisation /
        cast cost.
        """
        self._prepared_operands()

    def _prepared_operands(self) -> Tuple:
        """Weight operand + bias for the active precision, prepared once."""
        key = (self.precision, self.compute_dtype)
        entry = self._prepared.get(key)
        if entry is not None and entry[0] is self._binding and entry[4] is self.bias:
            return entry
        dtype = COMPUTE_DTYPES[self.compute_dtype]
        weight = self._master()
        if self.precision == "fp32":
            operand = weight.astype(dtype, copy=False)
            weight_scale = None
        elif self.precision == "fp16":
            # storage precision float16, accumulator precision float32.
            operand = weight.astype(np.float16).astype(np.float32)
            weight_scale = None
        elif self.precision == "int8":
            # The kernel's one-pass quantiser, the one activations go through;
            # bitwise-equal to ``repro.quant.quantize(weight, 8)``.
            kernel = self._kernel_obj
            weight_scale = kernel.quantize_scale(weight)
            # The packed format is kernel-private: a float64 carrier of the
            # exact quantised integers for the numpy kernel (BLAS-fast),
            # k4-interleaved int8 column panels + column sums for the native
            # GEMM.
            operand = kernel.pack_weight_int8(kernel.quantize_pack(weight, weight_scale))
        else:
            raise ValueError(
                f"precision must be 'fp32', 'fp16' or 'int8', got {self.precision!r}"
            )
        entry = (
            self._binding,
            operand,
            weight_scale,
            self.bias.astype(dtype, copy=False),
            self.bias,
        )
        self._prepared[key] = entry
        if operand is weight:
            self._weight = weight  # the master is the operand: it stays
        elif self._draw is not None:
            self._weight = None  # re-derived from the draw when asked for
        return entry

    def __call__(self, x: np.ndarray) -> np.ndarray:
        product, bias = self.call_prebias(x)
        product += bias
        return product

    @staticmethod
    def call_all(layers: Sequence["Linear"], x: np.ndarray) -> List[np.ndarray]:
        """``[layer(x) for layer in layers]`` — projections of one activation.

        Cached int8 layers of one engine go to the kernel together
        (:meth:`ComputeKernel.linear_int8_shared`), so it can quantise ``x``
        once for all of them; each row's activation scale depends on ``x``
        alone, hence is the same for each, and the results are those of the
        separate calls.
        """
        first = layers[0]
        engine = (first._kernel_obj, first.compute_dtype, "int8")
        if any(
            (layer._kernel_obj, layer.compute_dtype, layer.precision) != engine
            for layer in layers
        ):
            return [layer(x) for layer in layers]
        prepared = [layer._prepared_operands() for layer in layers]
        return first._kernel_obj.linear_int8_shared(
            x,
            [(operand, scale, bias) for _, operand, scale, bias, _ in prepared],
            COMPUTE_DTYPES[first.compute_dtype],
        )

    def call_prebias(self, x: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """``(x W, bias)`` — the matmul result *without* the bias added.

        The epilogue entry point: the encoder hands the raw projection plus
        the bias to a compute kernel, which folds the bias add into its
        single pass over the tensor (bias+LUT, bias+residual, bias+ReLU).
        """
        _, operand, weight_scale, bias, _ = self._prepared_operands()
        dtype = COMPUTE_DTYPES[self.compute_dtype]
        if self.precision == "fp32":
            return self._kernel_obj.matmul_fp32(x, operand, dtype), bias
        if self.precision == "fp16":
            a = np.asarray(x, dtype=np.float16).astype(np.float32)
            return np.matmul(a, operand).astype(dtype, copy=False), bias
        return self._kernel_obj.linear_int8(x, operand, weight_scale, dtype), bias

    def num_parameters(self) -> int:
        return int(self._shape[0] * self._shape[1] + self.bias.size)


# ``weight`` stays the dataclass field (constructor argument, ``fields()``);
# reads and writes go through the accessors above.
Linear.weight = property(Linear._get_weight, Linear._set_weight, doc=Linear._get_weight.__doc__)


@dataclass
class Embedding:
    """Token + position embedding table."""

    token_table: np.ndarray
    position_table: np.ndarray

    def __post_init__(self) -> None:
        self.token_table = np.asarray(self.token_table, dtype=np.float64)
        self.position_table = np.asarray(self.position_table, dtype=np.float64)
        if self.token_table.shape[1] != self.position_table.shape[1]:
            raise ValueError("token and position embeddings must share the hidden size")

    @classmethod
    def initialize(
        cls,
        vocab_size: int,
        max_sequence_length: int,
        hidden_size: int,
        rng: np.random.Generator,
    ) -> "Embedding":
        return cls(
            token_table=rng.normal(0.0, 1.0, size=(vocab_size, hidden_size)),
            position_table=rng.normal(0.0, 0.1, size=(max_sequence_length, hidden_size)),
        )

    def __call__(self, token_ids: np.ndarray) -> np.ndarray:
        """Look up embeddings for integer token ids of shape (batch, seq)."""
        token_ids = np.asarray(token_ids)
        if token_ids.ndim != 2:
            raise ValueError(f"token_ids must be 2-D (batch, seq), got {token_ids.shape}")
        if np.any(token_ids < 0) or np.any(token_ids >= self.token_table.shape[0]):
            raise ValueError("token id out of vocabulary range")
        seq_len = token_ids.shape[1]
        if seq_len > self.position_table.shape[0]:
            raise ValueError(
                f"sequence length {seq_len} exceeds maximum "
                f"{self.position_table.shape[0]}"
            )
        return self.token_table[token_ids] + self.position_table[:seq_len]

    def num_parameters(self) -> int:
        return int(self.token_table.size + self.position_table.size)


@dataclass
class NormParameters:
    """Per-channel affine parameters (gamma, beta) of a normalisation layer.

    Used both by LayerNorm (where the statistics normalisation runs through
    the non-linear backend) and by MobileBERT-style NoNorm (where only this
    affine transform is applied, by the compute kernel's ``affine`` — no
    statistics, hence no transcendental op).
    """

    gamma: np.ndarray
    beta: np.ndarray

    def __post_init__(self) -> None:
        self.gamma = np.asarray(self.gamma, dtype=np.float64)
        self.beta = np.asarray(self.beta, dtype=np.float64)
        if self.gamma.shape != self.beta.shape:
            raise ValueError("gamma and beta must have the same shape")
        self._cast_cache: Dict[np.dtype, Tuple] = {}

    @classmethod
    def initialize(cls, hidden_size: int, rng: np.random.Generator | None = None) -> "NormParameters":
        gamma = np.ones(hidden_size, dtype=np.float64)
        beta = np.zeros(hidden_size, dtype=np.float64)
        if rng is not None:
            # Mild random affine keeps frozen random encoders from being
            # perfectly symmetric across channels.
            gamma = gamma + rng.normal(0.0, 0.05, size=hidden_size)
            beta = beta + rng.normal(0.0, 0.05, size=hidden_size)
        return cls(gamma=gamma, beta=beta)

    def cast(self, dtype: np.dtype) -> Tuple[np.ndarray, np.ndarray]:
        """(gamma, beta) in ``dtype``, cast once and cached across calls."""
        dtype = np.dtype(dtype)
        if dtype == np.float64:
            return self.gamma, self.beta
        entry = self._cast_cache.get(dtype)
        if entry is not None and entry[0] is self.gamma and entry[1] is self.beta:
            return entry[2], entry[3]
        gamma = self.gamma.astype(dtype)
        beta = self.beta.astype(dtype)
        self._cast_cache[dtype] = (self.gamma, self.beta, gamma, beta)
        return gamma, beta

    def num_parameters(self) -> int:
        return int(self.gamma.size + self.beta.size)
