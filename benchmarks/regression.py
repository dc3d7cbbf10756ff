"""Benchmark-regression harness for the vectorized inference engine.

Measures the engine's hot paths against a faithful replica of the *seed*
implementation — float64 compute, per-call weight (re)quantisation and the
un-fused double-cast LUT evaluation — and writes ``BENCH_engine.json`` so
subsequent PRs have a perf trajectory to regress against.

What "seed path" means precisely:

* every ``Linear`` re-derives its weight operand on each call
  (``cache_weights=False``), exactly as the seed's ``matmul_with_precision``
  did, with the INT8 accumulation in int64;
* the whole engine runs in float64 (``compute_dtype="float64"``);
* LUT primitives are evaluated through :class:`SeedLutEvaluator`, which
  reproduces the seed's ``LookupTable.__call__``: two float64 casts of the
  input, a ``searchsorted``, two fancy-index gathers and two temporaries.

The fast path is the current engine: float32 compute, weight operands
prepared once (I-BERT's static-weight discipline), fused
``LookupTable.evaluate`` kernels with buffer reuse.  The
``session_ragged_fp32`` row additionally compares the legacy one-forward-
per-request serving pattern against :class:`repro.api.InferenceSession`'s
dynamic micro-batching on a ragged request mix, and the
``server_concurrent_fp32`` row (schema v3) measures the concurrent serving
subsystem — a 2-replica :class:`repro.api.SessionPool` behind a
batch-coalescing :class:`repro.api.ServingQueue`, fed short-request traffic
from concurrent client threads — against the same one-forward-per-request
baseline, with a float64 bitwise-parity check vs single-session serving.
The ``server_sharded_fp32`` row (schema v4) swaps the threaded pool for a
:class:`repro.api.ShardedPool` — replicas in worker *processes* over
shared-memory weights — measuring what multi-process sharding buys over the
same per-call baseline (the row records ``cpu_count``: on a single-core
machine the number isolates IPC overhead vs batch density; the multi-core
speedup the subsystem exists for needs real cores).  Schema v5 adds
``server_sharded_shm_fp32`` — the same sharded harness with
``transport="shm_ring"``, i.e. requests/results through shared-memory rings
instead of pickle-over-pipe (rows now record ``transport``, and the queue
digest splits latency into ``mean_queue_wait_ms``/``mean_service_ms``) —
plus an ``ipc`` section from the pickle-vs-ring transport microbenchmark
(``--ipc`` runs it standalone): echo round trips at the 48-short-request
serving workload's batch shapes, isolating per-request transport overhead
with zero compute.  Schema v6 adds a ``kernels`` section — per-op
ComputeKernel rows timing the same operation through the NumpyKernel
reference and (when the compiler seam is available) the compiled
NativeKernel: true int8 GEMM vs the float64-carrier linear path, packed
quantisation, the fused LUT epilogues vs their unfused numpy sequences, and
an int8 encoder forward per kernel with a bitwise-parity check
(``--kernels`` runs just this section, no multiprocessing involved).
Schema v7 adds ``server_sharded_leastloaded_fp32`` — the sharded pool behind
the queue's ``router="least_loaded"`` scheduling, fed a seeded trace replay
(bursty arrivals, diurnal ramp, heavy-tailed lengths; see
``benchmarks/traces.py``) instead of steady all-at-once traffic, with the
latency digest split into inside-burst vs steady-state percentiles (the
p99-under-burst number load-aware routing exists for) and the same float64
bitwise-parity check vs per-call serving.
Schema v8 adds ``server_sharded_chaos_fp32`` — the same trace replayed twice
against the retrying queue (``RetryPolicy`` + per-replica circuit breakers),
once fault-free and once under a seeded ``FaultPlan`` that crashes a worker
on its first served batch: the row reports ``goodput_ratio`` (chaos vs clean
completed requests per second), ``p99_degradation_x`` for the tail stretch
while the survivor absorbs rerouted work, the retry/breaker/retirement
counters, and a float64 twin proving retried responses stay bitwise-equal to
per-call serving (the retry-idempotency contract).
Schema v9: the ``kernels`` section's ``gemm_int8`` row also reports the
packed int8 GEMM alone in GOP/s — per projection shape (hidden², hidden →
intermediate, intermediate → hidden; 384 activation rows at full shapes) and
per micro-kernel tier the host can run (``amx`` / ``vnni`` / ``scalar``) —
and ``gemm_impl`` / ``gemm_tier`` name the tier in use.

Run directly to regenerate the report (or use ``scripts/bench.sh``)::

    PYTHONPATH=src python benchmarks/regression.py --mode full

Smoke mode (tiny shapes, used by the tier-1 test run via
``benchmarks/benchmark_engine.py``) exercises every code path in well under a
second without touching ``BENCH_engine.json``.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import platform
import sys
import threading
import time
from dataclasses import asdict, dataclass, replace
from pathlib import Path
from typing import Callable, Dict, List

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))
import traces  # noqa: E402  (benchmarks/ is not a package)

from repro.api import (
    BackendSpec,
    FaultPlan,
    InferenceSession,
    RequestBatcher,
    RetryPolicy,
    ServingQueue,
    SessionPool,
    ShardedPool,
    build_backend,
    inject,
)
from repro.api.transport import (
    _shutdown_echo_worker,
    _spawn_echo_worker,
    serving_ring_bytes,
)
from repro.core.approximators import LutGelu, LutLayerNorm
from repro.core.kernels import (
    GEMM_TIER_NAMES,
    get_kernel,
    kernel_info,
    native_available,
    native_unavailable_reason,
)
from repro.core.lut import LookupTable
from repro.core.registry import LutRegistry
from repro.core.scaling import InputScaler
from repro.core.training import TrainingConfig
from repro.transformer import (
    EncoderModel,
    Linear,
    TransformerConfig,
    backend_from_luts,
)

SCHEMA_VERSION = 9

#: Default report location: the repository root (next to ROADMAP.md).
DEFAULT_REPORT_PATH = Path(__file__).resolve().parent.parent / "BENCH_engine.json"

#: Cheap-but-real fitting configuration (table *quality* is irrelevant for
#: timing; 16-entry structure is what matters).
BENCH_TRAINING_CONFIG = TrainingConfig(
    hidden_size=15,
    num_samples=12_000,
    batch_size=2048,
    epochs=40,
    learning_rate=1e-3,
    seed=0,
    num_restarts=1,
)


@dataclass(frozen=True)
class EngineShapes:
    """Shapes of the end-to-end encoder-forward benchmark."""

    hidden_size: int
    num_layers: int
    num_heads: int
    intermediate_size: int
    sequence_length: int
    batch_size: int
    vocab_size: int
    #: element count for the per-op LUT kernel timings
    lut_elements: int
    #: timing repeats (min is reported)
    repeats: int

    @property
    def tokens(self) -> int:
        return self.batch_size * self.sequence_length


#: BERT-base layer geometry, batched sequences.
FULL_SHAPES = EngineShapes(
    hidden_size=768,
    num_layers=12,
    num_heads=12,
    intermediate_size=3072,
    sequence_length=128,
    batch_size=4,
    vocab_size=4000,
    lut_elements=2_000_000,
    repeats=3,
)

#: INT8 runs the seed accumulation in int64 (no BLAS), so its end-to-end row
#: uses a reduced depth to keep the regeneration under a minute.
FULL_INT8_SHAPES = replace(FULL_SHAPES, num_layers=2, sequence_length=64, batch_size=2)

SMOKE_SHAPES = EngineShapes(
    hidden_size=64,
    num_layers=2,
    num_heads=2,
    intermediate_size=128,
    sequence_length=16,
    batch_size=2,
    vocab_size=200,
    lut_elements=10_000,
    repeats=1,
)


# --------------------------------------------------------------------------- #
# Seed-path replicas (verbatim ports of the seed implementations)
# --------------------------------------------------------------------------- #
class SeedLutEvaluator:
    """The seed's ``LookupTable.__call__``: double cast, un-fused gathers.

    Deliberately does *not* expose ``evaluate``, so nothing downstream can
    accidentally route it through the fused kernel.
    """

    def __init__(self, lut: LookupTable) -> None:
        self._lut = lut
        self.name = lut.name

    def __call__(self, x: np.ndarray) -> np.ndarray:
        lut = self._lut
        x = np.asarray(x, dtype=np.float64)
        idx = np.searchsorted(lut.breakpoints, np.asarray(x, dtype=np.float64), side="right")
        return lut.slopes[idx] * x + lut.intercepts[idx]


class SeedLutGelu:
    """The seed's ``LutGelu``: float64 casts and fresh ``np.where`` arrays."""

    def __init__(self, gelu_approx, clip_range=(-5.0, 5.0)) -> None:
        self.gelu_approx = gelu_approx
        self.clip_range = clip_range

    def __call__(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        low, high = self.clip_range
        inside = np.clip(x, low, high)
        approx = np.asarray(self.gelu_approx(inside))
        result = np.where(x > high, x, approx)
        result = np.where(x < low, 0.0, result)
        return result


class SeedLutSoftmax:
    """The seed's ``LutSoftmax``: float64 compute, a temporary per step."""

    def __init__(self, exp_approx, reciprocal_approx, exp_clip=-256.0, axis=-1) -> None:
        self.exp_approx = exp_approx
        self.reciprocal_approx = reciprocal_approx
        self.exp_clip = exp_clip
        self.axis = axis

    def __call__(self, x: np.ndarray, axis: int | None = None) -> np.ndarray:
        axis = self.axis if axis is None else axis
        x = np.asarray(x, dtype=np.float64)
        shifted = x - np.max(x, axis=axis, keepdims=True)
        shifted = np.clip(shifted, self.exp_clip, 0.0)
        exps = np.asarray(self.exp_approx(shifted), dtype=np.float64)
        exps = np.maximum(exps, 0.0)
        denom = np.sum(exps, axis=axis, keepdims=True)
        denom = np.maximum(denom, 1e-12)
        inv = np.asarray(self.reciprocal_approx(denom), dtype=np.float64)
        inv = np.maximum(inv, 0.0)
        return exps * inv


class SeedLutLayerNorm:
    """The seed's ``LutLayerNorm`` incl. its ``InputScaler.apply`` replica."""

    def __init__(self, rsqrt_approx, scale_bits=10, threshold=1.0, eps=1e-5,
                 axis=-1, clip_max=1024.0) -> None:
        self.rsqrt_approx = rsqrt_approx
        self.scale = float(2**scale_bits)
        self.output_scale = float(np.sqrt(self.scale))
        self.threshold = threshold
        self.eps = eps
        self.axis = axis
        self.clip_max = clip_max

    def _rsqrt(self, variance: np.ndarray) -> np.ndarray:
        variance = np.asarray(variance, dtype=np.float64)
        if self.clip_max is not None:
            variance = np.minimum(variance, self.clip_max)
        small = variance < self.threshold
        scaled_input = np.where(small, variance * self.scale, variance)
        raw = np.asarray(self.rsqrt_approx(scaled_input), dtype=np.float64)
        return np.where(small, raw * self.output_scale, raw)

    def __call__(self, x, gamma=None, beta=None, axis=None) -> np.ndarray:
        axis = self.axis if axis is None else axis
        x = np.asarray(x, dtype=np.float64)
        mean = np.mean(x, axis=axis, keepdims=True)
        var = np.mean((x - mean) ** 2, axis=axis, keepdims=True)
        inv_std = self._rsqrt(var + self.eps)
        normalised = (x - mean) * inv_std
        if gamma is not None:
            normalised = normalised * gamma
        if beta is not None:
            normalised = normalised + beta
        return normalised


def seed_nn_lut_backend(registry: LutRegistry, num_entries: int = 16):
    """NN-LUT backend evaluating entirely through the seed-path replicas."""
    luts = {
        name: SeedLutEvaluator(registry.lut(name, num_entries=num_entries))
        for name in ("gelu", "exp", "reciprocal", "rsqrt")
    }
    backend = backend_from_luts(luts, name="nn-lut-fp32-seed")
    backend.gelu = SeedLutGelu(luts["gelu"])
    backend.softmax = SeedLutSoftmax(luts["exp"], luts["reciprocal"])
    backend.layernorm = SeedLutLayerNorm(luts["rsqrt"])
    return backend


def build_fast_backend(registry: LutRegistry) -> object:
    """The engine's fast path, declared through the serving API."""
    return build_backend(BackendSpec.nn_lut(), registry=registry)


def build_engine(
    shapes: EngineShapes,
    matmul_precision: str = "fp32",
    compute_dtype: str = "float32",
    cache_weights: bool = True,
    seed: int = 0,
    kernel: str = "numpy",
) -> EncoderModel:
    """Encoder model in the requested engine configuration.

    Models built with the same ``seed`` share identical weights regardless of
    engine configuration, so seed/fast timings compare the same network.
    """
    config = TransformerConfig(
        hidden_size=shapes.hidden_size,
        num_layers=shapes.num_layers,
        num_heads=shapes.num_heads,
        intermediate_size=shapes.intermediate_size,
        max_sequence_length=shapes.sequence_length,
        vocab_size=shapes.vocab_size,
        matmul_precision=matmul_precision,
        compute_dtype=compute_dtype,
        kernel=kernel,
        name=f"bench-{matmul_precision}-{compute_dtype}",
    )
    model = EncoderModel.initialize(config, seed=seed)
    if not cache_weights:
        for linear in model.iter_linears():
            linear.cache_weights = False
    return model


# --------------------------------------------------------------------------- #
# Timing
# --------------------------------------------------------------------------- #
def time_call(fn: Callable[[], object], repeats: int, warmup: int = 1) -> float:
    """Best-of-``repeats`` wall time of ``fn`` after ``warmup`` calls."""
    for _ in range(warmup):
        fn()
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _op_row(seed_s: float, fast_s: float) -> Dict[str, float]:
    return {
        "seed_s": seed_s,
        "fast_s": fast_s,
        "speedup": seed_s / fast_s if fast_s > 0 else float("inf"),
    }


def benchmark_ops(registry: LutRegistry, shapes: EngineShapes) -> Dict[str, Dict[str, float]]:
    """Per-op timings: LUT kernels, softmax/layernorm composites, linears."""
    rng = np.random.default_rng(0)
    repeats = shapes.repeats
    ops: Dict[str, Dict[str, float]] = {}

    gelu_lut = registry.lut("gelu", num_entries=16)
    seed_gelu = SeedLutEvaluator(gelu_lut)
    x64 = rng.uniform(-5.0, 5.0, size=shapes.lut_elements)
    x32 = x64.astype(np.float32)
    out32 = np.empty_like(x32)
    ops["lut_gelu_eval"] = _op_row(
        time_call(lambda: seed_gelu(x64), repeats),
        time_call(lambda: gelu_lut.evaluate(x32, out=out32), repeats),
    )

    seed_backend = seed_nn_lut_backend(registry)
    fast_backend = build_fast_backend(registry)
    scores = rng.normal(
        size=(shapes.batch_size, shapes.num_heads, shapes.sequence_length, shapes.sequence_length)
    )
    scores32 = scores.astype(np.float32)
    ops["lut_softmax"] = _op_row(
        time_call(lambda: seed_backend.apply_softmax(scores), repeats),
        time_call(lambda: fast_backend.apply_softmax(scores32), repeats),
    )

    hidden = rng.normal(size=(shapes.batch_size, shapes.sequence_length, shapes.hidden_size))
    hidden32 = hidden.astype(np.float32)
    gamma = rng.normal(1.0, 0.05, size=shapes.hidden_size)
    beta = rng.normal(0.0, 0.05, size=shapes.hidden_size)
    gamma32, beta32 = gamma.astype(np.float32), beta.astype(np.float32)
    ops["lut_layernorm"] = _op_row(
        time_call(lambda: seed_backend.apply_layernorm(hidden, gamma=gamma, beta=beta), repeats),
        time_call(
            lambda: fast_backend.apply_layernorm(hidden32, gamma=gamma32, beta=beta32), repeats
        ),
    )

    tokens2d = rng.normal(size=(shapes.tokens, shapes.hidden_size))
    tokens2d32 = tokens2d.astype(np.float32)
    for precision in ("fp32", "int8"):
        seed_linear = Linear.initialize(
            shapes.hidden_size,
            shapes.intermediate_size,
            np.random.default_rng(1),
            precision=precision,
            compute_dtype="float64",
            cache_weights=False,
        )
        fast_linear = Linear.initialize(
            shapes.hidden_size,
            shapes.intermediate_size,
            np.random.default_rng(1),
            precision=precision,
            compute_dtype="float32",
        )
        ops[f"linear_{precision}"] = _op_row(
            time_call(lambda: seed_linear(tokens2d), repeats),
            time_call(lambda: fast_linear(tokens2d32), repeats),
        )
    return ops


#: activation rows of the per-shape int8 GEMM rows (4 sequences x 96 tokens,
#: the end-to-end benchmark's kernel shape).
GEMM_ROWS = 384


def gemm_int8_gops(
    native, rows: int, hidden: int, inter: int, repeats: int
) -> Dict[str, Dict[str, float]]:
    """GOP/s of the packed int8 GEMM alone: ``{"m x k x n": {tier: GOP/s}}``.

    One entry per encoder projection shape (hidden², hidden → intermediate,
    intermediate → hidden) and, within it, per micro-kernel tier the host can
    run — the tier in use first, then what each fallback would cost.
    """
    rng = np.random.default_rng(23)
    out: Dict[str, Dict[str, float]] = {}
    for k, n in ((hidden, hidden), (hidden, inter), (inter, hidden)):
        a_q = rng.integers(-127, 128, size=(rows, k), dtype=np.int8)
        packed = native.pack_weight_int8(
            rng.integers(-127, 128, size=(k, n), dtype=np.int8)
        )
        out[f"{rows}x{k}x{n}"] = {
            GEMM_TIER_NAMES[tier]: 2.0 * rows * k * n / 1e9 / time_call(
                lambda tier=tier: native.gemm_int8(a_q, packed, tier=tier), repeats
            )
            for tier in range(native.gemm_impl, 0, -1)
        }
    return out


def benchmark_kernels(
    registry: LutRegistry,
    shapes: EngineShapes,
    int8_shapes: EngineShapes | None = None,
) -> Dict[str, object]:
    """Per-op ComputeKernel rows: NumpyKernel vs compiled NativeKernel.

    Every row times the same operation through each available kernel on
    identical inputs.  Fused epilogues clobber their input, so those timed
    calls include one defensive copy for *both* kernels — speedups compare
    like with like.  Two rows carry the acceptance gates:

    * ``gemm_int8`` — NativeKernel's true int8 GEMM (int32 accumulation)
      against the NumpyKernel float64-carrier linear path, including the
      activation quantise/pack and the dequantise+bias epilogue; its
      ``gops`` entry is the packed GEMM alone, in GOP/s per projection shape
      and per tier (see :func:`gemm_int8_gops`);
    * ``lut_gelu_bias`` — the fused bias+LUT-GELU epilogue against the
      engine's original unfused bias-add + LUT sequence (the numpy row *is*
      the unfused path, so this row doubles as fused-vs-unfused).

    The ``encoder_forward_int8`` row runs a full int8 encoder forward per
    kernel and records bitwise parity between them.  No multiprocessing, no
    pickling — safe to run standalone via ``regression.py --kernels``.
    """
    rng = np.random.default_rng(21)
    repeats = shapes.repeats
    int8_shapes = int8_shapes or shapes
    names = ["numpy"] + (["native"] if native_available() else [])
    kernels = {name: get_kernel(name) for name in names}

    section: Dict[str, object] = {
        "native_available": native_available(),
        "kernels": names,
    }
    if not native_available():
        section["native_unavailable_reason"] = native_unavailable_reason()
    else:
        native = kernels["native"]
        info = kernel_info()  # gemm_impl: 3 = AMX, 2 = VNNI, 1 = scalar
        for key in ("gemm_impl", "gemm_tier", "gemm_tier_refused"):
            section[key] = info[key]
        section["num_threads"] = native.num_threads

    tokens, hidden = shapes.tokens, shapes.hidden_size
    inter = shapes.intermediate_size
    x32 = rng.normal(size=(tokens, hidden)).astype(np.float32)
    w32 = rng.normal(scale=0.02, size=(hidden, hidden)).astype(np.float32)
    w_q = rng.integers(-127, 128, size=(hidden, hidden), dtype=np.int8)
    weight_scale = 0.01
    bias_h = rng.normal(scale=0.02, size=hidden).astype(np.float32)
    bias_i = rng.normal(scale=0.02, size=inter).astype(np.float32)
    gelu_in = rng.normal(size=(tokens, inter)).astype(np.float32)
    residual = rng.normal(size=(tokens, hidden)).astype(np.float32)
    hidden3d = rng.normal(
        size=(shapes.batch_size, shapes.sequence_length, hidden)
    ).astype(np.float32)
    gamma = rng.normal(1.0, 0.05, size=hidden).astype(np.float32)
    beta = rng.normal(0.0, 0.05, size=hidden).astype(np.float32)

    gelu_op = LutGelu(registry.lut("gelu", num_entries=16))
    layernorm_op = LutLayerNorm(
        registry.lut("rsqrt", num_entries=16), scaler=InputScaler()
    )
    packed = {name: kernel.pack_weight_int8(w_q) for name, kernel in kernels.items()}

    def per_kernel(make_call) -> Dict[str, object]:
        row: Dict[str, object] = {}
        for name, kernel in kernels.items():
            row[f"{name}_s"] = time_call(make_call(name, kernel), repeats)
        if "native_s" in row:
            row["speedup"] = row["numpy_s"] / row["native_s"]
        return row

    ops: Dict[str, Dict[str, object]] = {}
    ops["gemm_int8"] = per_kernel(
        lambda name, kernel: lambda: kernel.linear_int8(
            x32, packed[name], weight_scale, np.float32, bias=bias_h
        )
    )
    if native_available():
        ops["gemm_int8"]["gops"] = gemm_int8_gops(
            kernels["native"], min(GEMM_ROWS, tokens), hidden, inter, repeats
        )
    ops["gemm_fp32"] = per_kernel(
        lambda name, kernel: lambda: kernel.matmul_fp32(
            x32, w32, np.float32, bias=bias_h
        )
    )
    ops["quantize_pack"] = per_kernel(
        lambda name, kernel: lambda: kernel.quantize_pack(
            x32, kernel.quantize_scale(x32)
        )
    )
    ops["lut_gelu_bias"] = per_kernel(
        lambda name, kernel: lambda: kernel.lut_gelu_bias(
            gelu_op, gelu_in.copy(), bias_i
        )
    )
    ops["lut_layernorm"] = per_kernel(
        lambda name, kernel: lambda: kernel.lut_layernorm(
            layernorm_op, hidden3d.copy(), gamma, beta
        )
    )
    ops["bias_residual"] = per_kernel(
        lambda name, kernel: lambda: kernel.bias_residual(
            x32.copy(), bias_h, residual
        )
    )

    forward_tokens = np.random.default_rng(22).integers(
        0,
        int8_shapes.vocab_size,
        size=(int8_shapes.batch_size, int8_shapes.sequence_length),
    )
    forward_row: Dict[str, object] = {}
    outputs: Dict[str, np.ndarray] = {}
    backend = build_fast_backend(registry)
    for name in kernels:
        model = build_engine(
            int8_shapes, "int8", compute_dtype="float32", kernel=name
        )
        forward_row[f"{name}_s"] = time_call(
            lambda m=model: m.forward(forward_tokens, backend=backend), repeats
        )
        outputs[name] = model.forward(forward_tokens, backend=backend)
    if "native_s" in forward_row:
        forward_row["speedup"] = forward_row["numpy_s"] / forward_row["native_s"]
        forward_row["bitwise_equal_vs_numpy"] = bool(
            np.array_equal(outputs["numpy"], outputs["native"], equal_nan=True)
        )
    ops["encoder_forward_int8"] = forward_row

    section["ops"] = ops
    return section


def benchmark_end_to_end(
    registry: LutRegistry,
    shapes: EngineShapes,
    matmul_precision: str = "fp32",
    check_equivalence: bool = True,
) -> Dict[str, object]:
    """End-to-end encoder forward: seed path vs fast path, same weights."""
    rng = np.random.default_rng(7)
    tokens = rng.integers(0, shapes.vocab_size, size=(shapes.batch_size, shapes.sequence_length))

    seed_model = build_engine(
        shapes, matmul_precision, compute_dtype="float64", cache_weights=False
    )
    fast_model = build_engine(shapes, matmul_precision, compute_dtype="float32")
    seed_backend = seed_nn_lut_backend(registry)
    fast_backend = build_fast_backend(registry)

    seed_s = time_call(lambda: seed_model.forward(tokens, backend=seed_backend), shapes.repeats)
    fast_s = time_call(lambda: fast_model.forward(tokens, backend=fast_backend), shapes.repeats)

    row: Dict[str, object] = {
        "shape": asdict(shapes),
        **_op_row(seed_s, fast_s),
        "tokens_per_s_seed": shapes.tokens / seed_s,
        "tokens_per_s_fast": shapes.tokens / fast_s,
    }
    if check_equivalence:
        # The cached float64 engine with the fused kernels must reproduce the
        # full seed path (uncached weights AND seed-replica LUT composites)
        # bit for bit; the float32 engine is reported as a max-abs deviation.
        compat_model = build_engine(shapes, matmul_precision, compute_dtype="float64")
        reference = seed_model.forward(tokens, backend=seed_backend)
        compat = compat_model.forward(tokens, backend=fast_backend)
        fast = fast_model.forward(tokens, backend=fast_backend)
        row["cached_float64_bitwise_equal"] = bool(np.array_equal(reference, compat))
        row["float32_max_abs_diff"] = float(np.max(np.abs(fast - reference)))
    return row


def ragged_request_lengths(shapes: EngineShapes, num_requests: int) -> List[int]:
    """A serving-like ragged workload: few distinct lengths, with repeats."""
    rng = np.random.default_rng(11)
    seq = shapes.sequence_length
    candidates = sorted({max(8, seq // 4), max(8, seq // 2), seq})
    return [int(length) for length in rng.choice(candidates, size=num_requests)]


def benchmark_session_ragged(
    registry: LutRegistry,
    shapes: EngineShapes,
    num_requests: int = 12,
    check_equivalence: bool = True,
) -> Dict[str, object]:
    """Ragged-request serving: per-call loop vs InferenceSession micro-batching.

    The "seed" path here is the legacy serving pattern — one ``model.forward``
    per request — and the fast path is :class:`repro.api.InferenceSession`
    with length-bucketed dynamic micro-batching over the same fast engine, so
    the speedup isolates what batching itself buys.
    """
    rng = np.random.default_rng(12)
    lengths = ragged_request_lengths(shapes, num_requests)
    requests = [rng.integers(0, shapes.vocab_size, size=length) for length in lengths]
    total_tokens = int(sum(lengths))

    model = build_engine(shapes, "fp32", compute_dtype="float32")
    spec = BackendSpec.nn_lut()
    session = InferenceSession.from_model(
        model, spec=spec, registry=registry, max_batch_size=shapes.batch_size * 4
    )

    def per_call() -> None:
        for request in requests:
            model.forward(request[None, :], backend=session.backend)

    seed_s = time_call(per_call, shapes.repeats)
    fast_s = time_call(lambda: session.forward(requests), shapes.repeats)

    row: Dict[str, object] = {
        "shape": asdict(shapes),
        "num_requests": num_requests,
        "total_tokens": total_tokens,
        **_op_row(seed_s, fast_s),
        "tokens_per_s_seed": total_tokens / seed_s,
        "tokens_per_s_fast": total_tokens / fast_s,
    }
    if check_equivalence:
        # Under the float64 engine the micro-batched session must reproduce
        # the per-call outputs bit for bit (exact-length bucketing: no
        # padding enters the computation); the float32 engine is reported as
        # a max-abs deviation between the batched and per-call paths.
        model64 = build_engine(shapes, "fp32", compute_dtype="float64")
        session64 = InferenceSession.from_model(model64, spec=spec, registry=registry)
        batched64 = session64.forward(requests)
        bitwise = all(
            np.array_equal(
                model64.forward(request[None, :], backend=session64.backend)[0],
                batched64[i],
            )
            for i, request in enumerate(requests)
        )
        batched32 = session.forward(requests)
        diff32 = max(
            float(
                np.max(
                    np.abs(
                        model.forward(request[None, :], backend=session.backend)[0]
                        - batched32[i]
                    )
                )
            )
            for i, request in enumerate(requests)
        )
        row["cached_float64_bitwise_equal"] = bool(bitwise)
        row["float32_max_abs_diff"] = diff32
    return row


def server_request_lengths(shapes: EngineShapes, num_requests: int) -> List[int]:
    """Short-request serving traffic: the regime batched scheduling targets.

    Interactive serving is dominated by short sequences (queries, snippets),
    where the per-request fixed cost — small under-utilised GEMMs plus the
    Python operator overhead of a depth-``num_layers`` forward — is exactly
    what cross-caller batch coalescing amortises.
    """
    rng = np.random.default_rng(13)
    seq = shapes.sequence_length
    candidates = sorted({max(2, seq // 16), max(2, 3 * seq // 32), max(2, seq // 8)})
    return [int(length) for length in rng.choice(candidates, size=num_requests)]


def _concurrent_clients(
    queue: ServingQueue, requests: List[np.ndarray], num_clients: int
) -> List[np.ndarray]:
    """Submit ``requests`` from ``num_clients`` threads; results in order."""
    futures: List[List] = [[] for _ in range(num_clients)]
    errors: List[BaseException] = []
    shards = [list(range(c, len(requests), num_clients)) for c in range(num_clients)]

    def client(c: int) -> None:
        try:
            futures[c] = [queue.submit(requests[i]) for i in shards[c]]
        except BaseException as exc:  # surface, don't silently drop results
            errors.append(exc)

    threads = [
        threading.Thread(target=client, args=(c,)) for c in range(num_clients)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]
    outputs: List[np.ndarray] = [None] * len(requests)  # type: ignore[list-item]
    for c, shard in enumerate(shards):
        for future, i in zip(futures[c], shard):
            outputs[i] = future.result(600)
    return outputs


def _close_pool(pool) -> None:
    """Close a pool if its kind needs closing (ShardedPool does)."""
    close = getattr(pool, "close", None)
    if callable(close):
        close()


def _benchmark_pool_serving(
    shapes: EngineShapes,
    make_pool,
    num_requests: int,
    num_replicas: int,
    check_equivalence: bool,
) -> Dict[str, object]:
    """Shared harness: per-call loop vs a replica pool behind a ServingQueue.

    ``make_pool(model)`` builds the pool under test over the given engine
    model (any :class:`repro.api.ReplicaPool`); its ``template`` backend
    doubles as the per-call oracle.  The "seed" path is the naive serving
    loop — one ``model.forward`` per request as traffic arrives — and the
    fast path runs the same requests through the batch-coalescing scheduler
    from concurrent client threads.  The float64 twin of the pool must
    reproduce per-call serving bit for bit (exact-length bucketing +
    identical replicas); float32 is reported as a max-abs deviation.
    """
    rng = np.random.default_rng(14)
    lengths = server_request_lengths(shapes, num_requests)
    requests = [rng.integers(0, shapes.vocab_size, size=length) for length in lengths]
    total_tokens = int(sum(lengths))
    num_clients = min(8, num_requests)

    model = build_engine(shapes, "fp32", compute_dtype="float32")
    pool = make_pool(model)
    try:
        baseline_backend = pool.template.backend

        def per_call() -> None:
            for request in requests:
                model.forward(request[None, :], backend=baseline_backend)

        seed_s = time_call(per_call, shapes.repeats)
        with ServingQueue(
            pool, max_wait_ms=10.0, max_queue_depth=4 * num_requests
        ) as queue:
            fast_s = time_call(
                lambda: _concurrent_clients(queue, requests, num_clients),
                shapes.repeats,
            )
            stats = queue.stats()

        row: Dict[str, object] = {
            "shape": asdict(shapes),
            "num_requests": num_requests,
            "num_replicas": num_replicas,
            "num_clients": num_clients,
            "total_tokens": total_tokens,
            **_op_row(seed_s, fast_s),
            "tokens_per_s_seed": total_tokens / seed_s,
            "tokens_per_s_fast": total_tokens / fast_s,
            "queue": {
                "mean_batch_size": stats.mean_batch_size,
                "p50_latency_ms": stats.p50_latency_ms,
                "p99_latency_ms": stats.p99_latency_ms,
                "mean_queue_wait_ms": stats.mean_queue_wait_ms,
                "mean_service_ms": stats.mean_service_ms,
                "completed": stats.completed,
                "rejected": stats.rejected,
                "expired": stats.expired,
            },
        }
        if check_equivalence:
            model64 = build_engine(shapes, "fp32", compute_dtype="float64")
            pool64 = make_pool(model64)
            try:
                with ServingQueue(pool64, max_wait_ms=10.0) as queue64:
                    served64 = _concurrent_clients(queue64, requests, num_clients)
                oracle64 = pool64.template.backend
                bitwise = all(
                    np.array_equal(
                        model64.forward(request[None, :], backend=oracle64)[0],
                        served64[i],
                    )
                    for i, request in enumerate(requests)
                )
            finally:
                _close_pool(pool64)
            with ServingQueue(pool, max_wait_ms=10.0) as queue32:
                served32 = _concurrent_clients(queue32, requests, num_clients)
            diff32 = max(
                float(
                    np.max(
                        np.abs(
                            model.forward(
                                request[None, :], backend=baseline_backend
                            )[0]
                            - served32[i]
                        )
                    )
                )
                for i, request in enumerate(requests)
            )
            row["cached_float64_bitwise_equal"] = bool(bitwise)
            row["float32_max_abs_diff"] = diff32
        return row
    finally:
        _close_pool(pool)


def benchmark_server_concurrent(
    registry: LutRegistry,
    shapes: EngineShapes,
    num_requests: int = 48,
    num_replicas: int = 2,
    check_equivalence: bool = True,
) -> Dict[str, object]:
    """Concurrent serving: per-call loop vs SessionPool + ServingQueue.

    The ROADMAP's "batched multi-sequence scheduling": replica threads over
    one shared frozen encoder behind the coalescing scheduler (see
    :func:`_benchmark_pool_serving` for the harness and parity contract).
    """
    return _benchmark_pool_serving(
        shapes,
        lambda model: SessionPool.from_model(
            model, spec=BackendSpec.nn_lut(), registry=registry,
            num_replicas=num_replicas, max_batch_size=16,
        ),
        num_requests=num_requests,
        num_replicas=num_replicas,
        check_equivalence=check_equivalence,
    )


def benchmark_server_sharded(
    registry: LutRegistry,
    shapes: EngineShapes,
    num_requests: int = 48,
    num_replicas: int = 2,
    check_equivalence: bool = True,
    transport: str = "pipe",
) -> Dict[str, object]:
    """Multi-process sharded serving: per-call loop vs ShardedPool + queue.

    Same harness as ``benchmark_server_concurrent`` (one shared
    :func:`_benchmark_pool_serving`, same traffic), but the replicas live in
    worker *processes* over shared-memory weights, so on a multi-core machine
    the forwards themselves (not just the BLAS inner loops) run in parallel.
    The row records ``cpu_count`` so the speedup can be read in context: on
    one core it isolates the IPC overhead the process boundary adds — and
    ``transport`` selects how requests/results cross that boundary
    (``"pipe"`` = pickle, ``"shm_ring"`` = shared-memory rings; the
    ``server_sharded_shm_fp32`` row is this benchmark at ``"shm_ring"``).
    """
    row = _benchmark_pool_serving(
        shapes,
        lambda model: ShardedPool.from_model(
            model, spec=BackendSpec.nn_lut(), registry=registry,
            num_replicas=num_replicas, max_batch_size=16, transport=transport,
        ),
        num_requests=num_requests,
        num_replicas=num_replicas,
        check_equivalence=check_equivalence,
    )
    row["cpu_count"] = os.cpu_count()
    row["transport"] = transport
    return row


def benchmark_server_trace_leastloaded(
    registry: LutRegistry,
    shapes: EngineShapes,
    num_requests: int = 48,
    num_replicas: int = 2,
    duration_s: float = 0.3,
    check_equivalence: bool = True,
) -> Dict[str, object]:
    """Least-loaded routing under a bursty trace replay (schema v7).

    Unlike the steady all-at-once traffic of the other serving rows, this
    one replays a seeded trace — bursty arrivals over a diurnal ramp with
    heavy-tailed request lengths (see :mod:`traces`) — against a sharded
    pool behind ``router="least_loaded"``, and digests latency separately
    for requests that arrived *inside* a burst window vs steady state.
    The p99-under-burst is the number load-aware routing exists to hold
    down: round-robin placement lets a burst queue behind whichever replica
    the rotation happens to point at, while least-loaded placement (plus
    work stealing) spreads it by actual queued cost.

    The seed path is the same naive per-call loop as every serving row, and
    the float64 twin replays routing-equivalence: least-loaded placement
    must reproduce per-call serving bit for bit (replica identity never
    changes results), even though *which* replica served each request is
    timing-dependent.
    """
    trace = traces.generate_trace(
        traces.TraceConfig(
            num_requests=num_requests,
            duration_s=duration_s,
            seed=16,
            min_length=2,
            max_length=shapes.sequence_length,
            vocab_size=shapes.vocab_size,
        )
    )
    requests = list(trace.requests)
    model = build_engine(shapes, "fp32", compute_dtype="float32")
    pool = ShardedPool.from_model(
        model, spec=BackendSpec.nn_lut(), registry=registry,
        num_replicas=num_replicas, max_batch_size=16,
    )
    try:
        baseline_backend = pool.template.backend

        def per_call() -> None:
            for request in requests:
                model.forward(request[None, :], backend=baseline_backend)

        seed_s = time_call(per_call, shapes.repeats)
        with ServingQueue(
            pool, max_wait_ms=2.0, max_queue_depth=4 * num_requests,
            router="least_loaded",
        ) as queue:
            replayed = traces.replay(queue, trace, keep_results=False)
            stats = queue.stats()
        fast_s = replayed.elapsed_s

        row: Dict[str, object] = {
            "shape": asdict(shapes),
            "trace": traces.trace_row(trace),
            "num_requests": num_requests,
            "num_replicas": num_replicas,
            "router": "least_loaded",
            "transport": pool.transport_name,
            "cpu_count": os.cpu_count(),
            "total_tokens": trace.total_tokens,
            **_op_row(seed_s, fast_s),
            "tokens_per_s_seed": trace.total_tokens / seed_s,
            "tokens_per_s_fast": trace.total_tokens / fast_s,
            "latency": traces.burst_digest(replayed),
            "queue": {
                "mean_batch_size": stats.mean_batch_size,
                "p50_latency_ms": stats.p50_latency_ms,
                "p99_latency_ms": stats.p99_latency_ms,
                "mean_queue_wait_ms": stats.mean_queue_wait_ms,
                "mean_service_ms": stats.mean_service_ms,
                "completed": stats.completed,
                "rejected": stats.rejected,
                "expired": stats.expired,
                "stolen": sum(replica.stolen for replica in stats.replicas),
            },
        }
        if check_equivalence:
            model64 = build_engine(shapes, "fp32", compute_dtype="float64")
            pool64 = ShardedPool.from_model(
                model64, spec=BackendSpec.nn_lut(), registry=registry,
                num_replicas=num_replicas, max_batch_size=16,
            )
            try:
                with ServingQueue(
                    pool64, max_wait_ms=2.0, router="least_loaded"
                ) as queue64:
                    served64 = queue64.serve(requests, timeout=600)
                oracle64 = pool64.template.backend
                bitwise = all(
                    np.array_equal(
                        model64.forward(request[None, :], backend=oracle64)[0],
                        served64[i],
                    )
                    for i, request in enumerate(requests)
                )
            finally:
                _close_pool(pool64)
            row["cached_float64_bitwise_equal"] = bool(bitwise)
        return row
    finally:
        _close_pool(pool)


def benchmark_server_chaos(
    registry: LutRegistry,
    shapes: EngineShapes,
    num_requests: int = 48,
    num_replicas: int = 2,
    duration_s: float = 0.3,
    check_equivalence: bool = True,
) -> Dict[str, object]:
    """Goodput and tail latency under an injected worker crash (schema v8).

    Replays the same seeded trace twice against a sharded pool behind the
    retrying queue — identical queue configuration both times, only the
    fault plan differs.  The clean pass establishes the fault-free
    baseline; the chaos pass arms a :class:`FaultPlan` that hard-kills
    worker 0 (``os._exit``) on its first served batch, so the retry policy
    must re-route the orphaned batch and the fleet must retire the corpse
    while traffic keeps arriving.  The row reports what resilience
    actually buys: ``goodput_ratio`` (completed requests per second, chaos
    vs clean) and ``p99_degradation_x`` (how far the tail stretches while
    the survivor absorbs rerouted work), plus the retry/breaker/retirement
    counters.

    The float64 twin replays the *chaos* scenario and requires every
    successful response — including the retried ones — to be bitwise
    identical to per-call serving: re-dispatching a batch to a different
    replica must never change results (the retry-idempotency contract).
    """
    trace = traces.generate_trace(
        traces.TraceConfig(
            num_requests=num_requests,
            duration_s=duration_s,
            seed=17,
            min_length=2,
            max_length=shapes.sequence_length,
            vocab_size=shapes.vocab_size,
        )
    )
    plan = FaultPlan(seed=17, worker_crash_at=1, crash_worker_index=0)
    retry = RetryPolicy(
        max_attempts=3, backoff_base_s=0.005, backoff_max_s=0.05
    )
    model = build_engine(shapes, "fp32", compute_dtype="float32")

    def _replay_once():
        pool = ShardedPool.from_model(
            model, spec=BackendSpec.nn_lut(), registry=registry,
            num_replicas=num_replicas, max_batch_size=16,
        )
        try:
            transport_name = pool.transport_name
            with ServingQueue(
                pool, max_wait_ms=2.0, max_queue_depth=4 * num_requests,
                router="least_loaded", retry=retry,
            ) as queue:
                replayed = traces.replay(queue, trace, keep_results=False)
                stats = queue.stats()
        finally:
            _close_pool(pool)
        return replayed, stats, transport_name

    def _run_row(replayed, stats) -> Dict[str, object]:
        digest = traces.burst_digest(replayed)
        return {
            "elapsed_s": replayed.elapsed_s,
            "completed": replayed.completed,
            "failed": replayed.failed,
            "goodput_rps": replayed.completed / replayed.elapsed_s,
            "p50_ms": digest["all"]["p50_ms"],
            "p99_ms": digest["all"]["p99_ms"],
            "retry_attempts": stats.retry_attempts,
            "retried_requests": stats.retried_requests,
            "breaker_opens": stats.breaker_opens,
            "breaker_closes": stats.breaker_closes,
            "integrity_failures": stats.integrity_failures,
            "expired_in_flight": stats.expired_in_flight,
            "replicas_retired": stats.replicas_retired,
        }

    clean, clean_stats, transport_name = _replay_once()
    # The injector must be live while the pool *spawns*: worker-side
    # faults ship with the worker init message, not per request.
    with inject(plan):
        chaos, chaos_stats, _ = _replay_once()

    clean_row = _run_row(clean, clean_stats)
    chaos_row = _run_row(chaos, chaos_stats)
    clean_p99 = clean_row["p99_ms"]
    row: Dict[str, object] = {
        "shape": asdict(shapes),
        "trace": traces.trace_row(trace),
        "num_requests": num_requests,
        "num_replicas": num_replicas,
        "router": "least_loaded",
        "transport": transport_name,
        "cpu_count": os.cpu_count(),
        "fault_plan": asdict(plan),
        "retry": asdict(retry),
        "clean": clean_row,
        "chaos": chaos_row,
        "goodput_ratio": (
            chaos_row["goodput_rps"] / clean_row["goodput_rps"]
            if clean_row["goodput_rps"] > 0 else 0.0
        ),
        "p99_degradation_x": (
            chaos_row["p99_ms"] / clean_p99 if clean_p99 > 0 else 0.0
        ),
    }
    if check_equivalence:
        model64 = build_engine(shapes, "fp32", compute_dtype="float64")
        with inject(plan):
            pool64 = ShardedPool.from_model(
                model64, spec=BackendSpec.nn_lut(), registry=registry,
                num_replicas=num_replicas, max_batch_size=16,
            )
            try:
                with ServingQueue(
                    pool64, max_wait_ms=2.0, router="least_loaded",
                    retry=retry,
                ) as queue64:
                    replay64 = traces.replay(queue64, trace)
                oracle64 = pool64.template.backend
                bitwise = all(
                    np.array_equal(
                        model64.forward(
                            trace.requests[o.index][None, :],
                            backend=oracle64,
                        )[0],
                        o.result,
                    )
                    for o in replay64.outcomes
                    if o.ok
                )
            finally:
                _close_pool(pool64)
        row["chaos64_failed"] = replay64.failed
        row["cached_float64_bitwise_equal"] = bool(bitwise)
    return row


def benchmark_ipc_transports(
    shapes: EngineShapes,
    num_requests: int = 48,
    max_batch_size: int = 16,
    repeats: int | None = None,
    response_dtype: str = "float32",
) -> Dict[str, object]:
    """Pickle-pipe vs shm-ring transport cost at serving batch shapes.

    Round-trips the exact batches the 48-short-request serving workload
    dispatches — ragged int64 token batches out, serving-shaped
    ``(length, hidden)`` result blocks back — against an echo worker that
    does *no* compute, so the per-request time is pure transport: request
    packing/pickling, the pipe write (or ring doorbell), and the
    parent-side result copy-out.  ``overhead_ratio`` is how many times
    cheaper the shm ring makes one request's boundary crossing.
    """
    rng = np.random.default_rng(15)
    lengths = server_request_lengths(shapes, num_requests)
    requests = [rng.integers(0, shapes.vocab_size, size=length) for length in lengths]
    plan = RequestBatcher(max_batch_size=max_batch_size).plan(
        lengths, shapes.sequence_length
    )
    batches = [[requests[i] for i in indices] for _, indices in plan]
    dtype = np.dtype(response_dtype)
    # Rings sized exactly like ShardedPool's default: one full batch of
    # maximum-length sequences per direction (the shared formula).
    request_bytes, response_bytes = serving_ring_bytes(
        rows=max_batch_size,
        seq_len=shapes.sequence_length,
        hidden=shapes.hidden_size,
        itemsize=dtype.itemsize,
    )
    repeats = shapes.repeats if repeats is None else repeats
    context = multiprocessing.get_context("spawn")

    row: Dict[str, object] = {
        "shape": asdict(shapes),
        "num_requests": num_requests,
        "num_batches": len(batches),
        "mean_batch_size": num_requests / len(batches),
        "response_dtype": response_dtype,
        "request_ring_bytes": request_bytes,
        "response_ring_bytes": response_bytes,
    }
    per_request: Dict[str, float] = {}
    for kind in ("pipe", "shm_ring"):
        transport, process = _spawn_echo_worker(
            kind, context, shapes.hidden_size, dtype, request_bytes, response_bytes
        )
        try:

            def roundtrip_all() -> None:
                for batch in batches:
                    transport.send("echo", batch)
                    if not transport.poll(600):
                        raise TimeoutError(f"{kind} echo round trip stalled")
                    status, value = transport.recv()
                    if status != "ok":
                        raise RuntimeError(f"{kind} echo failed: {value}")

            per_request[kind] = time_call(roundtrip_all, repeats) / num_requests
            if kind == "shm_ring":
                stats = transport.stats
                row["shm_ring_hot_path_hits"] = stats["ring_requests"]
                if not stats["ring_requests"]:
                    raise RuntimeError(
                        "shm ring benchmark never used the ring; the "
                        "measurement would compare pipe against pipe"
                    )
        finally:
            _shutdown_echo_worker(transport, process)
    row["pipe_per_request_s"] = per_request["pipe"]
    row["shm_ring_per_request_s"] = per_request["shm_ring"]
    row["overhead_ratio"] = per_request["pipe"] / per_request["shm_ring"]
    return row


def fused_lut_equivalence(registry: LutRegistry, num_points: int = 200_001) -> Dict[str, float]:
    """Max |fused fp32 evaluate - seed fp64 call| per primitive, on-range."""
    out: Dict[str, float] = {}
    for name in ("gelu", "exp", "reciprocal", "rsqrt"):
        lut = registry.lut(name, num_entries=16)
        low, high = lut.metadata.get("input_range", (-5.0, 5.0))
        grid = np.linspace(float(low), float(high), num_points)
        seed_values = SeedLutEvaluator(lut)(grid)
        fused32 = lut.evaluate(grid.astype(np.float32))
        out[name] = float(np.max(np.abs(fused32 - seed_values)))
    return out


def run_engine_benchmark(mode: str = "smoke", registry: LutRegistry | None = None) -> Dict[str, object]:
    """Produce the full BENCH_engine.json payload (without writing it)."""
    if mode not in ("smoke", "full"):
        raise ValueError(f"mode must be 'smoke' or 'full', got {mode!r}")
    if registry is None:
        registry = LutRegistry(training_config=BENCH_TRAINING_CONFIG)
    shapes = FULL_SHAPES if mode == "full" else SMOKE_SHAPES
    int8_shapes = FULL_INT8_SHAPES if mode == "full" else SMOKE_SHAPES
    report: Dict[str, object] = {
        "schema_version": SCHEMA_VERSION,
        "mode": mode,
        "ops": benchmark_ops(registry, shapes),
        "kernels": benchmark_kernels(registry, shapes, int8_shapes),
        "end_to_end": {
            "encoder_forward_fp32": benchmark_end_to_end(registry, shapes, "fp32"),
            "encoder_forward_int8": benchmark_end_to_end(registry, int8_shapes, "int8"),
            "session_ragged_fp32": benchmark_session_ragged(
                registry, shapes, num_requests=12 if mode == "full" else 6
            ),
            "server_concurrent_fp32": benchmark_server_concurrent(
                registry, shapes, num_requests=48 if mode == "full" else 8
            ),
            "server_sharded_fp32": benchmark_server_sharded(
                registry, shapes, num_requests=48 if mode == "full" else 8
            ),
            "server_sharded_shm_fp32": benchmark_server_sharded(
                registry, shapes, num_requests=48 if mode == "full" else 8,
                transport="shm_ring",
            ),
            "server_sharded_leastloaded_fp32": benchmark_server_trace_leastloaded(
                registry, shapes, num_requests=48 if mode == "full" else 8,
                duration_s=2.0 if mode == "full" else 0.2,
            ),
            "server_sharded_chaos_fp32": benchmark_server_chaos(
                registry, shapes, num_requests=48 if mode == "full" else 8,
                duration_s=2.0 if mode == "full" else 0.2,
            ),
        },
        "ipc": benchmark_ipc_transports(
            shapes, num_requests=48 if mode == "full" else 8
        ),
        "equivalence": {"fused_lut_fp32_max_abs_diff": fused_lut_equivalence(registry)},
        "environment": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "machine": platform.machine(),
        },
    }
    return report


def write_report(report: Dict[str, object], path: Path = DEFAULT_REPORT_PATH) -> Path:
    path = Path(path)
    path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    return path


def print_kernel_rows(section: Dict[str, object]) -> None:
    if not section["native_available"]:
        print(
            "kernels: native unavailable "
            f"({section.get('native_unavailable_reason')}); numpy rows only"
        )
    else:
        print(
            f"kernels: numpy + native ({gemm_tier_label(section)}, "
            f"{section['num_threads']} thread(s))"
        )
        print_gemm_gops(section)
    for name, row in section["ops"].items():
        parts = [f"numpy {1e3 * row['numpy_s']:8.2f} ms"]
        if "native_s" in row:
            parts.append(
                f"native {1e3 * row['native_s']:8.2f} ms -> {row['speedup']:.2f}x"
            )
        if "bitwise_equal_vs_numpy" in row:
            parts.append(f"bitwise_equal={row['bitwise_equal_vs_numpy']}")
        print(f"  {name:<22} " + "  ".join(parts))


def gemm_tier_label(info: Dict[str, object]) -> str:
    """``int8 GEMM tier 3 = amx`` (+ why a higher tier was refused), from
    ``kernel_info()`` or the ``kernels`` section."""
    refused = info["gemm_tier_refused"]
    label = f"int8 GEMM tier {info['gemm_impl']} = {info['gemm_tier']}"
    return f"{label}; {refused}" if refused else label


def print_gemm_gops(section: Dict[str, object]) -> None:
    """The packed int8 GEMM alone: GOP/s per shape, the tier in use first."""
    for shape, tiers in section["ops"]["gemm_int8"]["gops"].items():
        rates = ", ".join(f"{tier} {gops:.0f}" for tier, gops in tiers.items())
        print(f"  gemm_int8 {shape:<14} GOP/s: {rates}")


def print_ipc_row(row: Dict[str, object]) -> None:
    print(
        f"ipc transport: pickle pipe {1e6 * row['pipe_per_request_s']:.0f} us/req "
        f"vs shm ring {1e6 * row['shm_ring_per_request_s']:.0f} us/req "
        f"-> {row['overhead_ratio']:.2f}x lower overhead "
        f"({row['num_requests']} requests in {row['num_batches']} batches, "
        f"{row['response_dtype']} results)"
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--mode", choices=("smoke", "full"), default="full")
    parser.add_argument("--output", type=Path, default=DEFAULT_REPORT_PATH)
    parser.add_argument(
        "--ipc", action="store_true",
        help="run only the pickle-vs-ring IPC microbenchmark (no report write)",
    )
    parser.add_argument(
        "--kernels", action="store_true",
        help="run only the per-op ComputeKernel microbenchmarks "
        "(no report write, no multiprocessing)",
    )
    args = parser.parse_args(argv)
    if args.kernels:
        shapes = FULL_SHAPES if args.mode == "full" else SMOKE_SHAPES
        int8_shapes = FULL_INT8_SHAPES if args.mode == "full" else SMOKE_SHAPES
        registry = LutRegistry(training_config=BENCH_TRAINING_CONFIG)
        print_kernel_rows(benchmark_kernels(registry, shapes, int8_shapes))
        return 0
    if args.ipc:
        shapes = FULL_SHAPES if args.mode == "full" else SMOKE_SHAPES
        print_ipc_row(
            benchmark_ipc_transports(
                shapes, num_requests=48 if args.mode == "full" else 8
            )
        )
        return 0
    report = run_engine_benchmark(mode=args.mode)
    path = write_report(report, args.output)
    fp32 = report["end_to_end"]["encoder_forward_fp32"]
    int8 = report["end_to_end"]["encoder_forward_int8"]
    session = report["end_to_end"]["session_ragged_fp32"]
    server = report["end_to_end"]["server_concurrent_fp32"]
    print(f"wrote {path}")
    print(
        f"encoder forward fp32: {fp32['speedup']:.2f}x "
        f"({fp32['tokens_per_s_seed']:.0f} -> {fp32['tokens_per_s_fast']:.0f} tokens/s)"
    )
    print(
        f"encoder forward int8: {int8['speedup']:.2f}x "
        f"({int8['tokens_per_s_seed']:.0f} -> {int8['tokens_per_s_fast']:.0f} tokens/s)"
    )
    print(
        f"session ragged fp32:  {session['speedup']:.2f}x "
        f"({session['tokens_per_s_seed']:.0f} -> {session['tokens_per_s_fast']:.0f} tokens/s, "
        f"micro-batching over {session['num_requests']} requests)"
    )
    print(
        f"server concurrent fp32: {server['speedup']:.2f}x "
        f"({server['tokens_per_s_seed']:.0f} -> {server['tokens_per_s_fast']:.0f} tokens/s, "
        f"{server['num_replicas']} replicas x {server['num_clients']} clients, "
        f"{server['num_requests']} requests, "
        f"mean batch {server['queue']['mean_batch_size']:.1f}, "
        f"p50 {server['queue']['p50_latency_ms']:.0f} ms / "
        f"p99 {server['queue']['p99_latency_ms']:.0f} ms)"
    )
    for name in ("server_sharded_fp32", "server_sharded_shm_fp32"):
        sharded = report["end_to_end"][name]
        print(
            f"{name}: {sharded['speedup']:.2f}x "
            f"({sharded['tokens_per_s_seed']:.0f} -> {sharded['tokens_per_s_fast']:.0f} tokens/s, "
            f"{sharded['num_replicas']} worker processes ({sharded['transport']}) "
            f"on {sharded['cpu_count']} cores, "
            f"{sharded['num_clients']} clients, {sharded['num_requests']} requests, "
            f"mean batch {sharded['queue']['mean_batch_size']:.1f}, "
            f"p50 {sharded['queue']['p50_latency_ms']:.0f} ms / "
            f"p99 {sharded['queue']['p99_latency_ms']:.0f} ms, "
            f"mean service {sharded['queue']['mean_service_ms']:.0f} ms)"
        )
    trace_replay = report["end_to_end"]["server_sharded_leastloaded_fp32"]
    latency = trace_replay["latency"]
    print(
        f"server_sharded_leastloaded_fp32: trace replay "
        f"({trace_replay['num_requests']} requests over "
        f"{trace_replay['trace']['duration_s']:.1f} s, "
        f"{trace_replay['num_replicas']} worker processes, "
        f"router={trace_replay['router']}, "
        f"burst p50 {latency['burst']['p50_ms']:.0f} ms / "
        f"p99 {latency['burst']['p99_ms']:.0f} ms vs steady "
        f"p50 {latency['steady']['p50_ms']:.0f} ms / "
        f"p99 {latency['steady']['p99_ms']:.0f} ms, "
        f"{trace_replay['queue']['stolen']} batches stolen)"
    )
    chaos = report["end_to_end"]["server_sharded_chaos_fp32"]
    print(
        f"server_sharded_chaos_fp32: worker crash at batch "
        f"{chaos['fault_plan']['worker_crash_at']} -> goodput ratio "
        f"{chaos['goodput_ratio']:.2f} "
        f"({chaos['clean']['goodput_rps']:.0f} -> "
        f"{chaos['chaos']['goodput_rps']:.0f} req/s), "
        f"p99 {chaos['p99_degradation_x']:.2f}x "
        f"({chaos['clean']['p99_ms']:.0f} -> {chaos['chaos']['p99_ms']:.0f} ms), "
        f"{chaos['chaos']['retry_attempts']} retries / "
        f"{chaos['chaos']['replicas_retired']} retired, "
        f"{chaos['chaos']['failed']} lost, "
        f"float64 bitwise equal: {chaos.get('cached_float64_bitwise_equal')}"
    )
    print_ipc_row(report["ipc"])
    print_kernel_rows(report["kernels"])
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
