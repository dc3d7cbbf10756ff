"""Compact ComputeKernel parity table: NumpyKernel vs compiled NativeKernel.

Run via ``scripts/check_kernel_parity.sh`` (or directly with
``PYTHONPATH=src python benchmarks/kernel_parity.py``).  First prints one
"fitted tables" row with two sha256 digests over the four NN-LUT
primitives' tables (breakpoints, slopes and intercepts): one of a fresh
default registry, which loads them from the tracked table artifact, and
one of a fresh ``fit_lut`` per primitive, with how long that fit takes.
It exits non-zero if the two differ, so the row proves both that the
artifact is current and, compared across a change, that the fit itself did
not move by a bit.  A "calibrated tables" row digests the four tables
``InferenceSession.calibrate`` (the paper's "+C") re-fits on a fixed sample
of ``tiny``-model traffic, so a change that moves the calibration shows in
the log.  A "prepared int8 operands" row does the same for the
end-to-end benchmark's int8-native model: how long its build takes (the
build prepares each layer's ``Linear`` operands right after drawing it) and
a sha256 over every layer's packed panels, column sums, weight scale and
bias.  A "resident weights" row prints, for the benchmark's fp32 and
int8-native models, how many MB of float64 masters stay resident after the
build against the MB of prepared operands.  "split forward" rows digest one
padded block of the benchmark's fp32 model, on each kernel, of the same
geometry on the float64 engine and of the benchmark's int8-native model, as
``EncoderModel.forward`` computes it with its two row halves on two threads
and on one thread; the script exits non-zero if the two differ.  An "int8
batch-invariant" row digests the int8-native model's output for that block
run as one batch and as one request at a time; the script exits non-zero if
the two differ.  Then it prints one row per
op/path across int8/fp32 — per-op kernels first, then an end-to-end encoder
forward and pooled output through :class:`repro.api.InferenceSession` — and
exits non-zero if any row violates the parity contract.  The contract is
*bitwise* everywhere: the native kernel is a drop-in replacement, not an
approximation, so ``max_abs_diff`` must print as exactly zero.

After the table it prints the packed int8 GEMM alone in GOP/s, per encoder
projection shape and per micro-kernel tier the host can run, then the numpy
kernel's LUT operators in ms and ns/element at two BERT-base block shapes
(the figures ROADMAP's performance snapshot quotes), then the float32
projection per BERT-base weight shape as ``np.matmul`` issues it for a 3-D
activation (one GEMM per sequence) against the one row-stacked GEMM
``matmul_fp32`` makes of it; those rows are information, not a gate.
"""

from __future__ import annotations

import dataclasses
import hashlib
import time

import numpy as np

from repro.api import BackendSpec, InferenceSession, SessionConfig, build_backend
from repro.core.approximators import LutGelu, LutLayerNorm, LutSoftmax
from repro.core.kernels import (
    GEMM_TIER_NAMES,
    NUMPY_KERNEL,
    get_kernel,
    kernel_info,
    native_available,
    native_unavailable_reason,
)
from repro.core.lut import LookupTable
from repro.core.registry import SERVED_PRIMITIVES, LutRegistry, fit_lut, table_sha256
from repro.core.scaling import InputScaler
from repro.transformer import models, tiny_test_config
from repro.transformer.models import EncoderModel

def fitted_tables() -> tuple:
    """``(artifact sha256, fit seconds, fit sha256)`` of the four served tables.

    The primitives the engine serves, 16 entries each: once as a fresh
    default registry loads them (the end-to-end benchmark's set-up), once
    fitted afresh with the same recipe.  Each digest runs over the tables'
    float64 breakpoints, slopes and intercepts in that order.
    """
    registry = LutRegistry()
    loaded = table_sha256(registry.lut(name, num_entries=16) for name in SERVED_PRIMITIVES)
    start = time.perf_counter()
    fitted = [fit_lut(name, num_entries=16).lut for name in SERVED_PRIMITIVES]
    seconds = time.perf_counter() - start
    return loaded, seconds, table_sha256(fitted)


def calibrated_tables() -> str:
    """sha256 over the four tables ``session.calibrate`` fits on a fixed sample.

    A float32 ``tiny`` session with every operator on 16-entry NN-LUT tables
    records eight unlabelled sequences (lengths 5-31, tokens drawn with seed
    0) and re-fits each primitive on them.
    """
    session = InferenceSession(
        SessionConfig("tiny"), spec=BackendSpec.nn_lut(), registry=LutRegistry()
    )
    rng = np.random.default_rng(0)
    vocab = session.model.config.vocab_size
    samples = [rng.integers(0, vocab, size=n) for n in (5, 9, 16, 23, 31, 12, 7, 28)]
    tables = session.calibrate(samples)
    return table_sha256(tables[name] for name in SERVED_PRIMITIVES)


#: The model of the end-to-end benchmark's ``offline_clustered_int8_native``
#: workload (``benchmarks/e2e/e2e_workloads.py::session_config``).
BENCHMARK_INT8_CONFIG = SessionConfig(
    "roberta", "full",
    model_overrides={"num_layers": 4, "vocab_size": 8000, "max_sequence_length": 128},
    matmul_precision="int8", kernel="native", max_batch_size=16,
)
#: ... and of its ``offline_clustered_fp32`` workload.
BENCHMARK_FP32_CONFIG = dataclasses.replace(
    BENCHMARK_INT8_CONFIG, matmul_precision="fp32", kernel="numpy"
)


def prepared_int8_operands() -> tuple:
    """``(layers, seconds, sha256 hex)`` of the benchmark model's int8 operands.

    Times the model build — the draw plus ``prepare()`` of every ``Linear``
    layer, the quantisation and panel packing a session's set-up relies on —
    and digests each layer's panels, column sums, float64 weight scale and
    bias, in ``iter_linears`` order.
    """
    start = time.perf_counter()
    linears = list(BENCHMARK_INT8_CONFIG.build_model().iter_linears())
    seconds = time.perf_counter() - start
    digest = hashlib.sha256()
    for linear in linears:
        _, operand, scale, bias, _ = linear._prepared_operands()
        for values in (operand.panels, operand.colsum, np.float64(scale), bias):
            digest.update(np.ascontiguousarray(values).tobytes())
    return len(linears), seconds, digest.hexdigest()


def resident_weights(config: SessionConfig) -> tuple:
    """``(resident master MB, all masters MB, operand MB)`` after a build."""
    resident = masters = operands = 0
    for linear in config.build_model().iter_linears():
        in_features, out_features = linear.in_features, linear.out_features
        masters += 8 * in_features * out_features
        if linear._weight is not None:
            resident += linear._weight.nbytes
        operand = linear._prepared_operands()[1]
        if isinstance(operand, np.ndarray):
            operands += operand.nbytes
        else:  # the native kernel's packed int8 panels and column sums
            operands += operand.panels.nbytes + operand.colsum.nbytes
    return resident / 2**20, masters / 2**20, operands / 2**20


def benchmark_block() -> tuple:
    """``(tokens, mask, backend)``: eight masked sequences of 32-128 tokens,
    padded to 128, and the served NN-LUT backend."""
    rng = np.random.default_rng(37)
    lengths = np.array([128, 96, 64, 32, 128, 48, 80, 112])
    tokens = rng.integers(0, 8000, size=(lengths.size, 128))
    mask = (np.arange(128)[None, :] < lengths[:, None]).astype(np.int64)
    return tokens, mask, build_backend(BackendSpec.nn_lut(), registry=LutRegistry())


def split_forward_digests() -> list:
    """``[(engine, split sha256, unsplit sha256)]`` over one benchmark block.

    The end-to-end benchmark's fp32 model on each available kernel, its
    geometry on the float64 engine, and its int8-native model: the
    :func:`benchmark_block` through ``EncoderModel.forward`` with a second
    core lent (two row halves on two threads) and with one.  The split's
    contract is that the digests are equal; a BLAS whose row-stacked GEMM
    rows depend on how many rows were stacked breaks it, and so would an
    int8 activation scale that spans more than one token row.
    """
    tokens, mask, backend = benchmark_block()
    engines = [("fp32/numpy", BENCHMARK_FP32_CONFIG)]
    if native_available():
        engines.append(
            ("fp32/native", dataclasses.replace(BENCHMARK_FP32_CONFIG, kernel="native"))
        )
    engines.append(
        ("float64", dataclasses.replace(BENCHMARK_FP32_CONFIG, compute_dtype="float64"))
    )
    engines.append((int8_engine(), BENCHMARK_INT8_CONFIG))
    slots = models._CORE_SLOTS
    out = []
    for engine, config in engines:
        model = config.build_model()
        digests = []
        try:
            for cores in (2, 1):
                slots._cores = cores
                hidden = model.forward(tokens, backend, mask)
                digests.append(hashlib.sha256(hidden.tobytes()).hexdigest())
        finally:
            slots._cores = None
        out.append((engine, *digests))
    return out


def int8_engine() -> str:
    """The label of the kernel ``BENCHMARK_INT8_CONFIG`` resolves to here:
    ``kernel="native"`` falls back to numpy on a host without the build."""
    return "int8/native" if native_available() else "int8/numpy"


def int8_batch_digests() -> tuple:
    """``(batched sha256, per-request sha256)`` of the int8-native model.

    The :func:`benchmark_block` as one batch, and each of its padded
    sequences as a batch of one; equal digests are the int8 engine's
    batch invariance (its activation scales are per token row).
    """
    tokens, mask, backend = benchmark_block()
    model = BENCHMARK_INT8_CONFIG.build_model()
    batched = model.forward(tokens, backend, mask)
    per_request = np.concatenate(
        [model.forward(tokens[i : i + 1], backend, mask[i : i + 1]) for i in range(len(tokens))]
    )
    return tuple(hashlib.sha256(out.tobytes()).hexdigest() for out in (batched, per_request))


def build_rows(registry: LutRegistry) -> list:
    native = get_kernel("native")
    rng = np.random.default_rng(3)
    rows: list = []

    def add(name: str, precision: str, a, b) -> None:
        a, b = np.asarray(a), np.asarray(b)
        bitwise = bool(np.array_equal(a, b, equal_nan=True))
        diff = 0.0
        if a.size and not bitwise:
            diff = float(np.nanmax(np.abs(a.astype(np.float64) - b)))
        rows.append((name, precision, diff, bitwise))

    x = rng.normal(size=(96, 48)).astype(np.float32)
    bias = rng.normal(size=32).astype(np.float32)

    w_q = rng.integers(-127, 128, size=(48, 32), dtype=np.int8)
    add(
        "linear",
        "int8",
        native.linear_int8(
            x, native.pack_weight_int8(w_q), 0.017, np.float32, bias=bias
        ),
        NUMPY_KERNEL.linear_int8(
            x, NUMPY_KERNEL.pack_weight_int8(w_q), 0.017, np.float32, bias=bias
        ),
    )
    # The fused projection's edges: a row count that ends mid-tile, a ragged
    # last k4 group, n a multiple of neither 16 nor 32, float64 in and out;
    # then Q/K/V-style projections sharing one quantised activation.
    xr = rng.normal(size=(3, 11, 70))
    wr = rng.integers(-127, 128, size=(70, 37), dtype=np.int8)
    bias_r = rng.normal(size=37)
    add(
        "linear ragged",
        "int8",
        native.linear_int8(
            xr, native.pack_weight_int8(wr), 0.017, np.float64, bias=bias_r
        ),
        NUMPY_KERNEL.linear_int8(
            xr, NUMPY_KERNEL.pack_weight_int8(wr), 0.017, np.float64, bias=bias_r
        ),
    )
    shared = [
        (w_q, 0.017, bias),
        (w_q[:, ::-1], 0.4, None),
        (w_q[:, :5], 0.002, None),
    ]
    add(
        "linear shared-activation",
        "int8",
        np.concatenate(
            native.linear_int8_shared(
                x,
                [(native.pack_weight_int8(w), s, b) for w, s, b in shared],
                np.float32,
            ),
            axis=-1,
        ),
        np.concatenate(
            [
                NUMPY_KERNEL.linear_int8(
                    x, NUMPY_KERNEL.pack_weight_int8(w), s, np.float32, bias=b
                )
                for w, s, b in shared
            ],
            axis=-1,
        ),
    )
    # The native kernel delegates this one to the numpy kernel, so the twin is
    # the seed formula (2-D input: one GEMM either way, hence bitwise).
    w32 = rng.normal(size=(48, 32)).astype(np.float32)
    add(
        "linear",
        "fp32",
        native.matmul_fp32(x, w32, np.float32, bias=bias),
        np.matmul(x, w32) + bias,
    )
    scale = NUMPY_KERNEL.quantize_scale(x)
    assert float(native.quantize_scale(x)) == float(scale)
    add(
        "quantize_pack",
        "int8",
        native.quantize_pack(x, scale),
        NUMPY_KERNEL.quantize_pack(x, scale),
    )

    gelu_op = LutGelu(registry.lut("gelu", num_entries=16))
    g = rng.uniform(-9.0, 9.0, size=(64, 40)).astype(np.float32)
    gelu_bias = rng.normal(size=40).astype(np.float32)
    add(
        "lut_gelu_bias",
        "fp32",
        native.lut_gelu_bias(gelu_op, g.copy(), gelu_bias),
        NUMPY_KERNEL.lut_gelu_bias(gelu_op, g.copy(), gelu_bias),
    )

    softmax_op = LutSoftmax(
        registry.lut("exp", num_entries=16),
        registry.lut("reciprocal", num_entries=16),
    )
    scores = rng.normal(scale=2.0, size=(2, 2, 12, 12)).astype(np.float32)
    add(
        "lut_softmax",
        "fp32",
        native.lut_softmax(softmax_op, scores.copy(), -1),
        NUMPY_KERNEL.lut_softmax(softmax_op, scores.copy(), -1),
    )

    # The LUT vector core's edges: rows that end in a masked partial vector
    # (37 is a multiple of neither 16 nor 8), masked (-1e4) scores, a table
    # one entry too big for the core (bucketed scalar loop) and a table with
    # a duplicated breakpoint (an empty segment).
    ragged = rng.uniform(-9.0, 9.0, size=(5, 37)).astype(np.float32)
    ragged_bias = rng.normal(size=37).astype(np.float32)
    add(
        "lut_gelu ragged",
        "fp32",
        native.lut_gelu_bias(gelu_op, ragged.copy(), ragged_bias),
        NUMPY_KERNEL.lut_gelu_bias(gelu_op, ragged.copy(), ragged_bias),
    )
    masked = rng.normal(scale=2.0, size=(2, 3, 5, 37)).astype(np.float32)
    masked[..., 29:] = -1e4
    add(
        "softmax ragged",
        "fp32",
        native.lut_softmax(softmax_op, masked, -1),
        NUMPY_KERNEL.lut_softmax(softmax_op, masked, -1),
    )
    for name, breakpoints in (
        ("lut_eval 17-entry", np.linspace(-6.0, 6.0, 16)),
        ("lut_eval dup-bp", np.repeat(np.linspace(-6.0, 6.0, 5), [1, 2, 1, 3, 1])),
    ):
        table = LookupTable(
            breakpoints,
            rng.normal(size=breakpoints.size + 1),
            rng.normal(size=breakpoints.size + 1),
        )
        probe = np.concatenate([ragged.ravel(), breakpoints.astype(np.float32)])
        add(
            name,
            "fp32",
            native.lut_eval(table, probe),
            NUMPY_KERNEL.lut_eval(table, probe),
        )

    layernorm_op = LutLayerNorm(
        registry.lut("rsqrt", num_entries=16), scaler=InputScaler()
    )
    hidden = rng.normal(size=(2, 9, 32)).astype(np.float32)
    gamma = rng.normal(1.0, 0.1, size=32).astype(np.float32)
    beta = rng.normal(0.0, 0.1, size=32).astype(np.float32)
    add(
        "lut_layernorm",
        "fp32",
        native.lut_layernorm(layernorm_op, hidden.copy(), gamma, beta),
        NUMPY_KERNEL.lut_layernorm(layernorm_op, hidden.copy(), gamma, beta),
    )

    residual = rng.normal(size=(96, 32)).astype(np.float32)
    pre = rng.normal(size=(96, 32)).astype(np.float32)
    add(
        "bias_residual",
        "fp32",
        native.bias_residual(pre.copy(), bias, residual),
        NUMPY_KERNEL.bias_residual(pre.copy(), bias, residual),
    )

    for precision in ("fp32", "int8"):
        requests = [rng.integers(0, 100, size=n) for n in (5, 11, 8)]
        served = {}
        for kernel in ("numpy", "native"):
            model = EncoderModel.initialize(
                tiny_test_config(
                    matmul_precision=precision,
                    compute_dtype="float32",
                    kernel=kernel,
                ),
                seed=3,
            )
            session = InferenceSession.from_model(
                model, spec=BackendSpec.nn_lut(), registry=registry
            )
            served[kernel] = (
                np.concatenate([o.ravel() for o in session.forward(requests)]),
                session.pooled(requests),
            )
        add("encoder_forward", precision, served["native"][0], served["numpy"][0])
        add("pooled", precision, served["native"][1], served["numpy"][1])
    return rows


def best_seconds(call, repeats: int) -> float:
    """Fastest of ``repeats`` timed calls; the first warms the caches."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        call()
        best = min(best, time.perf_counter() - start)
    return best


def gemm_int8_gops(native) -> dict:
    """GOP/s of the packed int8 GEMM alone: ``{"m x k x n": {tier: GOP/s}}``.

    One entry per encoder projection shape (hidden², hidden → intermediate,
    intermediate → hidden) and, within it, per micro-kernel tier the host can
    run — the tier in use first, then what each fallback would cost.
    """
    rng = np.random.default_rng(23)
    # 4 sequences x 96 tokens (the end-to-end benchmark's activation block)
    # through BERT-base's three projections.
    rows, hidden, inter = 384, 768, 3072
    out: dict = {}
    for k, n in ((hidden, hidden), (hidden, inter), (inter, hidden)):
        a_q = rng.integers(-127, 128, size=(rows, k), dtype=np.int8)
        packed = native.pack_weight_int8(
            rng.integers(-127, 128, size=(k, n), dtype=np.int8)
        )
        rates = out[f"{rows}x{k}x{n}"] = {}
        for tier in range(native.gemm_impl, 0, -1):
            best = best_seconds(lambda: native.gemm_int8(a_q, packed, tier=tier), 4)
            rates[GEMM_TIER_NAMES[tier]] = 2.0 * rows * k * n / 1e9 / best
    return out


def numpy_lut_timings(registry: LutRegistry) -> dict:
    """The numpy kernel's LUT operators: ``{"4xT": {op: (ms, ns/element)}}``.

    float32, BERT-base geometry, blocks of 4 sequences x 48 and x 128 tokens:
    the flat table look-up and bias+GELU on the FFN intermediate, softmax on
    the 12-head score tensor, LayerNorm on the hidden state.  Best of seven.
    """
    rng = np.random.default_rng(29)
    hidden, inter, heads = 768, 3072, 12
    table = registry.lut("gelu", num_entries=16)
    gelu_op = LutGelu(table)
    softmax_op = LutSoftmax(
        registry.lut("exp", num_entries=16),
        registry.lut("reciprocal", num_entries=16),
    )
    layernorm_op = LutLayerNorm(
        registry.lut("rsqrt", num_entries=16), scaler=InputScaler()
    )
    bias = rng.normal(size=inter).astype(np.float32)
    gamma = rng.normal(1.0, 0.1, size=hidden).astype(np.float32)
    beta = rng.normal(0.0, 0.1, size=hidden).astype(np.float32)

    def best_ms(call) -> float:
        return best_seconds(call, 7) * 1e3

    out: dict = {}
    for length in (48, 128):
        ffn = rng.normal(scale=2.0, size=(4, length, inter)).astype(np.float32)
        scores = rng.normal(scale=2.0, size=(4, heads, length, length)).astype(
            np.float32
        )
        state = rng.normal(size=(4, length, hidden)).astype(np.float32)
        timings = {
            "evaluate": (ffn.size, best_ms(lambda: table.evaluate(ffn))),
            # lut_gelu_bias clobbers its input: time it on a copy, less the copy
            "bias+gelu": (
                ffn.size,
                best_ms(lambda: NUMPY_KERNEL.lut_gelu_bias(gelu_op, ffn.copy(), bias))
                - best_ms(ffn.copy),
            ),
            "softmax": (
                scores.size,
                best_ms(lambda: NUMPY_KERNEL.lut_softmax(softmax_op, scores, -1)),
            ),
            "layernorm": (
                state.size,
                best_ms(
                    lambda: NUMPY_KERNEL.lut_layernorm(layernorm_op, state, gamma, beta)
                ),
            ),
        }
        out[f"4x{length}"] = {
            op: (ms, ms * 1e6 / size) for op, (size, ms) in timings.items()
        }
    return out


def fp32_projection_timings() -> tuple:
    """The float32 projection, per sequence vs row-stacked.

    ``({"4xT": {"k->n": ((ms, GFLOP/s), (ms, GFLOP/s))}}, bitwise)``: what
    ``np.matmul`` does with a ``(4, T, k)`` activation — four GEMMs of ``T``
    rows — against ``matmul_fp32``'s one GEMM of ``4 * T`` rows, for
    BERT-base's three weight shapes; best of seven.  ``bitwise`` says whether
    the two agreed to the last bit on every shape with this BLAS.
    """
    rng = np.random.default_rng(31)
    hidden, inter = 768, 3072
    out: dict = {}
    bitwise = True
    for length in (48, 128):
        cells = out[f"4x{length}"] = {}
        for k, n in ((hidden, hidden), (hidden, inter), (inter, hidden)):
            x = rng.normal(size=(4, length, k)).astype(np.float32)
            w = rng.normal(scale=k**-0.5, size=(k, n)).astype(np.float32)
            gflop = 2.0 * x.size * n / 1e9
            per_sequence = best_seconds(lambda: np.matmul(x, w), 7)
            stacked = best_seconds(
                lambda: NUMPY_KERNEL.matmul_fp32(x, w, np.float32), 7
            )
            bitwise = bitwise and np.array_equal(
                np.matmul(x, w), NUMPY_KERNEL.matmul_fp32(x, w, np.float32)
            )
            cells[f"{k}->{n}"] = tuple(
                (seconds * 1e3, gflop / seconds) for seconds in (per_sequence, stacked)
            )
    return out, bitwise


def main() -> int:
    loaded, seconds, fitted = fitted_tables()
    print(
        f"fitted tables: {', '.join(SERVED_PRIMITIVES)}: artifact sha256 {loaded}; "
        f"fresh fit in {seconds:.2f} s, sha256 {fitted}"
    )
    if loaded != fitted:
        print(
            "FAIL: the table artifact is not what the fit produces; regenerate it "
            "with `python -m repro.experiments fit-tables`"
        )
        return 1
    print(f"calibrated tables: {', '.join(SERVED_PRIMITIVES)}: sha256 {calibrated_tables()}")
    split_failed = False
    for engine, split, unsplit in split_forward_digests():
        print(f"split forward {engine}: split sha256 {split}, unsplit sha256 {unsplit}")
        split_failed = split_failed or split != unsplit
    if split_failed:
        print("FAIL: a split forward's outputs differ from the one-thread forward's")
        return 1
    batched, per_request = int8_batch_digests()
    print(
        f"int8 batch-invariant {int8_engine()}: batched sha256 {batched}, "
        f"per-request sha256 {per_request}"
    )
    if batched != per_request:
        print("FAIL: the int8 engine's batched outputs differ from per-request ones")
        return 1
    if not native_available():
        print(
            f"native kernel unavailable ({native_unavailable_reason()}); "
            "nothing to compare — the engine runs on the numpy kernel"
        )
        return 0
    layers, seconds, digest = prepared_int8_operands()
    print(
        f"prepared int8 operands: {layers} Linear layers, model build with "
        f"prepare in {seconds:.2f} s, sha256 {digest}"
    )
    cells = []
    for name, config in (("fp32", BENCHMARK_FP32_CONFIG), ("int8-native", BENCHMARK_INT8_CONFIG)):
        resident, masters, operands = resident_weights(config)
        cells.append(
            f"{name} masters {resident:.1f} of {masters:.1f} MB resident, "
            f"operands {operands:.1f} MB"
        )
    engine = BENCHMARK_INT8_CONFIG.compute_dtype
    print(f"resident weights after build ({engine} engine): {'; '.join(cells)}")
    registry = LutRegistry()
    rows = build_rows(registry)
    info = kernel_info()
    tier_label = f"int8 GEMM tier {info['gemm_impl']} = {info['gemm_tier']}"
    if info["gemm_tier_refused"]:
        tier_label += f"; {info['gemm_tier_refused']}"
    print(f"kernel parity: numpy vs native ({tier_label}; LUT tier {info['lut_tier']})")
    header = f"{'op/path':<24} {'precision':<9} {'max_abs_diff':>12}  parity"
    print(header)
    print("-" * len(header))
    failed = False
    for name, precision, diff, bitwise in rows:
        status = "bitwise" if bitwise else "MISMATCH"
        failed = failed or not bitwise
        print(f"{name:<24} {precision:<9} {diff:>12.3e}  {status}")
    if failed:
        print("FAIL: native kernel deviates from the numpy reference")
        return 1
    print("OK: every row bitwise-identical across kernels")
    for shape, tiers in gemm_int8_gops(get_kernel("native")).items():
        rates = ", ".join(f"{tier} {gops:.0f}" for tier, gops in tiers.items())
        print(f"gemm_int8 {shape:<14} GOP/s: {rates}")
    for shape, ops in numpy_lut_timings(registry).items():
        cells = ", ".join(
            f"{op} {ms:.2f} ms ({ns:.1f} ns/el)" for op, (ms, ns) in ops.items()
        )
        print(f"numpy LUT ops {shape:<6} fp32: {cells}")
    projections, bitwise = fp32_projection_timings()
    for shape, weights in projections.items():
        cells = ", ".join(
            f"{weight} {a_ms:.2f} -> {b_ms:.2f} ms ({a_rate:.0f} -> {b_rate:.0f} GFLOP/s)"
            for weight, ((a_ms, a_rate), (b_ms, b_rate)) in weights.items()
        )
        print(f"fp32 projection {shape:<6} per-sequence -> row-stacked: {cells}")
    print(
        "fp32 projection: row-stacked and per-sequence results "
        + ("bitwise-equal" if bitwise else "differ in the last bits")
        + " on these shapes with this BLAS (information; float64 never stacks)"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
