"""End-to-end inference-engine benchmark and regression gate.

Unlike the table/figure benchmarks in this directory, this module is wired
into the tier-1 test run (see ``conftest.py``): every plain ``pytest``
invocation executes it in *smoke* mode — tiny shapes, single repeats, no
report file — so the benchmark harness itself can never silently rot.

Set ``BENCH_ENGINE_FULL=1`` (or run ``scripts/bench.sh``) to run the full
BERT-base-shaped benchmark and regenerate ``BENCH_engine.json``.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import regression  # noqa: E402  (benchmarks/ is not a package)

FULL_MODE = os.environ.get("BENCH_ENGINE_FULL", "") == "1"
MODE = "full" if FULL_MODE else "smoke"


@pytest.fixture(scope="module")
def engine_registry():
    """Fitted primitives shared by every engine benchmark in this module."""
    return regression.LutRegistry(training_config=regression.BENCH_TRAINING_CONFIG)


@pytest.fixture(scope="module")
def engine_report(engine_registry):
    report = regression.run_engine_benchmark(mode=MODE, registry=engine_registry)
    if FULL_MODE:
        path = regression.write_report(report)
        print(f"\nwrote {path}")
    return report


def test_report_schema(engine_report):
    """The BENCH_engine.json payload carries every documented section."""
    assert engine_report["schema_version"] == regression.SCHEMA_VERSION
    assert engine_report["mode"] == MODE
    assert set(engine_report["ops"]) == {
        "lut_gelu_eval",
        "lut_softmax",
        "lut_layernorm",
        "linear_fp32",
        "linear_int8",
    }
    assert set(engine_report["end_to_end"]) == {
        "encoder_forward_fp32",
        "encoder_forward_int8",
        "session_ragged_fp32",
        "server_concurrent_fp32",
        "server_sharded_fp32",
        "server_sharded_shm_fp32",
        "server_sharded_leastloaded_fp32",
        "server_sharded_chaos_fp32",
    }
    for row in engine_report["ops"].values():
        assert row["seed_s"] > 0 and row["fast_s"] > 0 and row["speedup"] > 0
    kernels = engine_report["kernels"]
    assert set(kernels["ops"]) == {
        "gemm_int8",
        "gemm_fp32",
        "quantize_pack",
        "lut_gelu_bias",
        "lut_layernorm",
        "bias_residual",
        "encoder_forward_int8",
    }
    assert isinstance(kernels["native_available"], bool)
    for name, row in kernels["ops"].items():
        assert row["numpy_s"] > 0, name
        if kernels["native_available"]:
            assert row["native_s"] > 0 and row["speedup"] > 0, name
        else:
            assert "native_s" not in row, name
    if kernels["native_available"]:
        # Per-kernel int8 encoder forwards must agree bit for bit.
        assert kernels["ops"]["encoder_forward_int8"]["bitwise_equal_vs_numpy"]
        # The packed GEMM alone: three projection shapes, GOP/s per tier,
        # the tier in use first.
        gops = kernels["ops"]["gemm_int8"]["gops"]
        assert len(gops) == 3
        for tiers in gops.values():
            assert next(iter(tiers)) == kernels["gemm_tier"]
            assert all(rate > 0 for rate in tiers.values())
    else:
        assert kernels["native_unavailable_reason"]
    for name, row in engine_report["end_to_end"].items():
        if name == "server_sharded_chaos_fp32":
            # The chaos row compares two replays of the same queue setup,
            # so its rate is goodput (completed req/s), not a seed-vs-fast
            # tokens/s pair.
            assert row["clean"]["goodput_rps"] > 0
            assert row["chaos"]["goodput_rps"] > 0
            continue
        assert row["tokens_per_s_fast"] > 0 and row["tokens_per_s_seed"] > 0
    ipc = engine_report["ipc"]
    assert ipc["pipe_per_request_s"] > 0 and ipc["shm_ring_per_request_s"] > 0
    assert ipc["overhead_ratio"] > 0 and ipc["shm_ring_hot_path_hits"] >= 1


def test_cached_engine_is_bit_compatible(engine_report):
    """The cached float64 engine reproduces the seed path bit for bit."""
    for name, row in engine_report["end_to_end"].items():
        assert row["cached_float64_bitwise_equal"], name


def test_fused_lut_fp32_within_tolerance(engine_report):
    """Acceptance gate: fused fp32 kernels match the seed LUT path to 1e-6."""
    for name, diff in engine_report["equivalence"]["fused_lut_fp32_max_abs_diff"].items():
        assert diff < 1e-6, f"{name}: fused fp32 deviates by {diff}"


@pytest.mark.skipif(not FULL_MODE, reason="speed gates only meaningful at full shapes")
def test_full_mode_speedups(engine_report):
    """Full-shape run: the engine must beat the seed path end to end."""
    end_to_end = engine_report["end_to_end"]
    assert end_to_end["encoder_forward_int8"]["speedup"] >= 3.0
    assert end_to_end["encoder_forward_fp32"]["speedup"] >= 1.25
    # Acceptance gate: pooled concurrent serving vs one-forward-per-request.
    # Observed 1.4-1.8x across runs on the shared single-core reference
    # machine; gate at the low edge so ambient CPU contention cannot flake
    # the build while a real regression (coalescing loss -> ~1.0x) still
    # trips it.
    assert end_to_end["server_concurrent_fp32"]["speedup"] >= 1.3
    # Sharded serving's multi-core win needs real cores; on a single-core
    # machine the gate only bounds the IPC overhead the process boundary adds
    # (batch density still offsets most of it).  The shm-ring row carries the
    # same floor — it must never serve *worse* than the pickle pipe setup.
    for name in ("server_sharded_fp32", "server_sharded_shm_fp32"):
        sharded = end_to_end[name]
        sharded_floor = 1.2 if (sharded["cpu_count"] or 1) >= 2 else 0.5
        assert sharded["speedup"] >= sharded_floor, (name, sharded)
    # Acceptance gate: the shm ring must cut per-request transport overhead
    # at least in half vs pickle-over-pipe at the serving workload's shapes.
    assert engine_report["ipc"]["overhead_ratio"] >= 2.0, engine_report["ipc"]
    for name, row in engine_report["ops"].items():
        assert row["speedup"] >= 1.0, f"op {name} regressed: {row}"
    # Acceptance gates for the compiled kernel seam (only meaningful when the
    # native kernel compiled; a machine without a C compiler skips them).
    kernels = engine_report["kernels"]
    if kernels["native_available"]:
        ops = kernels["ops"]
        # True int8 GEMM (int32 accumulation) vs the float64-carrier path.
        assert ops["gemm_int8"]["speedup"] >= 2.0, ops["gemm_int8"]
        # Fused bias+LUT-GELU epilogue vs the unfused numpy sequence.
        assert ops["lut_gelu_bias"]["speedup"] >= 1.3, ops["lut_gelu_bias"]


@pytest.mark.benchmark(group="engine")
def test_fused_lut_kernel_throughput(benchmark, engine_registry):
    """Fused float32 GELU-table kernel over a large tensor."""
    lut = engine_registry.lut("gelu", num_entries=16)
    size = 1_000_000 if FULL_MODE else 10_000
    x = np.random.default_rng(0).uniform(-5, 5, size=size).astype(np.float32)
    out = np.empty_like(x)
    result = benchmark(lut.evaluate, x, out=out)
    assert result.shape == x.shape


@pytest.mark.benchmark(group="engine")
def test_engine_forward_throughput(benchmark, engine_registry):
    """Fast-path encoder forward at the mode's benchmark shape."""
    shapes = regression.FULL_SHAPES if FULL_MODE else regression.SMOKE_SHAPES
    model = regression.build_engine(shapes, "fp32", compute_dtype="float32")
    backend = regression.build_fast_backend(engine_registry)
    tokens = np.random.default_rng(1).integers(
        0, shapes.vocab_size, size=(shapes.batch_size, shapes.sequence_length)
    )
    hidden = benchmark(model.forward, tokens, backend=backend)
    assert hidden.shape == (shapes.batch_size, shapes.sequence_length, shapes.hidden_size)


def test_session_ragged_row(engine_report):
    """The serving row: micro-batched session reproduces per-call outputs."""
    row = engine_report["end_to_end"]["session_ragged_fp32"]
    assert row["num_requests"] >= 1 and row["total_tokens"] > 0
    assert row["cached_float64_bitwise_equal"]


def test_server_concurrent_row(engine_report):
    """The concurrent-serving row: pooled serving matches single-session.

    Runs in tier-1 smoke mode too, so the SessionPool + ServingQueue path
    (2 replicas, mixed-length traffic, concurrent clients) cannot rot.
    """
    row = engine_report["end_to_end"]["server_concurrent_fp32"]
    assert row["num_replicas"] >= 2 and row["num_clients"] >= 1
    assert row["num_requests"] >= 1 and row["total_tokens"] > 0
    assert row["cached_float64_bitwise_equal"]
    queue = row["queue"]
    assert queue["completed"] >= row["num_requests"]
    assert queue["rejected"] == 0 and queue["expired"] == 0
    assert queue["mean_batch_size"] >= 1.0
    assert 0.0 < queue["p50_latency_ms"] <= queue["p99_latency_ms"]


def test_server_sharded_row(engine_report):
    """The sharded-serving row: worker processes match single-session serving.

    Runs in tier-1 smoke mode too, so the ShardedPool path — spawned worker
    processes reconstructing replicas from the serializable spec over
    shared-memory weights — cannot silently rot.
    """
    row = engine_report["end_to_end"]["server_sharded_fp32"]
    assert row["transport"] == "pipe"
    assert row["num_replicas"] >= 2 and row["num_clients"] >= 1
    assert row["num_requests"] >= 1 and row["total_tokens"] > 0
    assert row["cpu_count"] >= 1
    assert row["cached_float64_bitwise_equal"]
    queue = row["queue"]
    assert queue["completed"] >= row["num_requests"]
    assert queue["rejected"] == 0 and queue["expired"] == 0
    assert queue["mean_batch_size"] >= 1.0
    assert 0.0 < queue["p50_latency_ms"] <= queue["p99_latency_ms"]


def test_server_sharded_shm_row(engine_report):
    """The shm-ring sharded row: zero-copy IPC matches single-session serving.

    Runs in tier-1 smoke mode too, so the ShmRingTransport path — packed
    token batches through the request ring, hidden-state rows written into
    the response ring — cannot silently rot, and stays bitwise-equal to
    single-session serving.
    """
    row = engine_report["end_to_end"]["server_sharded_shm_fp32"]
    assert row["transport"] == "shm_ring"
    assert row["num_replicas"] >= 2 and row["num_clients"] >= 1
    assert row["num_requests"] >= 1 and row["total_tokens"] > 0
    assert row["cpu_count"] >= 1
    assert row["cached_float64_bitwise_equal"]
    queue = row["queue"]
    assert queue["completed"] >= row["num_requests"]
    assert queue["rejected"] == 0 and queue["expired"] == 0
    assert queue["mean_batch_size"] >= 1.0
    assert 0.0 < queue["p50_latency_ms"] <= queue["p99_latency_ms"]
    assert queue["mean_service_ms"] > 0.0 and queue["mean_queue_wait_ms"] >= 0.0


def test_server_trace_leastloaded_row(engine_report):
    """The trace-replay row: least-loaded routing under a seeded burst.

    Runs in tier-1 smoke mode too, so the trace generator, the replay
    harness and the ``router="least_loaded"`` scheduling path (work
    stealing included) cannot rot.  Every replayed request must complete —
    a lost or double-served future would show up as a failed outcome or a
    completion-count mismatch — and least-loaded placement must stay
    bitwise-equal to per-call serving under float64.
    """
    row = engine_report["end_to_end"]["server_sharded_leastloaded_fp32"]
    assert row["router"] == "least_loaded"
    assert row["num_replicas"] >= 2 and row["num_requests"] >= 1
    assert row["total_tokens"] > 0 and row["cpu_count"] >= 1
    assert row["cached_float64_bitwise_equal"]
    trace = row["trace"]
    assert trace["num_requests"] == row["num_requests"]
    assert len(trace["burst_windows_s"]) == trace["num_bursts"]
    latency = row["latency"]
    assert latency["failed"] == 0
    assert latency["all"]["count"] == row["num_requests"]
    assert latency["burst"]["count"] + latency["steady"]["count"] == row["num_requests"]
    assert latency["all"]["p50_ms"] > 0.0
    queue = row["queue"]
    assert queue["completed"] >= row["num_requests"]
    assert queue["rejected"] == 0 and queue["expired"] == 0
    assert queue["stolen"] >= 0


def test_server_chaos_row(engine_report):
    """The chaos row: a worker crash mid-trace must not lose a request.

    Runs in tier-1 smoke mode too, so the fault injector, the retrying
    queue and the fleet's dead-replica retirement path cannot rot.  The
    plan hard-kills worker 0 on its first served batch, so the chaos
    replay is guaranteed to exercise a retry and a retirement — yet every
    future must still resolve (goodput degrades; correctness does not),
    and the float64 twin proves the retried responses stay bitwise-equal
    to per-call serving.
    """
    row = engine_report["end_to_end"]["server_sharded_chaos_fp32"]
    assert row["router"] == "least_loaded"
    assert row["num_replicas"] >= 2 and row["num_requests"] >= 1
    assert row["fault_plan"]["worker_crash_at"] == 1
    assert row["retry"]["max_attempts"] >= 2
    clean, chaos = row["clean"], row["chaos"]
    # Fault-free pass: nothing retries, nothing dies.
    assert clean["failed"] == 0
    assert clean["retry_attempts"] == 0 and clean["replicas_retired"] == 0
    assert clean["completed"] == row["num_requests"]
    # Chaos pass: the crash fires (a retirement and at least one retried
    # batch) but zero futures are lost.
    assert chaos["failed"] == 0
    assert chaos["completed"] == row["num_requests"]
    assert chaos["retry_attempts"] >= 1
    assert chaos["replicas_retired"] >= 1
    assert row["goodput_ratio"] > 0
    assert row["p99_degradation_x"] >= 0
    # Retry idempotency: re-dispatched float64 batches are bitwise-equal
    # to per-call serving.
    assert row["chaos64_failed"] == 0
    assert row["cached_float64_bitwise_equal"]


@pytest.mark.benchmark(group="engine")
def test_session_ragged_throughput(benchmark, engine_registry):
    """InferenceSession serving a ragged request list at the mode's shape."""
    shapes = regression.FULL_SHAPES if FULL_MODE else regression.SMOKE_SHAPES
    model = regression.build_engine(shapes, "fp32", compute_dtype="float32")
    session = regression.InferenceSession.from_model(
        model,
        spec=regression.BackendSpec.nn_lut(),
        registry=engine_registry,
        max_batch_size=shapes.batch_size * 4,
    )
    rng = np.random.default_rng(2)
    lengths = regression.ragged_request_lengths(shapes, num_requests=8)
    requests = [rng.integers(0, shapes.vocab_size, size=length) for length in lengths]
    outputs = benchmark(session.forward, requests)
    assert [o.shape[0] for o in outputs] == lengths
