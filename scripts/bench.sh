#!/usr/bin/env bash
# Regenerate BENCH_engine.json: the full BERT-base-shaped inference-engine
# benchmark (seed path vs vectorized fast path, plus the concurrent/sharded
# serving rows and the IPC transport microbenchmark), and run the speed
# gates.
#
#   ./scripts/bench.sh            # regenerate BENCH_engine.json + run gates
#   ./scripts/bench.sh --cli      # CLI-only regeneration (no pytest)
#   ./scripts/bench.sh --ipc      # pickle-vs-shm-ring IPC microbenchmark only
#   ./scripts/bench.sh --kernels  # per-op ComputeKernel microbenchmarks only
set -euo pipefail
cd "$(dirname "$0")/.."
export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

if [[ "${1:-}" == "--cli" ]]; then
    exec python benchmarks/regression.py --mode full
fi

if [[ "${1:-}" == "--ipc" ]]; then
    exec python benchmarks/regression.py --ipc
fi

if [[ "${1:-}" == "--kernels" ]]; then
    exec python benchmarks/regression.py --kernels
fi

BENCH_ENGINE_FULL=1 python -m pytest benchmarks/ -q -s --benchmark-disable

# Emit the serving rows of the refreshed report for quick inspection.
python - <<'PY'
import json

report = json.load(open("BENCH_engine.json"))
for name in (
    "session_ragged_fp32",
    "server_concurrent_fp32",
    "server_sharded_fp32",
    "server_sharded_shm_fp32",
):
    row = report["end_to_end"][name]
    extra = ""
    if "queue" in row:
        queue = row["queue"]
        kind = "worker processes" if "cpu_count" in row else "replicas"
        extra = (
            f", {row['num_replicas']} {kind}, mean batch "
            f"{queue['mean_batch_size']:.1f}, p50 {queue['p50_latency_ms']:.0f} ms"
            f" / p99 {queue['p99_latency_ms']:.0f} ms"
            f", mean service {queue['mean_service_ms']:.0f} ms"
        )
        if "transport" in row:
            extra += f", transport={row['transport']}"
        if "cpu_count" in row:
            extra += f", {row['cpu_count']} cores"
    print(
        f"{name}: {row['speedup']:.2f}x "
        f"({row['tokens_per_s_seed']:.0f} -> {row['tokens_per_s_fast']:.0f} tokens/s"
        f"{extra})"
    )
trace_row = report["end_to_end"]["server_sharded_leastloaded_fp32"]
latency = trace_row["latency"]
print(
    f"server_sharded_leastloaded_fp32: trace replay, router={trace_row['router']}, "
    f"burst p99 {latency['burst']['p99_ms']:.0f} ms vs steady p99 "
    f"{latency['steady']['p99_ms']:.0f} ms, "
    f"{trace_row['queue']['stolen']} batches stolen, "
    f"{latency['failed']} failed"
)
chaos = report["end_to_end"]["server_sharded_chaos_fp32"]
print(
    f"server_sharded_chaos_fp32: worker crash at batch "
    f"{chaos['fault_plan']['worker_crash_at']}, goodput ratio "
    f"{chaos['goodput_ratio']:.2f} "
    f"({chaos['clean']['goodput_rps']:.0f} -> "
    f"{chaos['chaos']['goodput_rps']:.0f} req/s), "
    f"p99 {chaos['p99_degradation_x']:.2f}x, "
    f"{chaos['chaos']['retry_attempts']} retries, "
    f"{chaos['chaos']['replicas_retired']} retired, "
    f"{chaos['chaos']['failed']} lost, "
    f"float64 bitwise equal: {chaos['cached_float64_bitwise_equal']}"
)
ipc = report["ipc"]
print(
    f"ipc transport: pipe {1e6 * ipc['pipe_per_request_s']:.0f} us/req vs "
    f"shm ring {1e6 * ipc['shm_ring_per_request_s']:.0f} us/req -> "
    f"{ipc['overhead_ratio']:.2f}x lower overhead"
)
kernels = report["kernels"]
if kernels["native_available"]:
    print(f"kernel int8 GEMM tier: {kernels['gemm_tier']}")
    for shape, tiers in kernels["ops"]["gemm_int8"]["gops"].items():
        rates = ", ".join(f"{tier} {gops:.0f}" for tier, gops in tiers.items())
        print(f"kernel gemm_int8 {shape} GOP/s: {rates}")
    for name in ("gemm_int8", "lut_gelu_bias", "encoder_forward_int8"):
        row = kernels["ops"][name]
        print(
            f"kernel {name}: numpy {1e3 * row['numpy_s']:.2f} ms vs "
            f"native {1e3 * row['native_s']:.2f} ms -> {row['speedup']:.2f}x"
        )
else:
    print(f"kernels: native unavailable ({kernels['native_unavailable_reason']})")
PY
