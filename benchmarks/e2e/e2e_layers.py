"""The traced run: per-layer metrics, timed from outside each layer.

Separate from the timed run, so end-to-end numbers never carry tracing cost.
Spans are recorded here, around calls into each layer's public functions;
spans *inside* the program are a later change (ROADMAP item 2).  A metric that
does not apply to a workload (transport on an in-process pool, queue waits on
an offline loop) reads 0.
"""

from __future__ import annotations

import statistics
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

import e2e_loadgen as loadgen
import e2e_measure as measure
import e2e_workloads as workloads
from e2e_workloads import RATE_SHARE, RunResult, Scale, System, Workload
from repro.api import RequestBatcher, ShardedPool
from repro.core.kernels import resolve_kernel
from repro.core.lut import lut_evaluation_stats
from repro.core.registry import LutRegistry
from repro.quant import quantize

#: the traced offline stage sum must come this close to the untraced forward.
STAGE_SUM_TOLERANCE = 0.10


# --------------------------------------------------------------------------- #
# core.kernels / core.lut / transformer: ops at the workload's batch shape
# --------------------------------------------------------------------------- #
def kernel_metrics(
    system: System, scale: Scale, rows: int, length: int, mean_length: float
) -> Dict[str, float]:
    """Time each compute-kernel op at ``rows x length`` and price one forward.

    Shares are op time x calls per forward over ``EncoderModel.forward`` at
    the same shape.  FLOP and byte figures are computed from tensor sizes,
    not measured.
    """
    session = system.direct
    model = session.model
    config = model.config
    backend = session.backend
    kernel = resolve_kernel(config.kernel)
    dtype = np.dtype(config.compute_dtype)
    hidden, inter, heads = config.hidden_size, config.intermediate_size, config.num_heads
    layers = model.encoder.num_layers
    rng = np.random.default_rng(0)

    def tensor(*shape: int) -> np.ndarray:
        return rng.standard_normal(shape).astype(dtype)

    def timed(fn) -> float:
        return measure.time_call(fn, scale.micro_seconds)

    x_hidden = tensor(rows, length, hidden)
    x_inter = tensor(rows, length, inter)
    scores = tensor(rows, heads, length, length)
    heads_t = tensor(rows, heads, length, hidden // heads)
    layer = model.encoder.layers[0]
    gamma, beta = layer.output_norm.cast(dtype)
    ffn_bias = layer.ffn_in.bias.astype(dtype)
    out_bias = layer.ffn_out.bias.astype(dtype)

    def linear_ms(linear, x: np.ndarray, int8: bool) -> float:
        """One projection through the kernel seam, fp32 or int8 operands."""
        if int8:
            q = quantize(linear.weight, num_bits=8)
            operand = kernel.pack_weight_int8(q.data)
            return timed(lambda: kernel.linear_int8(x, operand, q.scale, dtype))
        operand = linear.weight.astype(dtype)
        return timed(lambda: kernel.matmul_fp32(x, operand, dtype))

    int8 = config.matmul_precision == "int8"
    proj_ms = linear_ms(layer.attention.query, x_hidden, int8)
    ffn_in_ms = linear_ms(layer.ffn_in, x_hidden, int8)
    ffn_out_ms = linear_ms(layer.ffn_out, x_inter, int8)
    attn_ms = timed(lambda: np.matmul(heads_t, heads_t.transpose(0, 1, 3, 2))) + timed(
        lambda: np.matmul(scores, heads_t)
    )
    gemm_ms = layers * (4 * proj_ms + ffn_in_ms + ffn_out_ms + attn_ms)

    # The fused epilogues may clobber their input; a fresh copy per call is
    # what the engine hands them (a new matmul output), so the copy is timed
    # too and then subtracted.
    copy_inter_ms = timed(lambda: x_inter.copy())
    copy_hidden_ms = timed(lambda: x_hidden.copy())
    gelu_ms = max(
        0.0,
        timed(lambda: kernel.lut_gelu_bias(backend.gelu, x_inter.copy(), ffn_bias))
        - copy_inter_ms,
    )
    softmax_ms = timed(lambda: kernel.lut_softmax(backend.softmax, scores, -1))
    layernorm_ms = timed(
        lambda: kernel.lut_layernorm(backend.layernorm, x_hidden, gamma, beta)
    )
    residual_ms = max(
        0.0,
        timed(lambda: kernel.bias_residual(x_hidden.copy(), out_bias, x_hidden))
        - copy_hidden_ms,
    )
    nonlinear_ms = layers * (gelu_ms + softmax_ms + 2 * layernorm_ms) + layernorm_ms

    tokens = rng.integers(0, config.vocab_size, size=(rows, length), dtype=np.int64)
    forward_ms = timed(lambda: model.forward(tokens, backend=backend))
    single = rng.integers(0, config.vocab_size, size=(1, min(16, length)), dtype=np.int64)
    forward_b1_ms = timed(lambda: model.forward(single, backend=backend))

    flat = tensor(1_000_000)
    table = system.registry.lut("gelu", 16)
    lut_ms = timed(lambda: table.evaluate(flat))
    act_scale = kernel.quantize_scale(x_hidden)

    per_token_flop = layers * (2 * (4 * hidden * hidden + 2 * hidden * inter)
                               + 4 * mean_length * hidden)
    per_token_elems = layers * (heads * mean_length + inter + 2 * hidden) + hidden
    return {
        "core.lut.evaluate_ns_per_elem": lut_ms * 1e6 / flat.size,
        "core.kernels.matmul_fp32_ms": linear_ms(layer.ffn_in, x_hidden, False),
        "core.kernels.linear_int8_ms": linear_ms(layer.ffn_in, x_hidden, True),
        "core.kernels.quantize_pack_ms": timed(
            lambda: kernel.quantize_pack(x_hidden, act_scale)
        ),
        "core.kernels.lut_gelu_bias_ms": gelu_ms,
        "core.kernels.lut_softmax_ms": softmax_ms,
        "core.kernels.lut_layernorm_ms": layernorm_ms,
        "core.kernels.bias_residual_ms": residual_ms,
        "core.kernels.gemm_share": gemm_ms / forward_ms,
        "core.kernels.nonlinear_share": nonlinear_ms / forward_ms,
        "core.kernels.gemm_gflop_per_ktok": per_token_flop * 1000 / 1e9,
        "core.kernels.nonlinear_bytes_per_ktok": (
            per_token_elems * 2 * dtype.itemsize * 1000
        ),
        "transformer.forward_ms_per_ktok": forward_ms / (rows * length / 1000.0),
        "transformer.forward_ms_b1": forward_b1_ms,
    }


# --------------------------------------------------------------------------- #
# api.batching: planning and packing one request list
# --------------------------------------------------------------------------- #
def batching_metrics(
    system: System, scale: Scale, requests: Sequence[np.ndarray]
) -> Dict[str, float]:
    config = system.config
    batcher = RequestBatcher(config.max_batch_size, config.bucket_size)
    lengths = [r.size for r in requests]
    plan = batcher.plan(lengths, system.max_length)
    plan_ms = measure.time_call(
        lambda: batcher.plan(lengths, system.max_length), scale.micro_seconds
    )
    iterate_ms = measure.time_call(
        lambda: sum(
            1 for _ in batcher.iter_batches(requests, system.max_length, copy=False)
        ),
        scale.micro_seconds,
    )
    computed = sum(padded * len(indices) for padded, indices in plan)
    return {
        "api.batching.plan_us_per_req": 1000.0 * plan_ms / len(requests),
        "api.batching.pack_us_per_req": (
            1000.0 * max(0.0, iterate_ms - plan_ms) / len(requests)
        ),
        "api.batching.padding_efficiency": sum(lengths) / computed,
        "api.batching.rows_per_batch": len(requests) / len(plan),
        "api.batching.batches_per_kreq": 1000.0 * len(plan) / len(requests),
    }


def median_batch_shape(system: System, requests: Sequence[np.ndarray]) -> Tuple[int, int]:
    """``(rows, length)`` of the planned batch with the median token count."""
    batcher = RequestBatcher(system.config.max_batch_size, system.config.bucket_size)
    plan = batcher.plan([r.size for r in requests], system.max_length)
    shapes = sorted(((len(idx), padded) for padded, idx in plan), key=lambda s: s[0] * s[1])
    return shapes[len(shapes) // 2]


# --------------------------------------------------------------------------- #
# Offline: the session's forward, re-executed stepwise under spans
# --------------------------------------------------------------------------- #
def stepwise_forward(
    system: System, batcher: RequestBatcher, block: Sequence[np.ndarray],
    spans: measure.SpanRecorder, parent: int, block_id: int,
) -> Tuple[List[np.ndarray], float]:
    """What ``InferenceSession.forward`` does, one public call per stage.

    Returns the outputs and the seconds the stages (child spans) cover.
    """
    session = system.direct
    outputs: List[Optional[np.ndarray]] = [None] * len(block)
    covered = 0.0
    forward_span = spans.open("api.session.forward", parent, block_id)
    batches = batcher.iter_batches(block, system.max_length, copy=False)
    while True:
        span = spans.open("api.batching.iter_batches", forward_span, block_id)
        batch = next(batches, None)
        covered += spans.close(span)
        if batch is None:
            break
        span = spans.open("transformer.forward", forward_span, block_id)
        hidden = session.model.forward(
            batch.tokens, backend=session.backend, attention_mask=batch.mask
        )
        covered += spans.close(span)
        span = spans.open("api.session.trim", forward_span, block_id)
        for row, index in enumerate(batch.indices):
            outputs[index] = hidden[row, : batch.lengths[row]].copy()
        covered += spans.close(span)
    spans.close(forward_span)
    return outputs, covered  # type: ignore[return-value]


def trace_offline(
    system: System, scale: Scale, rng: np.random.Generator, seconds: float,
    spans: measure.SpanRecorder, probe: measure.MachineProbe,
) -> Tuple[Dict[str, float], List[Dict[str, object]], int, int, List[np.ndarray]]:
    """Alternate an untraced ``forward`` and the traced stepwise run per block."""
    config = system.config
    batcher = RequestBatcher(config.max_batch_size, config.bucket_size)
    untraced_ms: List[float] = []
    traced_ms: List[float] = []
    stage_ms: List[float] = []
    model_ms: List[float] = []
    failed = 0
    block: List[np.ndarray] = []
    evaluations = 0
    warm_until = time.perf_counter() + workloads.WARMUP_SHARE * seconds
    while time.perf_counter() < warm_until:
        system.direct.forward(workloads.offline_block(rng, system))
    deadline = time.perf_counter() + seconds
    while len(untraced_ms) < scale.windows or time.perf_counter() < deadline:
        block = workloads.offline_block(rng, system)
        block_id = len(untraced_ms)
        before = lut_evaluation_stats()["evaluations"]
        start = time.perf_counter()
        outputs = system.direct.forward(block)
        untraced_ms.append(1000.0 * (time.perf_counter() - start))
        evaluations += lut_evaluation_stats()["evaluations"] - before

        first_span = len(spans.spans)
        root = spans.open("block", None, block_id)
        traced, covered = stepwise_forward(system, batcher, block, spans, root, block_id)
        traced_ms.append(1000.0 * spans.close(root))
        stage_ms.append(1000.0 * covered)
        model_ms.append(1000.0 * sum(
            s["end"] - s["start"] for s in spans.spans[first_span:]
            if s["name"] == "transformer.forward"
        ))
        failed += sum(
            1 for a, b, tokens in zip(outputs, traced, block)
            if not workloads.well_formed(a, tokens, system.hidden_size)
            or not np.array_equal(a, b)
        )
        probe.sample()
    blocks = len(untraced_ms)
    ktok = sum(t.size for t in block) / 1000.0
    untraced = statistics.median(untraced_ms)
    traced_total = statistics.median(traced_ms)
    stage_sum = statistics.median(stage_ms)
    unattributed = abs(untraced - stage_sum) / untraced
    if unattributed > STAGE_SUM_TOLERANCE:
        raise RuntimeError(
            f"traced stages sum to {stage_sum:.1f} ms but the untraced forward "
            f"takes {untraced:.1f} ms: {unattributed:.1%} is unattributed"
        )
    metrics = {
        "api.session.forward_ms_per_ktok": untraced / ktok,
        "api.session.self_share": 1.0 - stage_sum / traced_total,
        "api.session.unattributed_share": unattributed,
        "transformer.forward_ms_per_ktok": statistics.median(model_ms) / ktok,
        "core.lut.evaluations_per_ktok": evaluations / (blocks * ktok),
        "trace.overhead_share": untraced / traced_total - 1.0,
    }
    phase = {
        "phase": "blocks", "loop": "closed, untraced and traced forward alternate",
        "sent": 2 * 16 * blocks, "succeeded": 2 * 16 * blocks - failed, "failed": failed,
    }
    return metrics, [phase], 2 * 16 * blocks, failed, block


# --------------------------------------------------------------------------- #
# Serving: root spans per request, the queue's own statistics per phase
# --------------------------------------------------------------------------- #
def scheduling_metrics(rate, flood, replicas: int) -> Dict[str, float]:
    """The queue's own ``stats()`` per phase (taken after ``reset_stats()``)."""
    stats = rate.stats
    busy_s = stats.completed * stats.mean_service_ms / max(stats.mean_batch_size, 1.0) / 1000.0
    served = [replica.completed for replica in flood.stats.replicas]
    metrics = {
        "api.scheduling.queue_wait_mean_ms.rate": stats.mean_queue_wait_ms,
        "api.scheduling.queue_wait_p50_ms.rate": stats.p50_queue_wait_ms,
        "api.scheduling.service_mean_ms.rate": stats.mean_service_ms,
        # Busy share of the replicas, from request-weighted batch service time.
        "api.scheduling.utilisation.rate": busy_s / (replicas * rate.seconds),
        "api.scheduling.batch_size_mean.rate": stats.mean_batch_size,
        "api.scheduling.batch_size_mean.flood": flood.stats.mean_batch_size,
        "api.scheduling.queue_depth_max.flood": float(flood.stats.max_queue_depth_seen),
        "api.scheduling.replica_imbalance": (
            (max(served) - min(served)) / statistics.mean(served) if sum(served) else 0.0
        ),
    }
    for counter in ("rejected", "expired", "failed", "retry_attempts"):
        metrics[f"api.scheduling.{counter}"] = float(
            getattr(rate.stats, counter) + getattr(flood.stats, counter)
        )
    return metrics


def record_request_spans(
    spans: measure.SpanRecorder, outcomes: Sequence[loadgen.Outcome], first_id: int
) -> None:
    for offset, outcome in enumerate(outcomes):
        if outcome.error is not None:
            continue
        root = spans.add("request", outcome.due, outcome.done, None, first_id + offset)
        spans.add("api.server.submit", outcome.sent, outcome.sent + outcome.submit_s,
                  root, first_id + offset)


def paired_overhead_ms(slow, fast, pairs: int) -> float:
    """Median of ``slow()`` minus median of ``fast()``, calls interleaved."""
    slow(), fast()
    samples: Tuple[List[float], List[float]] = ([], [])
    for _ in range(pairs):
        for bucket, call in zip(samples, (slow, fast)):
            start = time.perf_counter()
            call()
            bucket.append(1000.0 * (time.perf_counter() - start))
    return statistics.median(samples[0]) - statistics.median(samples[1])


def idle_overhead_ms(system: System, rng: np.random.Generator, pairs: int) -> float:
    """One 16-token request through the queue minus the same request direct."""
    tokens = loadgen.make_requests(rng, [min(16, system.max_length)], system.vocab_size)[0]
    return paired_overhead_ms(
        lambda: system.serve_one(tokens), lambda: system.direct.forward([tokens]), pairs
    )


def trace_serving(
    system: System, scale: Scale, rng: np.random.Generator, seconds: float,
    spans: measure.SpanRecorder, probe: measure.MachineProbe,
) -> Tuple[Dict[str, float], List[Dict[str, object]], int, int, List[np.ndarray]]:
    metrics: Dict[str, float] = {}
    rate = workloads.run_rate_phase(system, rng, RATE_SHARE * seconds)
    record_request_spans(spans, rate.outcomes, 0)
    flood = workloads.run_flood_phase(
        system, rng, (1 - RATE_SHARE) * seconds, scale, probe
    )
    # Counted in this process only: shard workers keep their own counters.
    metrics["core.lut.evaluations_per_ktok"] = (
        rate.lut_evaluations + flood.lut_evaluations
    ) / ((rate.tokens + flood.tokens) / 1000.0)
    # Built after the phase from timestamps the untraced run takes too, so
    # tracing costs these workloads nothing: trace.overhead_share stays 0.
    record_request_spans(spans, flood.outcomes, rate.sent)

    metrics.update(scheduling_metrics(rate, flood, system.workload.replicas))
    metrics["api.batching.rows_per_batch"] = flood.stats.mean_batch_size
    metrics["api.batching.batches_per_kreq"] = (
        1000.0 * flood.stats.batches / max(flood.stats.completed, 1)
    )

    ok = [o for o in rate.outcomes if o.error is None]
    latencies = rate.latencies_ms
    metrics["api.server.submit_us"] = 1e6 * statistics.mean(o.submit_s for o in ok)
    metrics["api.server.overhead_ms"] = (
        statistics.mean(latencies)
        - rate.stats.mean_queue_wait_ms - rate.stats.mean_service_ms
    )
    metrics["api.server.generator_lateness_p99_ms"] = float(
        np.percentile([1000.0 * (o.sent - o.due) for o in ok], 99)
    )
    for percentile in (50, 90):
        metrics[f"api.server.latency_p{percentile}_ms"] = measure.window_median(
            latencies, scale.windows, percentile
        )
    metrics["api.server.latency_p99_ms"] = float(np.percentile(latencies, 99))
    metrics["api.server.idle_overhead_ms"] = idle_overhead_ms(
        system, rng, 4 * scale.probes
    )

    cpu_workers = rate.cpu["workers"] + flood.cpu["workers"]
    cpu_total = cpu_workers + rate.cpu["main"] + flood.cpu["main"]
    metrics["api.sharding.worker_cpu_share"] = cpu_workers / cpu_total
    metrics["api.sharding.worker_rss_mb"] = measure.tree_memory_mb("VmRSS")["workers"]
    if isinstance(system.pool, ShardedPool):
        metrics["api.sharding.shared_weight_mb"] = system.pool.shared_weight_bytes / 1e6
        for counter in ("ring_requests", "pipe_requests", "integrity_failures"):
            metrics[f"api.transport.{counter}"] = float(
                sum(client.transport.stats[counter] for client in system.pool.sessions)
            )
    phases = [rate.summary(), flood.summary()]
    return (
        metrics, phases, rate.sent + flood.sent, rate.failed + flood.failed,
        list(flood.last_unit),
    )


def transport_overhead_ms(
    system: System, batch: Sequence[np.ndarray], transport: str
) -> float:
    """A one-replica ``ShardedPool.forward`` minus the local session's forward.

    ``batch`` holds equal-length requests, so it is one micro-batch and
    crosses the process boundary once each way; the difference to serving it
    in-process is what that transport costs per call.
    """
    with ShardedPool(
        system.config, system.spec, system.registry, num_replicas=1, transport=transport
    ) as pool:
        return paired_overhead_ms(
            lambda: pool.forward(batch), lambda: pool.template.forward(batch), 20
        )


# --------------------------------------------------------------------------- #
# The traced run
# --------------------------------------------------------------------------- #
#: per-layer metrics that read 0 where the layer takes no part in a workload.
NOT_APPLICABLE = (
    "api.sharding.spawn_ready_s",
    "api.session.forward_ms_per_ktok", "api.session.self_share",
    "api.session.unattributed_share", "core.lut.evaluations_per_ktok",
    "api.scheduling.queue_wait_mean_ms.rate", "api.scheduling.queue_wait_p50_ms.rate",
    "api.scheduling.service_mean_ms.rate", "api.scheduling.utilisation.rate",
    "api.scheduling.batch_size_mean.rate", "api.scheduling.batch_size_mean.flood",
    "api.scheduling.queue_depth_max.flood", "api.scheduling.replica_imbalance",
    "api.scheduling.rejected", "api.scheduling.expired", "api.scheduling.failed",
    "api.scheduling.retry_attempts",
    "api.server.submit_us", "api.server.overhead_ms", "api.server.idle_overhead_ms",
    "api.server.generator_lateness_p99_ms", "api.server.latency_p50_ms",
    "api.server.latency_p90_ms",
    "api.server.latency_p99_ms",
    "api.transport.shm_ring_overhead_ms", "api.transport.pipe_overhead_ms",
    "api.transport.ring_requests", "api.transport.pipe_requests",
    "api.transport.integrity_failures",
    "api.sharding.shared_weight_mb", "api.sharding.worker_rss_mb",
    "api.sharding.worker_cpu_share",
    "trace.overhead_share",
)


def run_traced(
    workload: Workload,
    scale: Scale,
    seed: int,
    seconds: float,
    out_dir: Path,
    registry: Optional[LutRegistry] = None,
) -> RunResult:
    """Per-layer metrics of one workload; writes ``out_dir/<name>.trace.json``."""
    spans = measure.SpanRecorder()
    probe = measure.MachineProbe()
    metrics: Dict[str, float] = dict.fromkeys(NOT_APPLICABLE, 0.0)
    stages: Dict[str, float] = {}
    system = System(workload, scale, registry, stages)
    try:
        workloads.verified_first_response(system, np.random.default_rng([seed, 0]))
        metrics.update(stages)
        rng = np.random.default_rng([seed, 1])
        trace = trace_offline if workload.offline else trace_serving
        traced, phases, attempted, failed, sample = trace(
            system, scale, rng, seconds, spans, probe
        )
        batching = batching_metrics(system, scale, sample)
        if workload.offline:
            rows, length = median_batch_shape(system, sample)
        else:
            # The queue forms its own batches; price the kernels at the batch
            # size it reports and the length that carries the median token.
            rows = max(1, round(traced["api.scheduling.batch_size_mean.flood"]))
            by_tokens = np.sort(np.repeat([t.size for t in sample], [t.size for t in sample]))
            length = int(by_tokens[by_tokens.size // 2])
        mean_length = float(
            sum(t.size**2 for t in sample) / sum(t.size for t in sample)
        )
        kernels = kernel_metrics(system, scale, rows, length, mean_length)
        metrics.update(batching)
        metrics.update(kernels)
        metrics.update(traced)
    finally:
        system.close()
    if workload.pool == "sharded":
        batch = loadgen.make_requests(
            rng, [length] * system.config.max_batch_size, system.vocab_size
        )
        metrics["api.transport.shm_ring_overhead_ms"] = transport_overhead_ms(
            system, batch, "shm_ring"
        )
        metrics["api.transport.pipe_overhead_ms"] = transport_overhead_ms(
            system, batch, "pipe"
        )
    metrics.update(probe.metrics())
    spans.write(
        out_dir / f"{workload.name}.trace.json",
        {"workload": workload.name, "seed": seed, "clock": "CLOCK_MONOTONIC seconds",
         "self_seconds": spans.self_seconds()},
    )
    finite = all(np.isfinite(value) for value in metrics.values())
    return RunResult(
        metrics=metrics,
        attempted=attempted,
        failed=failed,
        correct=bool(finite and failed == 0),
        phases=phases,
        notes={
            "kernel_shape": f"{rows} rows x {length} tokens",
            "spans": len(spans.spans),
            "span_file": str(out_dir / f"{workload.name}.trace.json"),
        },
    )
