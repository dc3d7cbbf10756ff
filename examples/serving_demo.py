"""Concurrent serving: a SessionPool behind a batch-coalescing ServingQueue.

Builds a pool of replica inference sessions over one shared frozen encoder,
starts the scheduler, and fires mixed-length traffic at it from several
client threads — then prints the latency/throughput digest and verifies that
pooled concurrent serving reproduces single-session serving bit for bit
(float64 engine, exact-length bucketing).

Run with:  python examples/serving_demo.py
"""

import threading

import numpy as np

import example_utils
from repro.api import (
    BackendSpec,
    DeadlineExceededError,
    InferenceSession,
    QueueFullError,
    ServingQueue,
    SessionConfig,
    SessionPool,
)
from repro.core import LutRegistry


def main() -> None:
    registry = LutRegistry()
    config = SessionConfig(
        model_family="tiny" if example_utils.SMOKE else "roberta",
        compute_dtype="float64",  # bitwise parity with per-call serving
        max_batch_size=8,
    )

    # 1. One frozen model, N replica sessions: the weights and their one-time
    #    preparation are shared; each replica owns its batching buffers and
    #    backend, so they can serve simultaneously from threads.
    pool = SessionPool(
        config, spec=BackendSpec.nn_lut(), registry=registry, num_replicas=2
    )
    print(
        f"SessionPool: {pool.num_replicas} replicas over one "
        f"{pool.model.config.name!r} model "
        f"({pool.model.num_parameters():,} shared parameters)"
    )

    # 2. Mixed-length traffic from concurrent closed-loop clients.
    rng = np.random.default_rng(0)
    num_clients, requests_per_client = 4, 6 if example_utils.SMOKE else 12
    traffic = [
        [
            rng.integers(0, 100, size=int(length))
            for length in rng.choice((6, 10, 14, 22), size=requests_per_client)
        ]
        for _ in range(num_clients)
    ]
    results: list = [None] * num_clients

    with ServingQueue(pool, max_wait_ms=5.0, max_queue_depth=256) as queue:

        def client(c: int) -> None:
            results[c] = [queue.serve_one(tokens, timeout=120) for tokens in traffic[c]]

        threads = [
            threading.Thread(target=client, args=(c,)) for c in range(num_clients)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        stats = queue.stats()

    print(
        f"\nServed {stats.completed} requests from {num_clients} client threads:"
        f"\n  latency    p50 {stats.p50_latency_ms:.1f} ms | "
        f"p99 {stats.p99_latency_ms:.1f} ms | mean {stats.mean_latency_ms:.1f} ms"
        f"\n  throughput {stats.throughput_rps:.0f} req/s over "
        f"{stats.batches} coalesced batches "
        f"(mean batch size {stats.mean_batch_size:.1f})"
        f"\n  queue      max depth seen {stats.max_queue_depth_seen}, "
        f"rejected {stats.rejected}, expired {stats.expired}"
    )
    for replica in stats.replicas:
        print(
            f"  replica {replica.replica_id}: {replica.batches_served} batches, "
            f"{replica.completed} requests"
        )

    # 3. Parity: every concurrently-served result equals single-session
    #    serving bit for bit on the float64 engine.
    single = InferenceSession.from_model(
        pool.model, spec=pool.spec, registry=registry, max_batch_size=8
    )
    mismatches = sum(
        not np.array_equal(result, expected)
        for c in range(num_clients)
        for result, expected in zip(results[c], single.forward(traffic[c]))
    )
    print(
        f"\nBitwise parity vs single-session serving: "
        f"{'OK' if mismatches == 0 else f'{mismatches} MISMATCHES'}"
    )

    # 4. Overload behaviour: a full queue rejects instead of growing without
    #    bound, and a request whose deadline lapses is never half-served.
    tight = ServingQueue(pool, max_queue_depth=2, start=False)
    tight.submit(traffic[0][0])
    expiring = tight.submit(traffic[0][1], deadline_ms=0.0)
    try:
        tight.submit(traffic[0][2])
    except QueueFullError as exc:
        print(f"\nOverload: {exc}")
    tight.start()
    try:
        expiring.result(timeout=120)
    except DeadlineExceededError as exc:
        print(f"Deadline: {exc}")
    tight.close()


if __name__ == "__main__":
    main()
