"""Multi-process sharded serving: a ShardedPool of worker-process replicas.

Builds a pool whose replicas run in worker *processes* — each reconstructs
its InferenceSession from the serializable SessionConfig/BackendSpec payloads
and maps the frozen encoder's weights read-only out of shared memory, so the
weight bytes are paid once per machine no matter how many replicas serve.
Requests and results cross the process boundary through the ``shm_ring``
transport: every message is one small envelope on the pipe, and the bodies
that matter — packed token batches in, hidden-state rows out — are packed
into preallocated shared-memory rings sized for a full batch (anything the
rings cannot hold is pickled into the envelope instead).  The ServingQueue then runs on top of it
completely unchanged, and the demo verifies that sharded serving reproduces
single-session serving bit for bit (float64 engine, exact-length bucketing).

Run with:  python examples/sharded_serving_demo.py
"""

import numpy as np

import example_utils
from repro.api import (
    BackendSpec,
    InferenceSession,
    ServingQueue,
    SessionConfig,
    ShardedPool,
)


def main() -> None:
    registry = example_utils.example_registry()
    config = SessionConfig(
        model_family="tiny" if example_utils.SMOKE else "roberta",
        compute_dtype="float64",  # bitwise parity with per-call serving
        max_batch_size=8,
    )
    spec = BackendSpec.nn_lut()

    # 1. Spin up worker-process replicas on the shared-memory transport.  The
    # parent fits the LUT tables and builds the frozen model once; workers
    # get the weights through shared memory, the backend recipe through the
    # serializable spec, and hot-path traffic through shared-memory rings.
    pool = ShardedPool(
        config, spec=spec, registry=registry, num_replicas=2,
        transport="shm_ring",
    )
    print(
        f"ShardedPool[{pool.transport_name}]: {pool.num_replicas} worker "
        f"processes (pids {[client.process.pid for client in pool.sessions]}) "
        f"over one {pool.model.config.name!r} model — "
        f"{pool.shared_weight_bytes:,} bytes of weights in shared memory"
    )

    rng = np.random.default_rng(0)
    requests = [
        rng.integers(0, 100, size=int(length))
        for length in rng.choice((6, 10, 14, 22), size=12)
    ]

    with pool:
        # 2. Direct pool serving: deterministic micro-batch -> worker sharding.
        sharded = pool.forward(requests)

        # 3. The batch-coalescing scheduler runs unchanged on the sharded
        # pool — same knobs, same deadlines/overload behaviour.  Its stats
        # split latency into queue-wait vs service time, so the IPC cost of
        # the process boundary reads directly off the service number.  Each
        # idle worker pulls the oldest formed batch (placement varies run to
        # run; float64 results never do — every worker serves the same
        # frozen model).
        with ServingQueue(pool, max_wait_ms=5.0, max_queue_depth=256) as queue:
            queued = queue.serve(requests, timeout=300)
            stats = queue.stats()
        print(
            "ServingQueue over ShardedPool: "
            f"{stats.completed} served, "
            f"mean batch {stats.mean_batch_size:.1f}, "
            f"p50 {stats.p50_latency_ms:.1f} ms / p99 {stats.p99_latency_ms:.1f} ms "
            f"(queue-wait {stats.mean_queue_wait_ms:.1f} ms + "
            f"service {stats.mean_service_ms:.1f} ms)"
        )
        for replica in stats.replicas:
            print(
                f"  replica {replica.replica_id}: "
                f"{replica.batches_served} batches, "
                f"{replica.completed} requests"
            )

        # 4. How the traffic actually routed: forward batches and their
        # results ride the rings; only control messages took the pipe.
        for client in pool.sessions:
            print(
                f"  worker {client.index} transport: "
                f"{client.transport.stats['ring_requests']} ring / "
                f"{client.transport.stats['pipe_requests']} pipe requests"
            )

    # 5. Parity: a fresh single session from the same config/spec/registry
    # builds the same frozen model (same seed) — sharded serving must match
    # it bit for bit on the float64 engine, whatever the transport.
    single = InferenceSession(config, spec=spec, registry=registry)
    oracle = single.forward(requests)
    mismatches = sum(
        not (np.array_equal(a, b) and np.array_equal(q, b))
        for a, q, b in zip(sharded, queued, oracle)
    )
    print(
        f"Bitwise parity vs single-session serving: "
        f"{'OK' if mismatches == 0 else f'{mismatches} MISMATCHES'}"
    )


if __name__ == "__main__":
    main()
