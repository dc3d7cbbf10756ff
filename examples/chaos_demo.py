"""Chaos serving: a worker crash mid-run that callers never see.

Arms the fault-injection subsystem (``repro.api.faults``) with a seeded
``FaultPlan`` that hard-kills worker 0 (``os._exit``) on its second served
batch, then drives a sharded pool through a ``ServingQueue`` configured
with a retry policy and per-replica circuit breakers.  The crash fires
mid-traffic: the fleet retires the dead worker, the orphaned batch is
re-routed to the survivor after a short backoff, and every submitted
request still completes.  Because a forward is a pure function of the
request tokens and the frozen replica state (the retry-idempotency
contract), the float64 responses — including the retried ones — stay
bitwise-equal to single-session serving.

Run with:  python examples/chaos_demo.py
"""

import numpy as np

import example_utils
from repro.api import (
    BackendSpec,
    FaultPlan,
    InferenceSession,
    RetryPolicy,
    ServingQueue,
    SessionConfig,
    ShardedPool,
    inject,
)
from repro.core import LutRegistry


def main() -> None:
    registry = LutRegistry()
    config = SessionConfig(
        model_family="tiny" if example_utils.SMOKE else "roberta",
        compute_dtype="float64",  # bitwise parity with per-call serving
        max_batch_size=4,
    )
    spec = BackendSpec.nn_lut()

    rng = np.random.default_rng(23)
    requests = [
        rng.integers(0, 100, size=int(length))
        for length in rng.choice((5, 8, 12, 17), size=12)
    ]

    # 1. The fault plan: worker 0 exits the hard way (os._exit, no cleanup,
    # no goodbye) while serving its 2nd batch.  Deterministic given the
    # seed, so this demo replays exactly.  The injector must be armed
    # before the pool spawns — worker-side faults ship with the worker
    # init payload.
    plan = FaultPlan(worker_crash_at=2, crash_worker_index=0)
    print(f"armed: {plan}")
    with inject(plan):
        pool = ShardedPool(config, spec=spec, registry=registry, num_replicas=2)
        print(
            f"ShardedPool: {pool.num_replicas} worker processes "
            f"(pids {[client.process.pid for client in pool.sessions]})"
        )
        with pool:
            # 2. Retries + breakers: a batch whose dispatch dies retryably
            # is re-routed to a survivor after exponential backoff; a
            # replica that keeps failing is ejected (breaker open) and
            # probed again after a cooldown.
            with ServingQueue(
                pool,
                max_wait_ms=5.0,
                retry=RetryPolicy(max_attempts=3, backoff_base_s=0.02),
            ) as queue:
                served = queue.serve(requests, timeout=300)
                stats = queue.stats()

    # 3. What happened: the crash cost a retirement and a retry, not a
    # single lost request.
    print(
        f"served {stats.completed}/{len(requests)} requests "
        f"({stats.failed} failed) through a mid-run worker crash"
    )
    print(
        f"  retries: {stats.retry_attempts} dispatch attempt(s) re-routed, "
        f"{stats.retried_requests} request(s) retried"
    )
    print(
        f"  fleet: {stats.replicas_retired} replica retired, "
        f"{len(stats.replicas)} still live"
    )
    for replica in stats.replicas:
        print(
            f"  replica {replica.replica_id}: {replica.completed} requests, "
            f"{replica.errors} errors, breaker {replica.breaker_state} "
            f"(service EWMA {replica.service_ewma_ms:.1f} ms)"
        )

    # 4. The retry-idempotency contract, checked: responses (retried ones
    # included) are bitwise-equal to a fresh single session on the same
    # config/spec/registry.
    single = InferenceSession(config, spec=spec, registry=registry)
    oracle = single.forward(requests)
    mismatches = sum(
        not np.array_equal(a, b) for a, b in zip(served, oracle)
    )
    print(
        f"Bitwise parity vs single-session serving: "
        f"{'OK' if mismatches == 0 else f'{mismatches} MISMATCHES'}"
    )


if __name__ == "__main__":
    main()
