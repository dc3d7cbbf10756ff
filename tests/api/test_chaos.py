"""Chaos suite: seeded fault schedules against the serving resilience stack.

Every test arms a deterministic :class:`~repro.api.faults.FaultPlan` at the
serving seams (worker request handling, parent-side ring decode, pool spawn,
session forward) and asserts the acceptance criteria of the resilience work:

* **zero lost futures** — every submitted request resolves, either with a
  result or a typed error; nothing hangs;
* **bitwise-correct results** — responses that succeed under faults are
  float64-bitwise-equal to the single-session oracle (the retry-idempotency
  contract: inference is pure, so re-execution cannot change a result);
* the breaker demonstrably ejects a flaky replica and re-admits it;
* fault injection disabled means no injector is active at all (the hooks
  are a single ``is not None`` check on the hot paths).

The process-spawning tests mirror ``tests/api/test_sharding.py``: a tiny
float64 model, the shared ``fast_registry``, and real worker processes.
"""

import threading
import time

import numpy as np
import pytest

from repro.api import (
    BackendSpec,
    CircuitBreakerConfig,
    DeadlineExceededError,
    FaultPlan,
    InferenceSession,
    InjectedFaultError,
    RetryPolicy,
    ServingQueue,
    SessionConfig,
    SessionPool,
    ShardedPool,
)
from repro.api import faults

import traces  # tests/api/traces.py

pytestmark = [
    pytest.mark.usefixtures("shm_ledger"),
    pytest.mark.filterwarnings("error::ResourceWarning"),
]


RETRY = RetryPolicy(max_attempts=3, backoff_base_s=0.01, backoff_max_s=0.05)


@pytest.fixture(scope="module")
def chaos_config():
    return SessionConfig(
        model_family="tiny", compute_dtype="float64", max_batch_size=3
    )


@pytest.fixture(scope="module")
def oracle(chaos_config, fast_registry):
    """Single-session float64 serving — the bitwise reference."""
    return InferenceSession(
        config=chaos_config, spec=BackendSpec.nn_lut(), registry=fast_registry
    )


@pytest.fixture(scope="module")
def chaos_trace():
    return traces.generate_trace(
        num_requests=12, duration_s=0.1, seed=16, max_length=16, vocab_size=100
    )


def _assert_bitwise(result, trace, oracle):
    """Successful replay responses must match the oracle bit for bit."""
    expected = oracle.forward(list(trace.requests))
    for outcome, got in zip(result.outcomes, result.results()):
        if outcome.ok:
            assert np.array_equal(got, expected[outcome.index]), (
                f"request {outcome.index} diverged from the oracle"
            )


class TestInjectorMechanics:
    def test_disabled_by_default(self):
        assert faults.active() is None
        assert faults.active_plan() is None

    def test_install_uninstall_roundtrip(self):
        injector = faults.install(FaultPlan(seed=3))
        try:
            assert faults.active() is injector
            assert faults.active_plan() is injector.plan
        finally:
            faults.uninstall()
        assert faults.active() is None

    def test_inject_context_manager_restores(self):
        with faults.inject(FaultPlan()) as injector:
            assert faults.active() is injector
        assert faults.active() is None

    def test_plan_validation(self):
        with pytest.raises(ValueError, match="worker_crash_at"):
            FaultPlan(worker_crash_at=0)
        with pytest.raises(ValueError, match="worker_stall_s"):
            FaultPlan(worker_stall_s=-1.0)
        with pytest.raises(ValueError, match="session_error_count"):
            FaultPlan(session_error_at=1, session_error_count=0)

    def test_counters_are_deterministic(self):
        injector = faults.FaultInjector(FaultPlan(), worker_index=1)
        for op in ("forward", "apply_lut_overrides", "close", "forward"):
            injector.on_worker_request(op)
        # Control ops are not serving ops and must not advance the schedule.
        assert injector.counts()["worker_request"] == 2

    def test_session_error_window(self):
        plan = FaultPlan(session_error_at=2, session_error_count=2)
        injector = faults.FaultInjector(plan)
        injector.on_session_forward()  # call 1: before the window
        for _ in range(2):  # calls 2 and 3: inside it
            with pytest.raises(InjectedFaultError):
                injector.on_session_forward()
        injector.on_session_forward()  # call 4: past it

    def test_spawn_window(self):
        injector = faults.FaultInjector(FaultPlan(spawn_fail_at=1))
        with pytest.raises(InjectedFaultError):
            injector.on_spawn()
        injector.on_spawn()  # recovered


@pytest.mark.parametrize(
    "attempt, nominal_s",
    # RETRY: base 10 ms doubling per attempt, capped at 50 ms.
    [(1, 0.01), (2, 0.02), (3, 0.04), (4, 0.05), (7, 0.05)],
)
def test_backoff_doubles_is_capped_and_jitters_reproducibly(attempt, nominal_s):
    def sleeps():
        rng = np.random.default_rng(RETRY.seed)
        return [RETRY.backoff_s(attempt, rng) for _ in range(32)]

    draws = sleeps()
    assert draws == sleeps()  # same seed, same sleeps
    assert len(set(draws)) > 1  # jittered, not constant
    assert all(0.9 * nominal_s <= d <= 1.1 * nominal_s for d in draws)


class TestBreakerAndRetryInProcess:
    """Retry + breaker semantics on a threaded pool (no process spawns)."""

    class _Flaky:
        """Session wrapper that times out K consecutive forwards, then heals."""

        def __init__(self, session, failures):
            self._session = session
            self._failures = failures
            self.calls = 0

        def forward(self, requests, budgets_s=None):
            self.calls += 1
            if self._failures > 0:
                self._failures -= 1
                raise TimeoutError("injected: replica wedged")
            return self._session.forward(requests, budgets_s)

        def pooled(self, requests):
            return self._session.pooled(requests)

    def _pool(self, chaos_config, fast_registry, num_replicas=2):
        return SessionPool(
            chaos_config, spec=BackendSpec.nn_lut(), registry=fast_registry,
            num_replicas=num_replicas,
        )

    def test_retry_reroutes_to_survivor_bitwise(
        self, chaos_config, fast_registry, oracle
    ):
        pool = self._pool(chaos_config, fast_registry)
        flaky = self._Flaky(pool.sessions[0], failures=2)
        pool.sessions[0] = flaky
        rng = np.random.default_rng(5)
        requests = [rng.integers(0, 100, size=n) for n in (6, 11, 4, 9)]
        queue = ServingQueue(pool, max_wait_ms=1.0, retry=RETRY)
        try:
            served = queue.serve(requests, timeout=60)
            stats = queue.stats()
        finally:
            queue.close()
        expected = oracle.forward(requests)
        for i, (a, b) in enumerate(zip(served, expected)):
            assert np.array_equal(a, b), f"request {i}"
        assert stats.failed == 0
        assert stats.retry_attempts >= 1
        assert stats.retried_requests >= 1

    def test_retry_budget_exhausts_to_fail_fast(
        self, chaos_config, fast_registry
    ):
        pool = self._pool(chaos_config, fast_registry, num_replicas=1)
        pool.sessions[0] = self._Flaky(pool.sessions[0], failures=10_000)
        policy = RetryPolicy(
            max_attempts=2, backoff_base_s=0.001, backoff_max_s=0.01,
            retry_budget=2,
        )
        queue = ServingQueue(pool, max_wait_ms=0.0, retry=policy)
        try:
            futures = [
                queue.submit(np.arange(4, dtype=np.int64)) for _ in range(4)
            ]
            failures = 0
            for future in futures:
                with pytest.raises(TimeoutError):
                    future.result(timeout=60)
                failures += 1
            stats = queue.stats()
        finally:
            queue.close()
        assert failures == 4  # zero lost futures: every one resolved
        assert stats.retried_requests <= policy.retry_budget

    def test_non_retryable_error_fails_fast_even_with_retry_on(
        self, chaos_config, fast_registry
    ):
        # An exception from the forward itself (not the replica/channel)
        # would fail identically everywhere; retrying would only repeat it.
        pool = self._pool(chaos_config, fast_registry)

        def exploding_forward(requests, budgets_s=None):
            raise RuntimeError("boom")

        pool.sessions[0].forward = exploding_forward  # type: ignore[method-assign]
        pool.sessions[1].forward = exploding_forward  # type: ignore[method-assign]
        queue = ServingQueue(pool, max_wait_ms=0.0, retry=RETRY)
        try:
            future = queue.submit(np.arange(5, dtype=np.int64))
            with pytest.raises(RuntimeError, match="boom"):
                future.result(timeout=30)
            assert queue.stats().retry_attempts == 0
        finally:
            queue.close()

    def test_breaker_ejects_and_readmits(self, chaos_config, fast_registry):
        # The acceptance scenario: a flaky replica trips its breaker (no new
        # traffic), then wins traffic back through a half-open probe once
        # healthy — observable in the transition counters and final state.
        pool = self._pool(chaos_config, fast_registry)
        flaky = self._Flaky(pool.sessions[0], failures=2)
        pool.sessions[0] = flaky
        breaker = CircuitBreakerConfig(failure_threshold=2, cooldown_s=0.15)
        queue = ServingQueue(
            pool, max_wait_ms=0.0, retry=RETRY, breaker=breaker
        )
        try:
            tokens = np.arange(6, dtype=np.int64)
            # Enough sequential traffic to hit the flaky replica twice
            # (deterministic round-robin alternates members).
            for _ in range(4):
                assert queue.serve_one(tokens, timeout=60).shape[0] == 6
            deadline = time.monotonic() + 30
            while queue.stats().breaker_opens < 1:
                assert time.monotonic() < deadline, "breaker never opened"
                queue.serve_one(tokens, timeout=60)
            # Cooldown, then keep serving until the half-open probe lands on
            # the (now healed) replica and closes the breaker.
            while queue.stats().breaker_closes < 1:
                assert time.monotonic() < deadline, "breaker never re-closed"
                queue.serve_one(tokens, timeout=60)
                time.sleep(0.02)
            stats = queue.stats()
        finally:
            queue.close()
        assert stats.breaker_opens >= 1
        assert stats.breaker_closes >= 1
        assert all(r.breaker_state == "closed" for r in stats.replicas)
        # The healed replica served again after re-admission.
        assert flaky.calls > 2

    def test_session_forward_fault_hook(self, chaos_config, fast_registry):
        # on_session_forward fires inside InferenceSession.forward itself —
        # the in-process seam the sharded workers share.  The injector is
        # armed after construction, so the pool's warmup forwards never
        # tick the schedule: call 1 serves, call 2 hits the window.
        pool = self._pool(chaos_config, fast_registry)
        with faults.inject(FaultPlan(session_error_at=2)):
            pool.sessions[0].forward([np.arange(4, dtype=np.int64)])
            with pytest.raises(InjectedFaultError):
                pool.sessions[1].forward([np.arange(4, dtype=np.int64)])


def _close_queue_and_pool(queue, pool):
    queue.close()
    pool.close()


class TestChaosSharded:
    """Seeded fault schedules against real worker processes."""

    def _pool(self, chaos_config, fast_registry, **kwargs):
        kwargs.setdefault("num_replicas", 2)
        return ShardedPool(
            chaos_config, spec=BackendSpec.nn_lut(), registry=fast_registry,
            **kwargs,
        )

    def test_worker_crash_mid_trace_recovers_bitwise(
        self, chaos_config, fast_registry, oracle, chaos_trace
    ):
        # Worker 0 exits hard on its 2nd request; retries re-route the
        # batch to the survivor and the whole trace still completes with
        # bitwise-correct responses.
        plan = FaultPlan(worker_crash_at=2, crash_worker_index=0)
        with faults.inject(plan):
            pool = self._pool(chaos_config, fast_registry)
        try:
            queue = ServingQueue(pool, max_wait_ms=1.0, retry=RETRY)
            try:
                result = traces.replay(
                    queue, chaos_trace, result_timeout_s=120.0
                )
                stats = queue.stats()
            finally:
                queue.close()
        finally:
            pool.close()
        assert len(result.outcomes) == chaos_trace.config.num_requests
        assert result.failed == 0, [
            (o.index, o.error) for o in result.outcomes if not o.ok
        ]
        _assert_bitwise(result, chaos_trace, oracle)
        assert stats.retry_attempts >= 1
        assert stats.replicas_retired >= 1
        assert stats.failed == 0

    def test_corrupted_ring_frame_degrades_and_retries(
        self, chaos_config, fast_registry, oracle, chaos_trace
    ):
        # The parent-side injector flips one byte in the first ring
        # response: decode must reject the frame (typed integrity error),
        # the channel must degrade to the pipe, and the retry must still
        # serve the batch bitwise-correctly.
        plan = FaultPlan(corrupt_response_at=1)
        with faults.inject(plan):
            pool = self._pool(
                chaos_config, fast_registry, transport="shm_ring"
            )
            try:
                queue = ServingQueue(pool, max_wait_ms=1.0, retry=RETRY)
                try:
                    result = traces.replay(
                        queue, chaos_trace, result_timeout_s=120.0
                    )
                    stats = queue.stats()
                finally:
                    queue.close()
                degraded = [
                    client.transport.degraded for client in pool.sessions
                ]
                transport_stats = [
                    dict(client.transport.stats) for client in pool.sessions
                ]
            finally:
                pool.close()
        assert result.failed == 0, [
            (o.index, o.error) for o in result.outcomes if not o.ok
        ]
        _assert_bitwise(result, chaos_trace, oracle)
        assert stats.integrity_failures >= 1
        assert stats.retry_attempts >= 1
        assert stats.failed == 0
        assert any(degraded), "no channel recorded the corruption"
        assert sum(s["integrity_failures"] for s in transport_stats) >= 1
        # The degraded channel kept serving — over the pipe.
        victim = transport_stats[degraded.index(True)]
        assert victim["pipe_responses"] >= 1

    def test_stalled_worker_times_out_and_survivor_serves(
        self, chaos_config, fast_registry, oracle
    ):
        # Worker 0 wedges for far longer than the request timeout on its
        # 1st request: the client poisons it, the batch re-routes.
        plan = FaultPlan(
            worker_stall_at=1, stall_worker_index=0, worker_stall_s=30.0
        )
        with faults.inject(plan):
            pool = self._pool(
                chaos_config, fast_registry, request_timeout_s=1.0
            )
        rng = np.random.default_rng(9)
        requests = [rng.integers(0, 100, size=n) for n in (5, 8, 11, 4)]
        try:
            queue = ServingQueue(pool, max_wait_ms=1.0, retry=RETRY)
            try:
                served = queue.serve(requests, timeout=120)
                stats = queue.stats()
            finally:
                queue.close()
        finally:
            pool.close()
        expected = oracle.forward(requests)
        for i, (a, b) in enumerate(zip(served, expected)):
            assert np.array_equal(a, b), f"request {i}"
        assert stats.failed == 0
        assert stats.retry_attempts >= 1
        assert stats.replicas_retired >= 1

    def test_spawn_failure_is_contained(
        self, chaos_config, fast_registry, oracle
    ):
        # A dead replica's replacement spawn fails (injected in the
        # parent): replacement is best-effort, so the survivor must keep
        # serving as a fleet of one.
        pool = self._pool(chaos_config, fast_registry)
        rng = np.random.default_rng(11)
        requests = [rng.integers(0, 100, size=n) for n in (6, 9, 5, 12)]
        try:
            queue = ServingQueue(
                pool, max_wait_ms=1.0, retry=RETRY,
                replace_dead_replicas=True,
            )
            try:
                with faults.inject(FaultPlan(spawn_fail_at=1)):
                    pool.sessions[1].process.kill()
                    pool.sessions[1].process.join(10)
                    served = queue.serve(requests, timeout=120)
                    # Retirement + the (failing) replacement spawn run on
                    # the dying worker's thread; wait for both to land.
                    deadline = time.monotonic() + 30
                    injector = faults.active()
                    while (
                        queue.stats().replicas_retired < 1
                        or injector.counts().get("spawn", 0) < 1
                    ):
                        assert time.monotonic() < deadline, (
                            "replacement spawn was never attempted"
                        )
                        time.sleep(0.01)
                    stats = queue.stats()
                    spawn_count = injector.counts().get("spawn", 0)
            finally:
                queue.close()
        finally:
            pool.close()
        expected = oracle.forward(requests)
        for i, (a, b) in enumerate(zip(served, expected)):
            assert np.array_equal(a, b), f"request {i}"
        assert stats.replicas_retired >= 1
        assert stats.replicas_added == 0  # the replacement never made it
        assert spawn_count >= 1  # ... because the injected spawn fault fired
        assert stats.live_replicas == 1

    def test_deadline_expiring_in_flight_is_skipped_by_the_worker(
        self, chaos_config, fast_registry
    ):
        # The stall is short of the request timeout but far past the
        # request's deadline: the deadline ships with the batch, the worker
        # skips the expired request instead of wasting a forward, and the
        # future fails typed.
        plan = FaultPlan(worker_stall_at=1, worker_stall_s=0.6)
        with faults.inject(plan):
            pool = self._pool(chaos_config, fast_registry, num_replicas=1)
        try:
            queue = ServingQueue(pool, max_wait_ms=0.0)
            try:
                future = queue.submit(
                    np.arange(6, dtype=np.int64), deadline_ms=150.0
                )
                with pytest.raises(DeadlineExceededError, match="in flight"):
                    future.result(timeout=60)
                stats = queue.stats()
                # The channel is still healthy: later traffic serves fine.
                assert queue.serve_one(
                    np.arange(4, dtype=np.int64), timeout=60
                ).shape[0] == 4
            finally:
                queue.close()
        finally:
            pool.close()
        assert stats.expired_in_flight >= 1
        assert stats.expired >= 1

    def test_exactly_one_forward_op_crosses_the_worker_boundary(
        self, chaos_config, fast_registry, oracle
    ):
        # Deadline-free and deadline-carrying batches ride the same op: the
        # int64 budget row always ships (-1 = no deadline) and results stay
        # bitwise-correct either way.
        pool = self._pool(chaos_config, fast_registry, num_replicas=1)
        client = pool.sessions[0]
        assert not hasattr(client, "forward_deadline")
        assert not hasattr(client, "pooled")
        assert faults._WORKER_OPS == ("forward",)
        sent = []
        real_send = client.transport.send

        def recording_send(op, payload):
            sent.append((op, payload))
            return real_send(op, payload)

        client.transport.send = recording_send
        rng = np.random.default_rng(13)
        requests = [rng.integers(0, 100, size=n) for n in (7, 3, 10)]
        try:
            queue = ServingQueue(pool, max_wait_ms=1.0)
            try:
                served = queue.serve(requests, timeout=60)
                served.append(
                    queue.submit(requests[0], deadline_ms=60_000.0).result(timeout=60)
                )
            finally:
                queue.close()
        finally:
            pool.close()
        expected = oracle.forward(requests + requests[:1])
        for i, (a, b) in enumerate(zip(served, expected)):
            assert np.array_equal(a, b), f"request {i}"
        assert {op for op, _ in sent} == {"forward", "close"}
        budget_rows = [payload[-1] for op, payload in sent if op == "forward"]
        for (op, payload), row in zip(sent, budget_rows):
            assert row.dtype == np.int64 and len(row) == len(payload) - 1
        assert all(np.all(row == -1) for row in budget_rows[:-1])
        assert np.all(budget_rows[-1] >= 0)

    def test_mixed_deadlines_pack_correctly(
        self, chaos_config, fast_registry, oracle
    ):
        # A batch mixing generous-deadline and no-deadline requests rides
        # the one forward op; every request must come back full-size
        # and bitwise-correct (the packed response path with no skips).
        pool = self._pool(chaos_config, fast_registry, num_replicas=1)
        rng = np.random.default_rng(17)
        requests = [rng.integers(0, 100, size=n) for n in (5, 5, 5)]
        try:
            queue = ServingQueue(pool, max_wait_ms=20.0)
            try:
                futures = [
                    queue.submit(
                        tokens,
                        deadline_ms=(60_000.0 if i % 2 == 0 else None),
                    )
                    for i, tokens in enumerate(requests)
                ]
                served = [f.result(timeout=60) for f in futures]
            finally:
                queue.close()
        finally:
            pool.close()
        expected = oracle.forward(requests)
        for i, (a, b) in enumerate(zip(served, expected)):
            assert np.array_equal(a, b), f"request {i}"
