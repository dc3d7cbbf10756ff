"""Concurrent serving: SessionPool sharding, ServingQueue scheduling, parity.

This is the tier-1 smoke run of the concurrent server the ISSUE calls for:
a tiny model, two replicas, mixed-length traffic submitted from real client
threads, gated on *bitwise* parity with single-session serving (float64
engine, exact-length bucketing).  If the scheduler or the pool ever groups,
pads or dispatches differently, the parity gates here fail.  The per-method
parity of every serving class lives in ``test_parity.py``.
"""

import threading
import time

import numpy as np
import pytest

from repro.api import (
    BackendSpec,
    DeadlineExceededError,
    InferenceSession,
    QueueFullError,
    ServerClosedError,
    ServingQueue,
    SessionConfig,
    SessionPool,
)

import traces  # tests/api/traces.py

pytestmark = pytest.mark.usefixtures("lock_audit")


@pytest.fixture(scope="module")
def pool64(fast_registry):
    config = SessionConfig(
        model_family="tiny", compute_dtype="float64", max_batch_size=3
    )
    return SessionPool(
        config, spec=BackendSpec.nn_lut(), registry=fast_registry, num_replicas=2
    )


@pytest.fixture(scope="module")
def single64(pool64, fast_registry):
    """Single-session serving over the same frozen model (the parity oracle)."""
    return InferenceSession.from_model(
        pool64.model, spec=pool64.spec, registry=fast_registry, max_batch_size=3
    )


@pytest.fixture(scope="module")
def mixed_requests():
    rng = np.random.default_rng(7)
    lengths = (5, 12, 5, 9, 30, 12, 7, 5, 9, 5)
    return [rng.integers(0, 100, size=length) for length in lengths]


class TestSessionPool:
    def test_replicas_share_the_frozen_model(self, pool64):
        assert pool64.num_replicas == 2
        first, second = pool64.sessions
        assert second.model is first.model  # one copy of the weights
        assert second.backend is not first.backend  # own recorder/wrappers
        assert second._batcher is not first._batcher  # own packing buffers

    def test_dispatch_is_deterministic(self, pool64, mixed_requests):
        shards = pool64._shard(mixed_requests)
        assert shards == pool64._shard(mixed_requests)
        served = sorted(i for shard in shards for batch in shard for i in batch)
        assert served == list(range(len(mixed_requests)))

    def test_empty_request_list(self, pool64):
        assert pool64.forward([]) == []
        empty = pool64.pooled([])
        assert empty.shape == (0, pool64.model.config.hidden_size)
        assert empty.dtype == np.float64  # the compute dtype

    def test_single_replica_pool(self, fast_registry, mixed_requests, single64):
        pool = SessionPool(
            SessionConfig(model_family="tiny", compute_dtype="float64"),
            spec=BackendSpec.nn_lut(),
            registry=fast_registry,
            num_replicas=1,
        )
        outputs = pool.forward(mixed_requests[:3])
        single = single64.forward(mixed_requests[:3])
        assert all(np.array_equal(a, b) for a, b in zip(outputs, single))

    def test_rejects_bad_replica_count(self, fast_registry):
        with pytest.raises(ValueError, match="num_replicas"):
            SessionPool(
                SessionConfig(model_family="tiny"),
                registry=fast_registry,
                num_replicas=0,
            )

    def test_from_model_adopts_engine_settings(self, pool64, fast_registry):
        pool = SessionPool.from_model(
            pool64.model, spec=pool64.spec, registry=fast_registry, num_replicas=2
        )
        assert pool.config.model_family == "custom"
        assert pool.config.compute_dtype == "float64"
        assert pool.model is pool64.model


class TestServingQueue:
    def test_concurrent_clients_bitwise_parity(
        self, pool64, single64, mixed_requests
    ):
        """The acceptance gate: threaded traffic == single-session, bitwise."""
        oracle = single64.forward(mixed_requests)
        with ServingQueue(pool64, max_wait_ms=5.0) as queue:
            results: list = [None] * len(mixed_requests)

            def client(i: int) -> None:
                results[i] = queue.serve_one(mixed_requests[i], timeout=60)

            threads = [
                threading.Thread(target=client, args=(i,))
                for i in range(len(mixed_requests))
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            stats = queue.stats()
        for i, result in enumerate(results):
            assert np.array_equal(result, oracle[i]), f"request {i}"
        assert stats.submitted == stats.completed == len(mixed_requests)
        assert stats.rejected == stats.expired == stats.failed == 0
        assert stats.batches >= 1 and stats.mean_batch_size >= 1.0
        assert 0.0 < stats.p50_latency_ms <= stats.p99_latency_ms
        assert stats.throughput_rps > 0

    def test_burst_serve_returns_in_request_order(
        self, pool64, single64, mixed_requests
    ):
        oracle = single64.forward(mixed_requests)
        with ServingQueue(pool64, max_wait_ms=5.0) as queue:
            results = queue.serve(mixed_requests, timeout=60)
            queue.drain(timeout=30)
        assert all(np.array_equal(a, b) for a, b in zip(results, oracle))

    def test_wraps_a_bare_session(self, single64, mixed_requests):
        with ServingQueue(single64, max_wait_ms=1.0) as queue:
            assert queue.pool.num_replicas == 1
            result = queue.serve_one(mixed_requests[0], timeout=60)
        assert np.array_equal(result, single64.forward(mixed_requests[:1])[0])

    def test_overload_rejection_and_deferred_start(self, pool64, mixed_requests):
        queue = ServingQueue(pool64, max_queue_depth=2, start=False)
        first = queue.submit(mixed_requests[0])
        queue.submit(mixed_requests[1], deadline_ms=0.0)
        with pytest.raises(QueueFullError, match="max_queue_depth"):
            queue.submit(mixed_requests[2])
        assert queue.stats().rejected == 1
        queue.start()
        assert first.result(timeout=60).shape[0] == mixed_requests[0].size
        queue.close()

    def test_deadline_expires_before_dispatch(self, pool64, mixed_requests):
        queue = ServingQueue(pool64, start=False)
        expired = queue.submit(mixed_requests[0], deadline_ms=0.0)
        import time

        time.sleep(0.005)
        queue.start()
        with pytest.raises(DeadlineExceededError, match="deadline"):
            expired.result(timeout=60)
        assert queue.stats().expired == 1
        queue.close()

    def test_drain_waits_out_spurious_wakeups(self, pool64, mixed_requests):
        # drain() re-checks its predicate after every wakeup: a notify that
        # changes nothing must not let it return while work is pending.
        queue = ServingQueue(pool64, start=False)
        pending = queue.submit(mixed_requests[0])
        outcome: list = []

        def drainer() -> None:
            try:
                queue.drain(timeout=60)
                outcome.append("drained")
            except Exception as exc:  # reported by the assertion below
                outcome.append(exc)

        thread = threading.Thread(target=drainer)
        thread.start()
        cond = queue._fleet._cond
        for _ in range(5):
            with cond:
                cond.notify_all()
            time.sleep(0.01)
        assert thread.is_alive() and outcome == []
        queue.start()
        thread.join(timeout=60)
        assert outcome == ["drained"]
        assert pending.result(timeout=60).shape[0] == mixed_requests[0].size
        queue.close()

    def test_close_fails_pending_and_rejects_new(self, pool64, mixed_requests):
        queue = ServingQueue(pool64, start=False)
        pending = queue.submit(mixed_requests[0])
        queue.close()
        with pytest.raises(ServerClosedError):
            pending.result(timeout=5)
        with pytest.raises(ServerClosedError):
            queue.submit(mixed_requests[0])
        queue.close()  # idempotent
        with pytest.raises(ServerClosedError):
            queue.start()

    @pytest.mark.parametrize(
        "bad, match",
        [
            (np.zeros((2, 3), dtype=np.int64), "1-D"),
            (np.array([], dtype=np.int64), "empty"),
            (np.array([0.5, 1.5]), "integer"),
            (np.arange(100), "maximum sequence length"),
        ],
    )
    def test_rejects_malformed_requests(self, pool64, bad, match):
        queue = ServingQueue(pool64, start=False)
        with pytest.raises(ValueError, match=match):
            queue.submit(bad)
        queue.close()

    def test_rejects_bad_knobs(self, pool64):
        with pytest.raises(ValueError, match="max_wait_ms"):
            ServingQueue(pool64, max_wait_ms=-1, start=False)
        with pytest.raises(ValueError, match="max_queue_depth"):
            ServingQueue(pool64, max_queue_depth=0, start=False)
        with pytest.raises(TypeError, match="SessionPool"):
            ServingQueue(object())  # type: ignore[arg-type]


def _gated_single_replica_pool(pool64, fast_registry):
    """A 1-replica pool whose forwards block on a gate (backlog on demand)."""
    pool = SessionPool.from_model(
        pool64.model, spec=pool64.spec, registry=fast_registry,
        num_replicas=1, max_batch_size=8,
    )
    gate = threading.Event()
    inner = pool.sessions[0].forward

    def gated_forward(requests, budgets_s=None):
        gate.wait(30)
        return inner(requests, budgets_s)

    pool.sessions[0].forward = gated_forward  # type: ignore[method-assign]
    return pool, gate


class TestOverloadAndDeadlines:
    def test_formed_and_inflight_requests_count_toward_depth(
        self, pool64, fast_registry, mixed_requests
    ):
        # Regression: admission control only bounded the pending deque, so
        # the scheduler's pending->formed drain defeated max_queue_depth and
        # the batch queue grew without bound under overload.
        pool, gate = _gated_single_replica_pool(pool64, fast_registry)
        queue = ServingQueue(pool, max_wait_ms=0.0, max_queue_depth=2)
        try:
            first = queue.submit(mixed_requests[0])
            traces.wait_for_inflight(queue)  # in flight, no longer pending
            second = queue.submit(mixed_requests[1])  # backlog now 2
            with pytest.raises(QueueFullError, match="max_queue_depth"):
                queue.submit(mixed_requests[2])
            gate.set()
            assert first.result(timeout=60).shape[0] == mixed_requests[0].size
            assert second.result(timeout=60).shape[0] == mixed_requests[1].size
            assert queue.stats().queue_depth == 0
        finally:
            gate.set()
            queue.close()

    def test_deadline_rechecked_when_worker_picks_batch_up(
        self, pool64, fast_registry, mixed_requests
    ):
        # Regression: deadlines were only checked at window close, so a
        # request stuck in a formed batch behind a backlog was served
        # arbitrarily late instead of failing.
        pool, gate = _gated_single_replica_pool(pool64, fast_registry)
        queue = ServingQueue(pool, max_wait_ms=0.0, max_queue_depth=16)
        try:
            blocker = queue.submit(mixed_requests[0])
            traces.wait_for_inflight(queue)
            doomed = queue.submit(mixed_requests[1], deadline_ms=100.0)
            time.sleep(0.15)  # deadline lapses while the batch sits formed
            gate.set()
            assert blocker.result(timeout=60).shape[0] == mixed_requests[0].size
            with pytest.raises(DeadlineExceededError, match="deadline"):
                doomed.result(timeout=60)
            assert queue.stats().expired == 1
        finally:
            gate.set()
            queue.close()


class TestQueueContract:
    """Regression tests for the documented ServingQueue behaviours."""

    def test_serve_timeout_is_one_shared_deadline(
        self, pool64, fast_registry
    ):
        # Regression: serve() applied `timeout` to each future sequentially,
        # so a burst whose requests each complete just under the timeout
        # could block for up to N x timeout.  One shared deadline must cover
        # the whole burst.
        pool = SessionPool.from_model(
            pool64.model, spec=pool64.spec, registry=fast_registry,
            num_replicas=1, max_batch_size=8,
        )
        gate = threading.Semaphore(0)
        inner = pool.sessions[0].forward

        def gated_forward(requests, budgets_s=None):
            gate.acquire()
            return inner(requests, budgets_s)

        pool.sessions[0].forward = gated_forward  # type: ignore[method-assign]
        # Strictly increasing lengths: each request is its own batch AND the
        # (length-sorted) dispatch order matches the submission order, so
        # under the old per-future rule every wait stays just under the
        # timeout and serve() blocks for the full N x timeout.
        rng = np.random.default_rng(5)
        burst = [rng.integers(0, 100, size=length) for length in (5, 9, 12, 30)]
        queue = ServingQueue(pool, max_wait_ms=0.0, max_batch_size=1)
        stop = threading.Event()

        def driver() -> None:  # completes one batch every 0.2 s
            while not stop.is_set():
                time.sleep(0.2)
                gate.release()

        thread = threading.Thread(target=driver, daemon=True)
        thread.start()
        start = time.monotonic()
        try:
            with pytest.raises(TimeoutError):
                queue.serve(burst, timeout=0.35)
            elapsed = time.monotonic() - start
            assert elapsed < 0.75, (
                f"serve() blocked {elapsed:.2f}s — the timeout stacked "
                "per future instead of being one shared deadline"
            )
        finally:
            stop.set()
            for _ in range(8):
                gate.release()
            queue.close()

    def test_drain_raises_when_closed_mid_drain(
        self, pool64, fast_registry, mixed_requests
    ):
        # Regression: drain() returned silently when the queue was closed
        # mid-drain with backlog still present — reporting "drained" for a
        # backlog that will never be served.
        pool, gate = _gated_single_replica_pool(pool64, fast_registry)
        queue = ServingQueue(pool, max_wait_ms=0.0, max_queue_depth=8)
        try:
            queue.submit(mixed_requests[0])
            traces.wait_for_inflight(queue)
            closer = threading.Timer(0.05, lambda: queue.close(timeout=0.2))
            closer.start()
            with pytest.raises(ServerClosedError, match="drain"):
                queue.drain(timeout=30)
            closer.join()
        finally:
            gate.set()
            queue.close()

    def test_drain_after_fully_served_close_is_silent(
        self, pool64, mixed_requests
    ):
        # The closed-mid-drain error must not fire when close() raced in
        # after every request was genuinely served: nothing was discarded,
        # so the backlog really did drain.
        queue = ServingQueue(pool64, max_wait_ms=1.0)
        queue.serve(mixed_requests[:2], timeout=60)
        queue.drain(timeout=30)
        queue.close()
        queue.drain(timeout=5)  # closed, but nothing was ever dropped

    def test_batch_failure_gives_each_future_its_own_error(
        self, pool64, fast_registry
    ):
        # Regression: every future in a failed batch re-raised the *same*
        # exception instance, so concurrent result() calls raced on its
        # shared mutable __traceback__.
        pool = SessionPool.from_model(
            pool64.model, spec=pool64.spec, registry=fast_registry,
            num_replicas=1, max_batch_size=8,
        )

        def exploding_forward(requests, budgets_s=None):
            raise RuntimeError("boom")

        pool.sessions[0].forward = exploding_forward  # type: ignore[method-assign]
        queue = ServingQueue(pool, max_wait_ms=50.0)
        try:
            rng = np.random.default_rng(3)
            futures = [
                queue.submit(rng.integers(0, 100, size=6)) for _ in range(2)
            ]
            errors: list = []

            def probe(future) -> None:
                try:
                    future.result(timeout=30)
                except RuntimeError as exc:
                    errors.append(exc)

            threads = [
                threading.Thread(target=probe, args=(future,))
                for future in futures
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            assert len(errors) == 2
            first, second = errors
            assert first is not second  # each future owns its instance
            assert type(first) is RuntimeError and first.args == ("boom",)
            assert second.args == ("boom",)
            # The original failure stays attached for debugging.
            assert first.__cause__ is second.__cause__
            assert first.__cause__ is not None
            assert queue.stats().failed == 2
        finally:
            queue.close()

    def test_reset_stats_starts_a_new_window(self, pool64, mixed_requests):
        queue = ServingQueue(pool64, max_wait_ms=1.0)
        try:
            queue.serve(mixed_requests[:4], timeout=60)
            queue.drain(timeout=30)
            before = queue.stats()
            assert before.submitted == before.completed == 4
            assert before.p50_latency_ms > 0
            queue.reset_stats()
            zeroed = queue.stats()
            assert zeroed.submitted == zeroed.completed == 0
            assert zeroed.batches == 0 and zeroed.mean_batch_size == 0.0
            assert zeroed.p50_latency_ms == zeroed.p99_latency_ms == 0.0
            assert zeroed.mean_queue_wait_ms == zeroed.p99_queue_wait_ms == 0.0
            assert zeroed.mean_service_ms == zeroed.p99_service_ms == 0.0
            assert zeroed.throughput_rps == 0.0
            assert zeroed.queue_depth == 0
            assert zeroed.retry_attempts == zeroed.retried_requests == 0
            assert zeroed.breaker_opens == zeroed.breaker_closes == 0
            assert zeroed.integrity_failures == zeroed.expired_in_flight == 0
            queue.serve(mixed_requests[4:6], timeout=60)
            queue.drain(timeout=30)
            window = queue.stats()
            assert window.submitted == window.completed == 2
            assert window.p50_latency_ms > 0 and window.throughput_rps > 0
        finally:
            queue.close()

    def test_resilience_counters_zero_on_healthy_traffic(
        self, pool64, mixed_requests
    ):
        # Fault-free serving without retry/breaker configured must leave
        # every resilience counter untouched and report closed breakers.
        queue = ServingQueue(pool64, max_wait_ms=1.0)
        try:
            queue.serve(mixed_requests[:4], timeout=60)
            queue.drain(timeout=30)
            stats = queue.stats()
            assert stats.retry_attempts == stats.retried_requests == 0
            assert stats.breaker_opens == stats.breaker_closes == 0
            assert stats.integrity_failures == stats.expired_in_flight == 0
            for replica in stats.replicas:
                assert replica.errors == replica.timeouts == 0
                assert replica.breaker_state == "closed"
                # Served traffic seeds the latency EWMA.
                assert replica.service_ewma_ms >= 0.0
        finally:
            queue.close()

    def test_reset_stats_leaves_backlog_accounting_untouched(
        self, pool64, fast_registry, mixed_requests
    ):
        pool, gate = _gated_single_replica_pool(pool64, fast_registry)
        queue = ServingQueue(pool, max_wait_ms=0.0, max_queue_depth=2)
        try:
            first = queue.submit(mixed_requests[0])
            traces.wait_for_inflight(queue)
            queue.reset_stats()
            stats = queue.stats()
            assert stats.queue_depth == 1  # the in-flight request survives
            assert stats.max_queue_depth_seen == 1
            second = queue.submit(mixed_requests[1])
            with pytest.raises(QueueFullError):  # admission control intact
                queue.submit(mixed_requests[2])
            gate.set()
            assert first.result(timeout=60).shape[0] == mixed_requests[0].size
            assert second.result(timeout=60).shape[0] == mixed_requests[1].size
        finally:
            gate.set()
            queue.close()


class TestCalibratedServing:
    def test_wrapped_session_keeps_calibrated_tables(self, fast_registry):
        # Regression: wrapping a calibrated InferenceSession rebuilt the
        # backend from the bare spec, silently serving uncalibrated tables.
        spec = BackendSpec.nn_lut().with_calibration("layernorm")
        session = InferenceSession(
            SessionConfig(model_family="tiny", compute_dtype="float64"),
            spec=spec,
            registry=fast_registry,
        )
        rng = np.random.default_rng(5)
        samples = [rng.integers(0, 100, size=length) for length in (8, 12, 8, 16)]
        session.calibrate(samples)
        expected = session.forward(samples)
        with ServingQueue(session, max_wait_ms=1.0) as queue:
            results = queue.serve(samples, timeout=120)
        for i, (result, reference) in enumerate(zip(results, expected)):
            assert np.array_equal(result, reference), f"request {i}"

    def test_pool_calibrate_updates_every_replica(self, fast_registry):
        spec = BackendSpec.nn_lut().with_calibration("layernorm")
        pool = SessionPool(
            SessionConfig(model_family="tiny", compute_dtype="float64"),
            spec=spec,
            registry=fast_registry,
            num_replicas=2,
        )
        rng = np.random.default_rng(6)
        samples = [rng.integers(0, 100, size=length) for length in (8, 12, 8, 16)]
        calibrated = pool.calibrate(samples)
        for session in pool.sessions:
            assert session.lut_overrides["rsqrt"] is calibrated["rsqrt"]
            assert session.backend.name == "nn-lut-fp32+cal"
        # Every replica serves the calibrated backend identically.
        primary_out = pool.sessions[0].forward(samples)
        replica_out = pool.sessions[1].forward(samples)
        assert all(
            np.array_equal(a, b) for a, b in zip(primary_out, replica_out)
        )
        pooled_out = pool.forward(samples)
        assert all(
            np.array_equal(a, b) for a, b in zip(pooled_out, primary_out)
        )


class TestLatencySplit:
    """stats() separates queue-wait from service (dispatch -> result) time."""

    def test_phases_partition_the_total_latency(self, pool64, mixed_requests):
        queue = ServingQueue(pool64, max_wait_ms=1.0)
        try:
            queue.serve(mixed_requests, timeout=60)
            queue.drain(timeout=30)
            stats = queue.stats()
            assert stats.mean_service_ms > 0.0
            assert stats.mean_queue_wait_ms >= 0.0
            assert stats.p50_service_ms <= stats.p99_service_ms
            assert stats.p50_queue_wait_ms <= stats.p99_queue_wait_ms
            # Every request's latency is exactly queue-wait + service (same
            # timestamps), so the means partition the mean latency.
            assert stats.mean_latency_ms == pytest.approx(
                stats.mean_queue_wait_ms + stats.mean_service_ms, rel=1e-9
            )
        finally:
            queue.close()

    def test_backlog_shows_up_as_queue_wait_not_service(
        self, pool64, fast_registry, mixed_requests
    ):
        # One gated replica: the in-flight request accrues *service* time
        # (its forward is blocked), while the request queued behind it
        # accrues *queue-wait* time.  The split must attribute each side
        # correctly — that is what makes IPC/serving cost visible per
        # window instead of being smeared into one latency number.
        pool, gate = _gated_single_replica_pool(pool64, fast_registry)
        queue = ServingQueue(pool, max_wait_ms=0.0, max_queue_depth=8)
        try:
            first = queue.submit(mixed_requests[0])
            traces.wait_for_inflight(queue)
            second = queue.submit(mixed_requests[1])
            time.sleep(0.15)  # both requests age behind the gate
            gate.set()
            assert first.result(timeout=60).shape[0] == mixed_requests[0].size
            assert second.result(timeout=60).shape[0] == mixed_requests[1].size
            stats = queue.stats()
            assert stats.p99_service_ms >= 100.0  # the gated forward
            assert stats.p99_queue_wait_ms >= 100.0  # the request behind it
        finally:
            gate.set()
            queue.close()


class TestPerFutureErrorRobustness:
    """The batch-failure clone helper must never raise (see _per_future_error).

    Regression: the clone attempts were wrapped in ``except Exception``, so an
    exception class whose re-construction raised a *BaseException* — or whose
    ``__new__`` returned a non-exception — escaped the helper inside
    ``_worker_loop``'s error path, killed the worker thread, and left every
    future in the batch unresolved: the worker-side error was silently eaten
    and clients hung until their own timeouts.
    """

    def test_baseexception_raising_constructor_is_contained(self):
        from repro.api.scheduling.fleet import _per_future_error

        class Hostile(RuntimeError):
            def __init__(self, *args):
                if args and args[0] == "armed":
                    raise KeyboardInterrupt("re-construction bomb")
                super().__init__(*args)

        original = Hostile("disarmed")
        original.args = ("armed",)
        clone = _per_future_error(original)  # must not raise KeyboardInterrupt
        assert isinstance(clone, BaseException)
        assert clone.__cause__ is original

    def test_constructor_returning_non_exception_is_contained(self):
        from repro.api.scheduling.fleet import _per_future_error

        class Weird(RuntimeError):
            def __new__(cls, *args):
                return 42  # copy.copy follows __reduce_ex__ into this too

        original = RuntimeError.__new__(Weird)
        original.args = ("x",)
        clone = _per_future_error(original)  # must not AttributeError on 42
        assert isinstance(clone, BaseException)
        assert clone.__cause__ is original

    def test_worker_error_is_delivered_not_silently_eaten(
        self, pool64, fast_registry
    ):
        class Hostile(RuntimeError):
            def __init__(self, *args):
                if args and args[0] == "armed":
                    raise KeyboardInterrupt("re-construction bomb")
                super().__init__(*args)

        pool = SessionPool.from_model(
            pool64.model, spec=pool64.spec, registry=fast_registry,
            num_replicas=1, max_batch_size=8,
        )

        def exploding_forward(requests, budgets_s=None):
            exc = Hostile("disarmed")
            exc.args = ("armed",)
            raise exc

        pool.sessions[0].forward = exploding_forward  # type: ignore[method-assign]
        queue = ServingQueue(pool, max_wait_ms=10.0)
        try:
            rng = np.random.default_rng(11)
            future = queue.submit(rng.integers(0, 100, size=6))
            with pytest.raises(RuntimeError) as excinfo:
                future.result(timeout=30)
            assert isinstance(excinfo.value.__cause__, Hostile)
            # The worker thread survived: the next request is also answered
            # (with its own failure), not stranded behind a dead worker.
            second = queue.submit(rng.integers(0, 100, size=4))
            with pytest.raises(RuntimeError):
                second.result(timeout=30)
            assert queue.stats().failed == 2
        finally:
            queue.close()
