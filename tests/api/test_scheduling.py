"""The scheduling package: forming, admission, queue parity, membership.

The parity-critical contract: queued serving is bitwise-equal to
single-session serving under float64.  Which replica serves a batch is
timing-dependent — every idle worker pulls the oldest batch off the one
ready queue — and must never change a result, because every replica
serves the same frozen model.  The membership gates: retiring the replica
that is currently serving a batch lets the in-flight work finish on it
(and gives it nothing new), hot-adds join mid-traffic, a dead replica is
retired (and optionally replaced) instead of poisoning the queue, the
queue closes itself once no member can take work, and a trace-replay
burst with churn mid-run loses no futures and double-serves none.  None
of these tests depends on which replica takes a batch.  The virtual-time
replay of the pure core, and the replay numbers the circuit breaker and
``RetryPolicy`` are kept on, are in ``test_replay.py``.
"""

import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import (
    BackendSpec,
    InferenceSession,
    ReplicaStats,
    RequestBatcher,
    ServerClosedError,
    ServingQueue,
    SessionConfig,
    SessionPool,
    ShardedPool,
)
from repro.api.scheduling import (
    AdmissionController,
    BatchFormer,
    CircuitBreakerConfig,
    Pending,
    ReplicaHealth,
    ServingFuture,
)
from repro.api.scheduling.admission import QueueFullError
from repro.api.scheduling.stats import StatsBoard

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


def _fresh_pool(pool64, fast_registry, num_replicas=2):
    """A private pool over the shared frozen model (safe to mutate/retire)."""
    return SessionPool.from_model(
        pool64.model, spec=pool64.spec, registry=fast_registry,
        num_replicas=num_replicas, max_batch_size=3,
    )


# --------------------------------------------------------------------------- #
# Batch former and admission (unit level)
# --------------------------------------------------------------------------- #
def _pending(length, submitted_at=0.0, deadline_at=None):
    return Pending(
        tokens=np.arange(length, dtype=np.int64),
        future=ServingFuture(),
        submitted_at=submitted_at,
        deadline_at=deadline_at,
    )


class TestBatchFormer:
    def test_groups_by_exact_length_in_arrival_order(self):
        former = BatchFormer(
            max_batch_size=3, bucket_size=1, max_sequence_length=64, max_wait_s=0.01
        )
        window = [_pending(n) for n in (5, 9, 5, 5, 9, 5)]
        groups = former.form(window)
        # Exact-length grouping, stable within a length, chunked to 3 rows.
        assert [[p.tokens.size for p in g] for g in groups] == [[5, 5, 5], [5], [9, 9]]
        assert groups[0][0] is window[0] and groups[0][1] is window[2]

    # The pin on the single grouping rule (the float64 parity contract):
    # whatever the window, the queue forms exactly the batcher's plan.
    # Every max_sequence_length here is off the 4- and 8-bucket grid, so
    # the clamp to the model maximum is exercised too.
    @settings(max_examples=150, deadline=None)
    @given(
        st.sampled_from([13, 30, 61]).flatmap(
            lambda longest: st.tuples(
                st.just(longest),
                st.lists(st.integers(1, longest), max_size=200),
            )
        ),
        st.sampled_from([1, 4, 8]),
        st.integers(1, 32),
    )
    def test_form_returns_the_batchers_plan(
        self, sized_window, bucket_size, max_batch_size
    ):
        max_sequence_length, lengths = sized_window
        former = BatchFormer(
            max_batch_size=max_batch_size, bucket_size=bucket_size,
            max_sequence_length=max_sequence_length, max_wait_s=0.0,
        )
        window = [_pending(n) for n in lengths]
        position = {id(pending): i for i, pending in enumerate(window)}
        plan = RequestBatcher(max_batch_size, bucket_size).plan(
            lengths, max_sequence_length
        )
        assert [
            tuple(position[id(pending)] for pending in group)
            for group in former.form(window)
        ] == [indices for _, indices in plan]

    def test_saturated_scales_with_live_replicas(self):
        former = BatchFormer(
            max_batch_size=4, bucket_size=1, max_sequence_length=64, max_wait_s=0.0
        )
        assert former.saturated(4, live_replicas=1)
        assert not former.saturated(4, live_replicas=2)
        assert former.saturated(8, live_replicas=2)
        # A fleet transiently at zero members still saturates at one batch.
        assert former.saturated(4, live_replicas=0)

    def test_window_deadline_anchors_at_oldest(self):
        former = BatchFormer(
            max_batch_size=4, bucket_size=1, max_sequence_length=64, max_wait_s=0.25
        )
        assert former.window_deadline(10.0) == pytest.approx(10.25)


class TestAdmission:
    def test_backlog_bound_and_release(self):
        board = StatsBoard()
        admission = AdmissionController(2, board)
        admission.admit()
        admission.admit()
        with pytest.raises(QueueFullError, match="max_queue_depth=2"):
            admission.admit()
        assert board.rejected == 1
        admission.release(1)
        admission.admit()  # capacity returned
        assert admission.backlog == 2

    def test_validate_contract(self):
        validate = AdmissionController.validate
        with pytest.raises(ValueError, match="1-D"):
            validate(np.zeros((2, 2), dtype=np.int64), 64, None)
        with pytest.raises(ValueError, match="empty"):
            validate(np.zeros(0, dtype=np.int64), 64, None)
        with pytest.raises(ValueError, match="integer"):
            validate(np.zeros(3, dtype=np.float32), 64, None)
        with pytest.raises(ValueError, match="maximum"):
            validate(np.zeros(65, dtype=np.int64), 64, None)
        with pytest.raises(ValueError, match="deadline_ms"):
            validate(np.zeros(3, dtype=np.int64), 64, -1.0)
        out = validate([1, 2, 3], 64, None)
        assert out.dtype.kind == "i" and out.size == 3

    def test_split_expired_partitions_by_deadline(self):
        live = _pending(3, deadline_at=None)
        fresh = _pending(3, deadline_at=100.0)
        lapsed = _pending(3, deadline_at=1.0)
        boundary = _pending(3, deadline_at=50.0)  # zero budget left: expired
        kept, expired = AdmissionController.split_expired(
            [live, fresh, lapsed, boundary], 50.0
        )
        assert kept == [live, fresh] and expired == [lapsed, boundary]


# --------------------------------------------------------------------------- #
# Parity through the queue (float64, the hard gate)
# --------------------------------------------------------------------------- #
class TestQueueParity:
    def test_queue_bitwise_matches_oracle(
        self, pool64, single64, mixed_requests
    ):
        with ServingQueue(pool64, max_wait_ms=1.0) as queue:
            served = queue.serve(mixed_requests, timeout=60)
        oracle = single64.forward(mixed_requests)
        for i, (a, b) in enumerate(zip(served, oracle)):
            assert np.array_equal(a, b), f"request {i}"

    def test_concurrent_clients_bitwise_match_oracle(
        self, pool64, single64, mixed_requests
    ):
        # Concurrent clients make both batch placement and window timing
        # race; results must not (every replica serves the same frozen
        # float64 model, and exact-length batches are parity-safe).
        futures: list = [None] * len(mixed_requests)
        with ServingQueue(pool64, max_wait_ms=1.0) as queue:

            def client(offset: int) -> None:
                for i in range(offset, len(mixed_requests), 3):
                    futures[i] = queue.submit(mixed_requests[i])

            threads = [
                threading.Thread(target=client, args=(c,)) for c in range(3)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            served = [future.result(60) for future in futures]
            stats = queue.stats()
        oracle = single64.forward(mixed_requests)
        for i, (a, b) in enumerate(zip(served, oracle)):
            assert np.array_equal(a, b), f"request {i}"
        assert stats.completed == len(mixed_requests)

    def test_per_replica_stats_rows(self, pool64, mixed_requests):
        with ServingQueue(pool64, max_wait_ms=1.0) as queue:
            queue.serve(mixed_requests, timeout=60)
            stats = queue.stats()
        assert [r.replica_id for r in stats.replicas] == [0, 1]
        assert all(isinstance(r, ReplicaStats) for r in stats.replicas)
        assert stats.live_replicas == 2
        assert sum(r.completed for r in stats.replicas) == len(mixed_requests)
        assert sum(r.batches_served for r in stats.replicas) == stats.batches
        assert all(r.in_flight_requests == 0 for r in stats.replicas)
        assert stats.replicas_added == 0 and stats.replicas_retired == 0


# --------------------------------------------------------------------------- #
# Live membership
# --------------------------------------------------------------------------- #
class TestMembership:
    def test_retire_waits_for_inflight_and_routes_nothing_new(
        self, pool64, fast_registry, mixed_requests
    ):
        pool = _fresh_pool(pool64, fast_registry)
        gate = threading.Event()
        calls: list = []  # replica id of every forward, in call order

        def gated(replica_id, inner):
            def forward(requests, budgets_s=None):
                calls.append(replica_id)
                if len(calls) == 1:
                    gate.wait(30)  # the first batch stays mid-service
                return inner(requests, budgets_s)

            return forward

        for replica_id, session in enumerate(pool.sessions):
            session.forward = gated(replica_id, session.forward)  # type: ignore[method-assign]
        queue = ServingQueue(pool, max_wait_ms=0.0)
        try:
            first = queue.submit(mixed_requests[0])
            traces.wait_for_inflight(queue)
            busy = calls[0]  # whichever replica pulled the first batch
            survivor = 1 - busy

            retired = threading.Event()

            def retire() -> None:
                queue.retire_replica(busy, timeout=30)
                retired.set()

            thread = threading.Thread(target=retire, daemon=True)
            thread.start()
            # New work submitted mid-retire is served by the survivor while
            # the retiring replica is still stuck in its forward ...
            second = queue.submit(mixed_requests[1])
            assert second.result(timeout=60).shape[0] == mixed_requests[1].size
            assert calls == [busy, survivor]
            # ... and the retire blocks on that in-flight batch.
            assert not retired.is_set()
            gate.set()
            thread.join(30)
            assert retired.is_set()
            assert first.result(timeout=60).shape[0] == mixed_requests[0].size
            stats = queue.stats()
            assert [r.replica_id for r in stats.replicas] == [survivor]
            assert stats.replicas_retired == 1
            assert stats.replicas[0].completed == 1  # the survivor served it
            assert pool.num_replicas == 1  # released from the pool too
        finally:
            gate.set()
            queue.close()

    def test_cannot_retire_or_drain_last_replica(self, pool64, fast_registry):
        pool = _fresh_pool(pool64, fast_registry, num_replicas=1)
        queue = ServingQueue(pool, max_wait_ms=0.0)
        try:
            with pytest.raises(ValueError, match="last live replica"):
                queue.retire_replica(0)
            with pytest.raises(ValueError, match="last live replica"):
                queue.drain_replica(0)
            with pytest.raises(ValueError, match="unknown replica id"):
                queue.retire_replica(99)
        finally:
            queue.close()

    def test_drain_replica_stops_new_routing(self, pool64, fast_registry, mixed_requests):
        pool = _fresh_pool(pool64, fast_registry)
        queue = ServingQueue(pool, max_wait_ms=0.0)
        try:
            queue.drain_replica(0)
            stats = queue.stats()
            assert stats.replicas[0].draining and not stats.replicas[1].draining
            assert stats.live_replicas == 1
            served = queue.serve(mixed_requests[:4], timeout=60)
            assert all(out is not None for out in served)
            # Everything went to the non-draining member.
            stats = queue.stats()
            survivor = stats.replicas[1]
            assert survivor.completed == 4
        finally:
            queue.close()

    def test_drained_member_finishes_its_in_flight_batch_only(
        self, pool64, fast_registry, mixed_requests
    ):
        pool = _fresh_pool(pool64, fast_registry)
        gate = threading.Event()
        calls: list = []  # replica id of every forward, in call order

        def gated(replica_id, inner):
            def forward(requests, budgets_s=None):
                calls.append(replica_id)
                if len(calls) == 1:
                    gate.wait(30)  # the first batch stays mid-service
                return inner(requests, budgets_s)

            return forward

        for replica_id, session in enumerate(pool.sessions):
            session.forward = gated(replica_id, session.forward)  # type: ignore[method-assign]
        queue = ServingQueue(pool, max_wait_ms=0.0)
        try:
            first = queue.submit(mixed_requests[0])
            traces.wait_for_inflight(queue)
            busy = calls[0]
            queue.drain_replica(busy)
            later = [queue.submit(tokens) for tokens in mixed_requests[1:4]]
            gate.set()
            assert first.result(timeout=60).shape[0] == mixed_requests[0].size
            for future, tokens in zip(later, mixed_requests[1:4]):
                assert future.result(timeout=60).shape[0] == tokens.size
            # The drained member served the batch it held, and nothing else.
            assert calls.count(busy) == 1
            rows = {r.replica_id: r for r in queue.stats().replicas}
            assert rows[busy].draining and rows[busy].completed == 1
            assert rows[1 - busy].completed == 3
        finally:
            gate.set()
            queue.close()

    def test_hot_add_under_load(self, pool64, single64, fast_registry, mixed_requests):
        pool = _fresh_pool(pool64, fast_registry, num_replicas=1)
        queue = ServingQueue(pool, max_wait_ms=1.0)
        try:
            first_half = [queue.submit(tokens) for tokens in mixed_requests[:5]]
            new_id = queue.add_replica()
            assert new_id == 1
            assert pool.num_replicas == 2
            second_half = [queue.submit(tokens) for tokens in mixed_requests[5:]]
            results = [f.result(60) for f in first_half + second_half]
            oracle = single64.forward(mixed_requests)
            for i, (a, b) in enumerate(zip(results, oracle)):
                assert np.array_equal(a, b), f"request {i}"
            stats = queue.stats()
            assert stats.replicas_added == 1
            assert stats.live_replicas == 2
            assert stats.completed == len(mixed_requests)
        finally:
            queue.close()

    def test_dead_replica_is_retired_and_replaced(
        self, pool64, fast_registry, mixed_requests
    ):
        pool = _fresh_pool(pool64, fast_registry)
        gate = threading.Event()
        inner = pool.sessions[0].forward

        def gated_forward(requests, budgets_s=None):
            gate.wait(30)
            return inner(requests, budgets_s)

        def dying_forward(requests, budgets_s=None):
            raise RuntimeError("replica poisoned")

        pool.sessions[0].forward = gated_forward  # type: ignore[method-assign]
        pool.sessions[1].forward = dying_forward  # type: ignore[method-assign]
        pool.sessions[1].defunct = True  # what a dead shard client reports
        queue = ServingQueue(
            pool, max_wait_ms=50.0, replace_dead_replicas=True
        )
        try:
            # Two batches in one window: the healthy replica holds one in
            # its gated forward, so the dead replica must pull the other —
            # whichever of the two it is — fail it, and leave the fleet.
            futures = [queue.submit(tokens) for tokens in mixed_requests[:2]]
            with queue._cond:
                assert queue._cond.wait_for(
                    lambda: queue._core.board.replicas_added >= 1, 10
                ), "replacement never joined"
            gate.set()
            outcomes = []
            for future in futures:
                try:
                    outcomes.append(future.result(timeout=60))
                except RuntimeError:
                    outcomes.append(None)
            assert sum(1 for out in outcomes if out is None) == 1
            stats = queue.stats()
            assert stats.replicas_retired == 1
            assert stats.live_replicas == 2  # survivor + replacement
            assert all(r.replica_id != 1 for r in stats.replicas)
            # The replacement actually serves traffic.
            served = queue.serve(mixed_requests[4:8], timeout=60)
            assert len(served) == 4
        finally:
            gate.set()
            queue.close()

    def test_fleet_death_counts_only_members_that_can_take_work(
        self, pool64, fast_registry, mixed_requests
    ):
        # Regression: the fleet counted a draining member as alive, so once
        # the last routable replica died the queue stayed open, accepted
        # requests nothing would ever serve, and let them time out.
        pool = _fresh_pool(pool64, fast_registry)

        def dying_forward(requests, budgets_s=None):
            raise RuntimeError("replica poisoned")

        queue = ServingQueue(pool, max_wait_ms=0.0)
        try:
            queue.drain_replica(0)
            pool.sessions[1].forward = dying_forward  # type: ignore[method-assign]
            pool.sessions[1].defunct = True
            with pytest.raises(RuntimeError, match="poisoned"):
                queue.serve_one(mixed_requests[0], timeout=60)
            with queue._cond:
                assert queue._cond.wait_for(lambda: queue._core.closed, 10), (
                    "the queue stayed open with no member able to serve"
                )
            with pytest.raises(ServerClosedError):
                queue.submit(mixed_requests[1])
            stats = queue.stats()
            assert stats.live_replicas == 0
            assert [r.replica_id for r in stats.replicas] == [0]
        finally:
            queue.close()

    def test_sharded_pool_hot_add_and_retire(self, fast_registry, mixed_requests):
        config = SessionConfig(
            model_family="tiny", compute_dtype="float64", max_batch_size=3
        )
        pool = ShardedPool(
            config, spec=BackendSpec.nn_lut(), registry=fast_registry,
            num_replicas=1,
        )
        try:
            oracle = pool.template.forward(mixed_requests[:4])
            with ServingQueue(pool, max_wait_ms=1.0) as queue:
                queue.serve(mixed_requests[:2], timeout=120)
                new_id = queue.add_replica()
                assert pool.num_replicas == 2
                served = queue.serve(mixed_requests[:4], timeout=120)
                for i, (a, b) in enumerate(zip(served, oracle)):
                    assert np.array_equal(a, b), f"request {i}"
                queue.retire_replica(new_id, timeout=60)
                assert pool.num_replicas == 1
                # The worker process is truly gone, not just unrouted.
                again = queue.serve(mixed_requests[:4], timeout=120)
                for i, (a, b) in enumerate(zip(again, oracle)):
                    assert np.array_equal(a, b), f"request {i}"
                stats = queue.stats()
                assert stats.replicas_added == 1 and stats.replicas_retired == 1
        finally:
            pool.close()


def test_breaker_opens_waits_out_its_cooldown_and_half_opens():
    # The clock is explicit, so the whole cycle is checked without threads:
    # the reopen ETA is what an idle worker with an open breaker waits.
    health = ReplicaHealth(CircuitBreakerConfig(failure_threshold=2, cooldown_s=1.0))
    assert not health.record_failure(10.0, timeout=False)
    assert health.admits(10.0) and health.reopen_eta_s(10.0) is None
    assert health.record_failure(10.5, timeout=True)  # second in a row: open
    assert (health.state, health.errors, health.timeouts) == ("open", 2, 1)
    assert not health.admits(11.0)
    assert health.reopen_eta_s(11.0) == pytest.approx(0.5)
    assert health.admits(11.5) and health.state == "half_open"
    assert health.record_failure(11.6, timeout=False)  # failed probe: open again
    assert health.reopen_eta_s(11.6) == pytest.approx(1.0)
    assert health.admits(12.6)
    assert health.record_success(3.0) and health.state == "closed"
    # Without a breaker the ledger counts but never refuses work.
    ledger = ReplicaHealth(None)
    for now in range(5):
        assert not ledger.record_failure(float(now), timeout=False)
    assert ledger.admits(5.0) and ledger.reopen_eta_s(5.0) is None
    assert ledger.errors == 5


@pytest.mark.parametrize(
    "breaker", [None, CircuitBreakerConfig(), CircuitBreakerConfig(failure_threshold=1)]
)
def test_service_ewma_is_the_same_with_and_without_a_breaker(breaker):
    health = ReplicaHealth(breaker)
    seen = []
    for service_ms in (10.0, 20.0, 5.0):
        health.record_success(service_ms)
        seen.append(health.service_ewma_ms)
    # First sample seeds the average; each later one moves it a fifth of the way.
    assert seen == pytest.approx([10.0, 12.0, 10.6])


# --------------------------------------------------------------------------- #
# Trace replay: burst + churn, no lost or double-served futures
# --------------------------------------------------------------------------- #
class TestTraceReplay:
    def test_trace_generation_is_seed_deterministic(self):
        first = traces.generate_trace(
            num_requests=32, duration_s=0.5, seed=3, max_length=16
        )
        again = traces.generate_trace(
            num_requests=32, duration_s=0.5, seed=3, max_length=16
        )
        assert first.arrivals_s == again.arrivals_s
        assert first.lengths == again.lengths
        assert all(
            np.array_equal(a, b) for a, b in zip(first.requests, again.requests)
        )
        assert first.burst_windows == again.burst_windows
        other = traces.generate_trace(
            num_requests=32, duration_s=0.5, seed=4, max_length=16
        )
        assert first.arrivals_s != other.arrivals_s

    def test_trace_shape_contract(self):
        trace = traces.generate_trace(
            num_requests=64, duration_s=1.0, seed=5, min_length=2, max_length=16,
            num_bursts=2,
        )
        assert len(trace.arrivals_s) == 64 and len(trace.requests) == 64
        assert list(trace.arrivals_s) == sorted(trace.arrivals_s)
        assert all(0.0 <= at <= 1.0 for at in trace.arrivals_s)
        assert all(2 <= length <= 16 for length in trace.lengths)
        assert len(trace.burst_windows) == 2
        assert any(trace.in_burst(i) for i in range(64))  # bursts attract mass

    def test_replay_with_midrun_churn_loses_nothing(
        self, pool64, single64, fast_registry
    ):
        trace = traces.generate_trace(
            num_requests=24, duration_s=0.4, seed=11,
            min_length=2, max_length=16, vocab_size=100,
        )
        pool = _fresh_pool(pool64, fast_registry, num_replicas=2)
        queue = ServingQueue(pool, max_wait_ms=1.0)
        try:
            result = traces.replay(
                queue,
                trace,
                actions=[
                    (0.12, queue.add_replica),
                    (0.25, lambda: queue.retire_replica(0, timeout=30)),
                ],
            )
            stats = queue.stats()
        finally:
            queue.close()
        assert result.failed == 0, [o.error for o in result.outcomes if not o.ok]
        # No future lost (everything completed) and none double-served (the
        # completion count matches the request count exactly).
        assert result.completed == trace.config.num_requests
        assert stats.completed == trace.config.num_requests
        assert stats.queue_depth == 0
        assert stats.replicas_added == 1 and stats.replicas_retired == 1
        assert stats.live_replicas == 2
        # Bitwise parity vs the single-session oracle, churn and all.
        oracle = single64.forward(list(trace.requests))
        for outcome in result.outcomes:
            assert np.array_equal(outcome.result, oracle[outcome.index]), (
                f"request {outcome.index}"
            )

    def test_burst_digest_partitions_outcomes(self):
        trace = traces.generate_trace(
            num_requests=40, duration_s=0.5, seed=9, max_length=16
        )
        outcomes = tuple(
            traces.ReplayOutcome(
                index=i, arrival_s=trace.arrivals_s[i], length=trace.lengths[i],
                in_burst=trace.in_burst(i), latency_ms=float(1 + i % 7),
                error=None,
            )
            for i in range(40)
        )
        digest = traces.burst_digest(
            traces.ReplayResult(outcomes=outcomes, elapsed_s=0.5)
        )
        assert digest["failed"] == 0
        assert digest["all"]["count"] == 40
        assert digest["burst"]["count"] + digest["steady"]["count"] == 40
        assert digest["all"]["p99_ms"] >= digest["all"]["p50_ms"] > 0.0
