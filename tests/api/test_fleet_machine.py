"""Generated interleavings of fleet traffic, membership changes and faults.

Two hypothesis state machines.  The first drives the pure scheduling core
(:class:`~repro.api.scheduling.fleet.Fleet`) directly on a virtual clock:
submits with and without deadlines, clock steps, window closes, takes and
settles (served, retryable, fatal, skipped in flight), hot-adds, drains,
retires, kills and close, over a fleet drawn with or without retries and a
breaker.  After every step it checks:

* the counts conserve: every admitted request is either still in the
  system (pending, formed or in flight, which is exactly the admission
  backlog) or resolved exactly once, and the stats board agrees;
* nothing dispatches to an open-breaker member;
* no ready batch waits while a member that can take it idles, and each
  take is the oldest batch the member may take (never its own failed
  batch while another member can take it, never one before its backoff);
* nothing is dispatched, so nothing is served, at or after its deadline.

The machine reaches some states only in some runs — one member's breaker
open while another fails once, the breaker stall — so example tests
below pin those on the same virtual clock.

The second drives a threaded :class:`ServingQueue` over a stub
:class:`ReplicaPool` whose replicas answer at once, mixing submits with
hot-adds, drains, retires, kills (a replica turning ``defunct``, as a dead
shard worker does) and close.  After every step it drains the queue and
checks that every future resolves exactly once, nothing is left in the
system, the counts conserve and no forward runs on a replica after its
retire returned.

Example tests pin single scenarios on virtual time (retry backoff, the
breaker stall, the expiry boundary, the latency split, each way a
dispatch settles, a defunct member), and a stress test
has more replica workers than cores take from the one ready queue under a
shortened interpreter switch interval.  Like the other serving suites the
module runs under the runtime lock audit.
"""

import sys
import threading
import types

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
    run_state_machine_as_test,
)

from repro.api import (
    CircuitBreakerConfig,
    DeadlineExceededError,
    QueueFullError,
    ReplicaPool,
    RetryPolicy,
    ServerClosedError,
    ServingQueue,
)
from repro.api.scheduling import BatchFormer, Fleet, Pending, ServingFuture

pytestmark = pytest.mark.usefixtures("lock_audit")


# --------------------------------------------------------------------------- #
# The core on virtual time
# --------------------------------------------------------------------------- #
class _Handle:
    """A replica handle the core never calls; ``dead`` marks a killed replica."""

    def __init__(self) -> None:
        self.dead = False


def _core(replicas=2, max_wait_s=0.0, max_queue_depth=64, **kwargs) -> Fleet:
    former = BatchFormer(
        max_batch_size=3, bucket_size=1, max_sequence_length=16,
        max_wait_s=max_wait_s,
    )
    return Fleet(
        [_Handle() for _ in range(replicas)], former, max_queue_depth, **kwargs
    )


def _request(length, now, deadline_s=None) -> Pending:
    """A request submitted at ``now`` (the core never touches its future)."""
    return Pending(
        tokens=np.arange(length), future=None, submitted_at=now,
        deadline_at=None if deadline_s is None else now + deadline_s,
    )


def _rows(batch):
    """What a replica returns for ``batch``: one row block per request."""
    return [np.zeros((p.tokens.size, 1)) for p in batch.requests]


def _able(member, now) -> bool:
    """The spec of "a member that can take work": routable, breaker admitting."""
    return member.routable and not member.health.reopen_eta_s(now)


class CoreMachine(RuleBasedStateMachine):
    """The pure core, driven directly on a virtual clock.

    Every rule ends the way a notify does in ``ServingQueue``: the scheduler
    closes a due window and every idle member takes what it may
    (:meth:`_notify`), so a batch waits only when the invariant allows it.
    """

    DEPTH = 8

    # Options run richest first: hypothesis leans on the first of each.
    @initialize(
        replicas=st.sampled_from([2, 3, 1]),
        max_wait_s=st.sampled_from([0.0, 0.005]),
        retry=st.sampled_from([
            RetryPolicy(backoff_base_s=0.01, backoff_max_s=0.02, retry_budget=10**6),
            None,
        ]),
        breaker=st.sampled_from([
            CircuitBreakerConfig(failure_threshold=2, cooldown_s=0.05),
            CircuitBreakerConfig(failure_threshold=1, cooldown_s=0.05),
            None,
        ]),
    )
    def build(self, replicas, max_wait_s, retry, breaker):
        self.now = 0.0
        self.core = _core(
            replicas, max_wait_s, self.DEPTH,
            retry=retry, breaker=breaker, replace_dead=True,
        )
        self.admitted: list = []
        self.resolved: dict = {}  # id(pending) -> result or exception

    def _member(self, index, busy=None):
        members = [
            m for _, m in sorted(self.core.members.items())
            if busy is None or (m.batch is not None) == busy
        ]
        return members[index % len(members)] if members else None

    def _resolve(self, outcomes) -> None:
        for pending, outcome in outcomes:
            assert id(pending) not in self.resolved, "a request resolved twice"
            self.resolved[id(pending)] = outcome

    def _notify(self) -> None:
        core, now = self.core, self.now
        _, wake_at = core.form(now)
        assert wake_at is None or wake_at > now
        taking = True
        while taking:
            taking = False
            for member in list(core.members.values()):
                if member.batch is not None:
                    continue
                able = _able(member, now)
                another = any(
                    _able(m, now) for m in core.members.values() if m is not member
                )
                # The oldest batch it may take: due, and not its own failure
                # while another member can take that.
                oldest = next((
                    b for b in core.ready
                    if b.not_before <= now
                    and not (another and b.failed_on == member.replica_id)
                ), None)
                batch, outcomes, wake_at = core.take(member, now)
                self._resolve(outcomes)
                for pending, error in outcomes:
                    assert isinstance(error, DeadlineExceededError)
                    assert pending.deadline_at <= now
                if batch is None and not outcomes:
                    assert wake_at is None or wake_at > now
                    assert not (able and oldest), "idled beside a batch it may take"
                    continue
                taking = True
                assert able, "dispatched to an open breaker or a drained member"
                assert batch is None or batch is oldest, "took the wrong batch"

    @rule(
        lengths=st.lists(st.integers(1, 8), min_size=1, max_size=4),
        deadline_s=st.sampled_from([None, 0.0, 0.002, 0.01, 0.1]),
    )
    def submit(self, lengths, deadline_s):
        for length in lengths:
            pending = _request(length, self.now, deadline_s)
            if self.core.closed:
                with pytest.raises(ServerClosedError):
                    self.core.submit(pending)
            elif self.core.admission.backlog >= self.DEPTH:
                with pytest.raises(QueueFullError):  # bounds the whole backlog
                    self.core.submit(pending)
            else:
                self.core.submit(pending)
                self.admitted.append(pending)
        self._notify()

    @rule(dt=st.sampled_from([None, 0.0, 0.002, 0.01, 0.05]))
    def advance(self, dt):
        # dt=None steps straight to the next instant time alone changes
        # something: a window closing, a backoff ending, a breaker reopening.
        core, now = self.core, self.now
        if dt is not None:
            self.now += dt
        else:
            wakes = [b.not_before for b in core.ready if b.not_before > now]
            wakes += [
                m.health.reopen_at
                for m in core.members.values()
                if m.health.reopen_eta_s(now)
            ]
            _, window_end = core.form(now)
            wakes += [window_end] if window_end is not None else []
            self.now = min(wakes, default=now)
        self._notify()

    @precondition(lambda self: any(m.batch for m in self.core.members.values()))
    @rule(
        index=st.integers(0, 7),
        outcome=st.sampled_from(["retryable", "served", "fatal", "skipped"]),
    )
    def settle(self, index, outcome):
        member = self._member(index, busy=True)
        batch, dead = member.batch, member.session.dead
        results = error = None
        if dead or outcome == "retryable":
            error = ConnectionError("replica fault")
        elif outcome == "fatal":
            error = RuntimeError("model fault")
        else:
            results = _rows(batch)
            if outcome == "skipped":  # the deadlines lapsed in flight
                results = [
                    r[:0] if p.deadline_at is not None else r
                    for p, r in zip(batch.requests, results)
                ]
        outcomes, replace = self.core.settle(
            member, batch, self.now, results, error, defunct=dead
        )
        self._resolve(outcomes)
        for pending, outcome_value in outcomes:
            if isinstance(outcome_value, np.ndarray):
                assert pending.deadline_at is None or (
                    batch.dispatched_at < pending.deadline_at
                ), "served a request dispatched at or after its deadline"
        if replace:
            self.core.add(_Handle())
        self._notify()

    @rule(
        action=st.sampled_from(["drain", "retire", "kill", "add"]),
        index=st.integers(0, 7),
    )
    def membership(self, action, index):
        core, member = self.core, self._member(index)
        if action == "add":
            if core.closed:
                with pytest.raises(ServerClosedError):
                    core.add(_Handle())
            else:
                core.add(_Handle())
        elif member is None:
            return
        elif action == "kill":
            member.session.dead = True  # found out at its next failed batch
        elif not any(m.routable for m in core.members.values() if m is not member):
            with pytest.raises(ValueError, match="last live replica"):
                getattr(core, action)(member.replica_id)
        elif action == "retire":
            core.retire(member.replica_id)
            # Gone at once unless it has a batch in flight, then when it settles.
            assert (member.replica_id in core.members) == (member.batch is not None)
        else:
            core.drain(member.replica_id)
            assert member.draining and not member.routable
        self._notify()

    # Only after some traffic settled: a closed fleet takes nothing more,
    # so an early close would leave the rest of a run with nothing to check.
    @precondition(lambda self: len(self.resolved) >= 8)
    @rule()
    def close(self):
        self._resolve(self.core.close("closed by the test"))
        assert self.core.close("again") == []
        self._notify()

    @invariant()
    def counts_conserve(self):
        core = self.core
        in_flight = [m.batch for m in core.members.values() if m.batch is not None]
        in_system = (
            len(core.pending)
            + sum(len(b.requests) for b in core.ready)
            + sum(len(b.requests) for b in in_flight)
        )
        assert core.admission.backlog == in_system
        assert len(self.admitted) == len(self.resolved) + in_system
        kinds = [type(o) for o in self.resolved.values()]
        board = core.board
        assert board.submitted == len(self.admitted)
        assert board.completed == kinds.count(np.ndarray)
        assert board.expired == kinds.count(DeadlineExceededError)
        assert core.dropped_on_close == kinds.count(ServerClosedError)
        assert board.failed == kinds.count(ConnectionError) + kinds.count(RuntimeError)

    @invariant()
    def nothing_in_flight_on_an_open_breaker_or_past_its_deadline(self):
        for member in self.core.members.values():
            batch = member.batch
            if batch is None:
                continue
            assert member.health.state != "open"
            assert all(
                p.deadline_at is None or p.deadline_at > batch.dispatched_at
                for p in batch.requests
            )

    @invariant()
    def no_ready_batch_waits_while_a_member_that_can_take_it_idles(self):
        core, now = self.core, self.now
        for member in core.members.values():
            if member.batch is not None or not _able(member, now):
                continue
            another = any(
                _able(m, now) for m in core.members.values() if m is not member
            )
            assert not any(
                batch.not_before <= now
                and not (another and batch.failed_on == member.replica_id)
                for batch in core.ready
            ), f"member {member.replica_id} idles beside a batch it may take"


def test_core_state_machine():
    run_state_machine_as_test(
        CoreMachine,
        settings=settings(max_examples=500, stateful_step_count=40, deadline=None),
    )


def test_a_retry_waits_out_its_backoff_on_the_ready_queue():
    # The backoff delays the batch, not the member: it serves other work
    # meanwhile, and learns from wake_at when the retry becomes takeable.
    core = _core(replicas=1, retry=RetryPolicy(backoff_base_s=0.02, backoff_max_s=0.02))
    (member,) = core.members.values()
    core.submit(_request(4, 0.0))
    core.form(0.0)
    batch, _, _ = core.take(member, 0.0)
    core.settle(member, batch, 0.0, error=TimeoutError("wedged"))
    (retry,) = core.ready
    assert 0.018 <= retry.not_before <= 0.022 and retry.attempts == 1
    core.submit(_request(5, 0.001))
    core.form(0.001)
    other, _, _ = core.take(member, 0.001)
    assert [p.tokens.size for p in other.requests] == [5]
    core.settle(member, other, 0.002, results=_rows(other))
    assert core.take(member, 0.002) == (None, [], retry.not_before)
    again, _, _ = core.take(member, retry.not_before)
    assert again is retry
    outcomes, _ = core.settle(member, again, 0.03, results=_rows(again))
    assert [o.shape[0] for _, o in outcomes] == [4]
    assert core.board.retry_attempts == 1 and core.board.completed == 2


def test_a_retry_does_not_wait_for_another_members_open_breaker():
    # Replica 1's breaker is open for 5 s and replica 0 fails a batch
    # retryably: replica 0 is the only member that can take the retry, so
    # it takes it at once instead of idling until replica 1 reopens.
    core = _core(
        retry=RetryPolicy(backoff_base_s=0.0),
        breaker=CircuitBreakerConfig(failure_threshold=2, cooldown_s=5.0),
    )
    first, second = core.members[0], core.members[1]
    for length in (4, 5, 6):
        core.submit(_request(length, 0.0))
    core.form(0.0)
    for _ in range(2):
        batch, _, _ = core.take(second, 0.0)
        core.settle(second, batch, 0.0, error=TimeoutError("wedged"))
    assert second.health.reopen_eta_s(0.0) == 5.0
    for _ in range(2):  # the two batches replica 1 failed
        batch, _, _ = core.take(first, 0.0)
        assert batch.failed_on == 1
        core.settle(first, batch, 0.0, results=_rows(batch))
    batch, _, _ = core.take(first, 0.0)
    core.settle(first, batch, 0.0, error=ConnectionError("dropped"))
    retry, _, _ = core.take(first, 0.001)
    assert retry is not None and retry.failed_on == 0


def test_a_deadline_at_the_dispatch_instant_has_expired():
    # One boundary everywhere: a zero remaining budget is expired, so the
    # request is failed at the take, never shipped to a replica that
    # would skip it.
    core = _core(replicas=1)
    (member,) = core.members.values()
    boundary, ahead = _request(4, 0.0, 0.5), _request(4, 0.0, 0.6)
    core.submit(boundary)
    core.submit(ahead)
    core.form(0.0)
    batch, outcomes, _ = core.take(member, 0.5)
    assert [p for p, _ in outcomes] == [boundary]
    assert isinstance(outcomes[0][1], DeadlineExceededError)
    assert batch.requests == [ahead]
    assert ahead.remaining_budget_s(batch.dispatched_at) > 0
    assert core.board.expired == 1


def test_a_deadline_is_checked_when_a_member_takes_the_batch():
    # A request formed into a batch in time, then stuck behind a busy
    # member past its deadline, fails at the take instead of being served
    # arbitrarily late.
    core = _core(replicas=1)
    (member,) = core.members.values()
    core.submit(_request(4, 0.0))
    core.form(0.0)
    blocker, _, _ = core.take(member, 0.0)
    core.submit(_request(5, 0.0, deadline_s=0.1))
    core.form(0.0)
    assert len(core.ready) == 1  # formed while its deadline was ahead
    core.settle(member, blocker, 0.15, results=_rows(blocker))
    batch, outcomes, _ = core.take(member, 0.15)
    assert batch is None and isinstance(outcomes[0][1], DeadlineExceededError)
    assert "queued 150.0 ms" in str(outcomes[0][1])
    assert core.board.expired == 1 and core.admission.backlog == 0


def test_backlog_shows_up_as_queue_wait_not_service():
    # One member: the request in flight accrues service time while the one
    # queued behind it accrues queue-wait time, exactly on the clock given.
    core = _core(replicas=1)
    (member,) = core.members.values()
    core.submit(_request(4, 0.0))
    core.submit(_request(5, 0.0))
    core.form(0.0)
    first, _, _ = core.take(member, 0.0)
    core.settle(member, first, 0.15, results=_rows(first))
    second, _, _ = core.take(member, 0.15)
    core.settle(member, second, 0.16, results=_rows(second))
    stats = core.snapshot()
    assert list(core.board.services_ms) == pytest.approx([150.0, 10.0])
    assert list(core.board.queue_waits_ms) == pytest.approx([0.0, 150.0])
    assert stats.p99_service_ms >= 100.0 and stats.p99_queue_wait_ms >= 100.0
    assert stats.mean_latency_ms == pytest.approx(
        stats.mean_queue_wait_ms + stats.mean_service_ms
    )


@pytest.mark.parametrize("ending", ["served", "skipped", "retried", "failed"])
def test_settle_accounts_each_way_a_dispatch_ends(ending):
    # One settle transition for every ending: the member is free again,
    # the request is resolved exactly once or back on the ready queue, and
    # the backlog and the board agree with that.
    retry = RetryPolicy(backoff_base_s=0.0) if ending == "retried" else None
    core = _core(replicas=1, retry=retry)
    (member,) = core.members.values()
    pending = _request(4, 0.0, deadline_s=1.0 if ending == "skipped" else None)
    core.submit(pending)
    core.form(0.0)
    batch, _, _ = core.take(member, 0.0)
    error = TimeoutError("wedged") if ending in ("retried", "failed") else None
    results = None
    if ending == "served":
        results = _rows(batch)
    elif ending == "skipped":
        results = [np.zeros((0, 1))]
    outcomes, spawn = core.settle(member, batch, 0.1, results=results, error=error)
    assert member.batch is None and not spawn
    board = core.board
    if ending == "retried":
        assert outcomes == [] and core.admission.backlog == 1
        (again,) = core.ready
        assert again.requests == [pending] and again.attempts == 1
        assert again.failed_on == member.replica_id
        assert board.retry_attempts == 1 and board.failed == 0
        return
    ((resolved, value),) = outcomes
    assert resolved is pending and core.admission.backlog == 0 and not core.ready
    if ending == "served":
        assert value.shape == (4, 1)
        assert board.completed == member.completed == member.batches_served == 1
    elif ending == "skipped":
        assert isinstance(value, DeadlineExceededError)
        assert board.expired == board.expired_in_flight == 1
        assert board.completed == member.completed == 0
    else:
        assert isinstance(value, TimeoutError) and value is not error
        assert value.__cause__ is error
        assert board.failed == member.failed == 1 and board.retry_attempts == 0


def test_a_defunct_member_is_retired_and_replaced_when_asked():
    core = _core(replicas=2, replace_dead=True)
    dead, alive = core.members[0], core.members[1]
    core.submit(_request(4, 0.0))
    core.form(0.0)
    batch, _, _ = core.take(dead, 0.0)
    outcomes, spawn = core.settle(
        dead, batch, 0.1, error=ConnectionError("worker died"), defunct=True
    )
    assert spawn and len(outcomes) == 1 and not core.closed
    assert list(core.members) == [alive.replica_id]
    assert core.board.replicas_retired == 1


def test_the_last_defunct_member_closes_the_fleet_and_fails_the_backlog():
    # Nothing is left to serve the queued request, so the fleet closes
    # itself rather than hold it until the caller's timeout.
    core = _core(replicas=1, replace_dead=True)
    (member,) = core.members.values()
    core.submit(_request(4, 0.0))
    core.submit(_request(5, 0.0))
    core.form(0.0)
    batch, _, _ = core.take(member, 0.0)
    outcomes, spawn = core.settle(
        member, batch, 0.1, error=ConnectionError("worker died"), defunct=True
    )
    assert not spawn and core.closed and not core.members
    assert [type(value) for _, value in outcomes] == [
        ConnectionError, ServerClosedError
    ]
    assert core.admission.backlog == 0 and core.dropped_on_close == 1
    with pytest.raises(ServerClosedError):
        core.submit(_request(4, 0.2))


# --------------------------------------------------------------------------- #
# The threaded queue over instant replicas
# --------------------------------------------------------------------------- #
class _InstantReplica:
    """A replica handle that answers every request at once."""

    def __init__(self, pool: "_InstantPool") -> None:
        self._pool = pool
        self.defunct = False
        self.died = False  # a forward found it defunct
        self.retired = False  # set once retire_replica returned

    def forward(self, requests, budgets_s=None):
        if self.retired:
            self._pool.late_forwards += 1
        if self.defunct:
            self.died = True
            raise ConnectionError("replica killed")  # retryable
        return [np.zeros((len(tokens), 1)) for tokens in requests]


class _InstantPool(ReplicaPool):
    """Just the pool surface the queue uses, over instant replicas."""

    max_sequence_length = 16

    def __init__(self, num_replicas: int) -> None:
        self.config = types.SimpleNamespace(max_batch_size=3, bucket_size=1)
        self.late_forwards = 0
        self.sessions = [_InstantReplica(self) for _ in range(num_replicas)]

    def spawn_replica(self) -> _InstantReplica:
        handle = _InstantReplica(self)
        self.sessions.append(handle)
        return handle

    def retire_replica(self, handle) -> None:
        if handle in self.sessions:
            self.sessions.remove(handle)


class FleetMachine(RuleBasedStateMachine):
    def __init__(self) -> None:
        super().__init__()
        self.pool = _InstantPool(2)
        self.queue = ServingQueue(
            self.pool,
            max_wait_ms=0.0,
            retry=RetryPolicy(backoff_base_s=0.0, retry_budget=1_000_000),
        )
        self.handles = dict(enumerate(self.pool.sessions))
        self.futures: list = []
        self.closed = False
        self.adds = 0

    def teardown(self) -> None:
        self.queue.close()

    def _pick(self, index: int, routable_only: bool = False):
        rows = self.queue.stats().replicas
        ids = [r.replica_id for r in rows if r.routable or not routable_only]
        return ids[index % len(ids)] if ids else None

    @rule(lengths=st.lists(st.integers(1, 16), min_size=1, max_size=6))
    def submit(self, lengths):
        for length in lengths:
            try:
                self.futures.append(self.queue.submit(np.arange(length)))
            except ServerClosedError:
                # Closed by the close rule, or by itself once no member
                # could take work any more.
                assert self.closed or self.queue.stats().live_replicas == 0

    # A small fleet keeps "no member can take work" reachable in few steps.
    # The bound counts rule runs, not members: a precondition must not
    # depend on thread timing, or hypothesis cannot replay an example.
    @precondition(lambda self: self.adds < 3)
    @rule()
    def add(self):
        self.adds += 1
        try:
            replica_id = self.queue.add_replica()
        except ServerClosedError:
            return
        self.handles[replica_id] = self.pool.sessions[-1]

    @rule(index=st.integers(0, 7))
    def drain(self, index):
        replica_id = self._pick(index, routable_only=True)
        if replica_id is None:
            return
        try:
            self.queue.drain_replica(replica_id)
        except ValueError:  # the last live replica
            pass

    @rule(index=st.integers(0, 7))
    def retire(self, index):
        replica_id = self._pick(index)
        if replica_id is None:
            return
        try:
            self.queue.retire_replica(replica_id, timeout=10)
        except ValueError:  # the last live replica, or already gone
            return
        self.handles[replica_id].retired = True

    @rule(index=st.integers(0, 7))
    def kill(self, index):
        # A draining member never forwards again, so only routable ones.
        replica_id = self._pick(index, routable_only=True)
        if replica_id is not None:
            self.handles[replica_id].defunct = True

    @rule()
    def close(self):
        self.queue.close()
        self.closed = True

    def _wait_for_deaths(self) -> None:
        """Block until every replica that died has left the fleet.

        The dying worker retires its member (and closes a queue with no
        member left that can take work) after the failed batch's retry is
        back on the ready queue, so ``drain`` alone can return first.
        """
        dead = [rid for rid, h in self.handles.items() if h.died]
        core, cond = self.queue._core, self.queue._cond
        with cond:
            assert cond.wait_for(
                lambda: not any(rid in core.members for rid in dead)
                and (
                    core.closed
                    or any(m.routable for m in core.members.values())
                ),
                3,
            ), "a dead replica never left the fleet"

    @invariant()
    def settled(self):
        try:
            self.queue.drain(timeout=3)
        except ServerClosedError:
            pass  # a close discarded backlog; the futures say which
        self._wait_for_deaths()
        completed = failed = discarded = 0
        for future in self.futures:
            try:
                future.result(timeout=3)  # TimeoutError here: a lost future
                completed += 1
            except ConnectionError:
                failed += 1
            except ServerClosedError:
                discarded += 1
        assert all(future.resolutions == 1 for future in self.futures)
        stats = self.queue.stats()
        assert stats.queue_depth == 0
        assert all(row.in_flight_requests == 0 for row in stats.replicas)
        assert stats.submitted == len(self.futures)
        assert (stats.completed, stats.failed) == (completed, failed)
        assert stats.expired == stats.rejected == 0
        assert discarded == 0 or self.closed or stats.live_replicas == 0
        assert self.pool.late_forwards == 0


def _counted(resolve):
    def counted(future, value):
        future.resolutions = getattr(future, "resolutions", 0) + 1
        resolve(future, value)

    return counted


def test_fleet_state_machine(monkeypatch):
    for name in ("_fulfill", "_fail"):
        monkeypatch.setattr(
            ServingFuture, name, _counted(getattr(ServingFuture, name))
        )
    run_state_machine_as_test(
        FleetMachine,
        settings=settings(
            max_examples=150, stateful_step_count=15, deadline=None
        ),
    )


def test_many_workers_pull_one_ready_queue_exactly_once(monkeypatch):
    # Six workers on fewer cores, switching threads as often as the
    # interpreter allows: a batch pulled twice, or a lost counter update,
    # shows up as a double resolution or counts that do not add up.
    for name in ("_fulfill", "_fail"):
        monkeypatch.setattr(
            ServingFuture, name, _counted(getattr(ServingFuture, name))
        )
    queue = ServingQueue(_InstantPool(6), max_wait_ms=0.0)
    submitted: list = []  # (length, future)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:

        def client(seed: int) -> None:
            rng = np.random.default_rng(seed)
            for length in rng.integers(1, 17, size=200):
                submitted.append((length, queue.submit(np.arange(length))))

        clients = [threading.Thread(target=client, args=(s,)) for s in range(4)]
        for thread in clients:
            thread.start()
        for thread in clients:
            thread.join(30)
        assert not any(thread.is_alive() for thread in clients)
        queue.drain(timeout=30)
        for length, future in submitted:
            assert future.result(timeout=10).shape[0] == length
        stats = queue.stats()
    finally:
        sys.setswitchinterval(interval)
        queue.close()
    assert len(submitted) == stats.submitted == stats.completed == 800
    assert all(future.resolutions == 1 for _, future in submitted)
    assert sum(row.completed for row in stats.replicas) == 800
    assert sum(row.batches_served for row in stats.replicas) == stats.batches
    assert stats.queue_depth == 0


def test_a_retry_is_served_at_once_while_another_replicas_breaker_is_open():
    # The threaded twin of the core example: replica 1 fails two batches,
    # which opens its breaker for 5 s, then replica 0 fails one.  The
    # batch replica 0 failed must be served by replica 0 again at once,
    # not after replica 1's cooldown.
    pool = _InstantPool(2)
    first, second = pool.sessions
    opened = threading.Event()
    second_calls: list = []
    first_calls: list = []
    serve_first = first.forward

    def second_forward(requests, budgets_s=None):
        second_calls.append(len(requests))
        if len(second_calls) == 2:
            opened.set()
        raise TimeoutError("replica 1 wedged")

    def first_forward(requests, budgets_s=None):
        first_calls.append(len(requests))
        if len(first_calls) == 1:
            opened.wait(10)
            raise TimeoutError("replica 0 wedged once")
        return serve_first(requests, budgets_s)

    first.forward, second.forward = first_forward, second_forward
    queue = ServingQueue(
        pool, max_wait_ms=0.0, start=False,
        retry=RetryPolicy(max_attempts=3, backoff_base_s=0.0),
        breaker=CircuitBreakerConfig(failure_threshold=2, cooldown_s=5.0),
    )
    futures = [queue.submit(np.arange(n)) for n in (4, 5, 6)]  # three batches
    queue.start()
    try:
        for future, n in zip(futures, (4, 5, 6)):
            assert future.result(timeout=2.5).shape[0] == n  # well under 5 s
        stats = queue.stats()
    finally:
        queue.close()
    assert len(second_calls) == 2 and stats.breaker_opens == 1
    assert stats.replicas[1].breaker_state == "open"
    assert stats.retry_attempts == 3 and stats.failed == 0
