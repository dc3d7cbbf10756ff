"""Generated interleavings of fleet membership changes and traffic.

A hypothesis state machine drives a :class:`ServingQueue` over a stub
:class:`ReplicaPool` whose replicas answer at once, mixing submits with
hot-adds, drains, retires, kills (a replica turning ``defunct``, as a dead
shard worker does) and close.  After every step it drains the queue and
checks the fleet's bookkeeping:

* every future resolves, and exactly once;
* nothing is left in the system (``queue_depth == 0``, nothing in flight);
* the counts conserve: ``submitted`` futures = ``completed`` + ``failed``
  + the ones a close discarded, each matching the queue's own stats;
* no forward runs on a replica after its retire returned.

A stress test then has more replica workers than cores pull from the one
ready queue under a shortened interpreter switch interval.  Like the other
serving suites, both run under the runtime lock audit.
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
    invariant,
    precondition,
    rule,
    run_state_machine_as_test,
)

from repro.api import ReplicaPool, RetryPolicy, ServerClosedError, ServingQueue
from repro.api.scheduling import ServingFuture

pytestmark = pytest.mark.usefixtures("lock_audit")


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
        fleet = self.queue._fleet
        with fleet._cond:
            assert fleet._cond.wait_for(
                lambda: not any(rid in fleet._members for rid in dead)
                and (
                    fleet._closed
                    or any(m.routable for m in fleet._members.values())
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
