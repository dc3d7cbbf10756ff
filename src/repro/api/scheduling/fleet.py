"""Live fleet membership and the scheduler/worker machinery.

The :class:`FleetManager` is the concurrency core behind
``ServingQueue``: it owns the pending deque, the coalescing scheduler
thread, one worker thread per replica, and *live* membership.  Replicas
can be added
(:meth:`~FleetManager.add_member`), drained
(:meth:`~FleetManager.drain_member` — in-flight and already-queued work
completes on the old member, nothing new is routed to it) and retired
(:meth:`~FleetManager.retire_member` — drain semantics, then blocks until
the member's in-flight work finished and removes it) while traffic is
being served.  A replica whose session reports itself ``defunct`` (a
dead or poisoned shard worker) is retired automatically: its queued
batches are re-routed to the survivors instead of being failed, and with
``replace_dead=True`` the fleet asks the pool for a fresh replica to
take its place.  Only when the *last* member dies does the queue close
itself.

The fleet is *resilient*: with a
:class:`~repro.api.scheduling.resilience.RetryPolicy` installed, a batch
hit by a replica-level failure (worker death, timeout, transport/integrity
fault) is re-routed to the survivors — after an exponential-backoff sleep
taken strictly outside the lock — instead of failing its futures; every
member carries a :class:`~repro.api.scheduling.resilience.ReplicaHealth`
ledger whose circuit breaker (when configured) drains a flaky replica and
re-admits it through a half-open probe; and requests that carry deadlines
ship their remaining budget with the batch (``forward(requests,
budgets_s)``, the one replica-handle signature), capping a shard client's
transport wait and letting replicas skip requests that expired in flight.

Locking story (kept deliberately boring; the serving test suites run
under a runtime lock audit, ``tests/lock_audit.py``, that fails a test
which takes a lock under another, touches a guarded field without the
lock, or blocks while holding it): the fleet condition (``_cond`` over
``_lock``) is the **only** lock in the scheduling package.  The
admission controller, batch former, router and stats board are all
lock-free; their mutable state is only ever touched while it is held;
everything that can block — replica forwards, pool spawn/retire hooks,
thread joins, future fulfilment, **retry backoff sleeps** — happens
strictly outside it.
"""

from __future__ import annotations

import copy
import threading
import time
from collections import deque
from typing import Deque, Dict, List, Optional, Tuple

import numpy as np

from ..transport import TransportIntegrityError
from .admission import (
    AdmissionController,
    DeadlineExceededError,
    Pending,
    ServerClosedError,
)
from .former import BatchFormer
from .resilience import CircuitBreakerConfig, ReplicaHealth, RetryPolicy
from .routing import Router
from .stats import ReplicaStats, ServingStats, StatsBoard

__all__ = ["FormedBatch", "ReplicaMember", "FleetManager"]


def _per_future_error(exc: BaseException) -> BaseException:
    """A private copy of a batch failure for one future.

    Every future in a failed batch re-raises "the" error, but ``raise``
    mutates the raised instance's ``__traceback__`` — handing the *same*
    instance to N futures makes concurrent ``result()`` calls race on that
    shared mutable state (and chains unrelated client-side tracebacks into
    each other).  Each future therefore gets its own copy, with the original
    attached as ``__cause__`` so nothing about the failure is lost.

    This helper must *never* raise: it runs inside the worker loop's error
    path, and an escaping exception there kills the worker thread with the
    batch's futures still unresolved — every client in the batch then hangs
    until its own timeout, and the original error is silently eaten.  Exotic
    exception classes can break both fallbacks in ways ``except Exception``
    does not cover (a constructor or ``__reduce_ex__`` raising a
    ``BaseException``, or a constructor returning a non-exception via
    ``__new__``), so each stage catches ``BaseException`` and validates its
    result; the last resort is a plain ``RuntimeError`` that still chains the
    original as ``__cause__`` — degraded, never silent.
    """
    clone: BaseException | None = None
    try:
        candidate = type(exc)(*exc.args)
        if isinstance(candidate, BaseException):
            clone = candidate
    except BaseException:
        clone = None
    if clone is None:
        try:
            candidate = copy.copy(exc)
            if isinstance(candidate, BaseException):
                clone = candidate
        except BaseException:
            clone = None
    if clone is None:
        clone = RuntimeError(f"batch forward failed: {exc!r}")
    clone.__traceback__ = None
    clone.__cause__ = exc
    return clone


class FormedBatch:
    """One routed unit of work: a length-homogeneous group of requests.

    ``attempts`` counts completed dispatches that failed — 0 for a fresh
    batch, bumped each time the retry machinery re-routes it.
    """

    __slots__ = ("requests", "cost", "attempts")

    def __init__(self, requests: List[Pending], attempts: int = 0) -> None:
        self.requests = requests
        self.cost = sum(pending.cost for pending in requests)
        self.attempts = attempts


class ReplicaMember:
    """One replica's scheduling state: its queue, load, and lifecycle flags.

    All fields are guarded by the owning fleet's condition lock.  The
    ``session`` handle (an ``InferenceSession`` or a shard client) is only
    ever *called* outside that lock.
    """

    __slots__ = (
        "replica_id", "session", "thread", "batches", "queued_cost",
        "in_flight_requests", "in_flight_cost", "batches_served",
        "completed", "failed", "stolen", "draining", "retired", "exited",
        "health",
    )

    def __init__(
        self,
        replica_id: int,
        session,
        breaker: Optional[CircuitBreakerConfig] = None,
    ) -> None:
        self.replica_id = replica_id
        self.session = session
        self.thread: Optional[threading.Thread] = None
        self.batches: Deque[FormedBatch] = deque()
        self.queued_cost = 0
        self.in_flight_requests = 0
        self.in_flight_cost = 0
        self.batches_served = 0
        self.completed = 0
        self.failed = 0
        self.stolen = 0
        self.draining = False
        self.retired = False
        self.exited = False
        self.health = ReplicaHealth(breaker)

    @property
    def load(self) -> int:
        """Outstanding token cost: what the least-loaded router minimizes."""
        return self.queued_cost + self.in_flight_cost

    @property
    def routable(self) -> bool:
        return not self.draining and not self.retired

    def stats(self) -> ReplicaStats:
        return ReplicaStats(
            replica_id=self.replica_id,
            queued_batches=len(self.batches),
            queued_requests=sum(len(b.requests) for b in self.batches),
            queued_cost=self.queued_cost,
            in_flight_requests=self.in_flight_requests,
            in_flight_cost=self.in_flight_cost,
            batches_served=self.batches_served,
            completed=self.completed,
            failed=self.failed,
            stolen=self.stolen,
            draining=self.draining,
            live=not self.retired and not self.exited,
            errors=self.health.errors,
            timeouts=self.health.timeouts,
            service_ewma_ms=self.health.service_ewma_ms,
            breaker_state=self.health.state,
        )


class FleetManager:
    """Replica membership, the scheduler loop, and per-member workers.

    See the module docstring for the design; the facade
    (:class:`repro.api.server.ServingQueue`) owns construction and wires
    the collaborators in.
    """

    def __init__(
        self,
        pool,
        router: Router,
        former: BatchFormer,
        admission: AdmissionController,
        board: StatsBoard,
        replace_dead: bool = False,
        retry: Optional[RetryPolicy] = None,
        breaker: Optional[CircuitBreakerConfig] = None,
    ) -> None:
        self._pool = pool
        self._router = router
        self._former = former
        self._admission = admission
        self._board = board
        self._replace_dead = replace_dead
        self._retry = retry
        self._breaker = breaker
        #: Jitter stream for retry backoffs; drawn from only under the
        #: fleet lock, which is what makes sharing it across workers safe.
        self._retry_rng = np.random.default_rng(retry.seed if retry else 0)
        #: Requests whose batch is between a failed dispatch and its retry
        #: re-route (the backoff sleep); drain() must wait these out — they
        #: are in no queue and no in-flight counter while parked.
        self._retry_parked = 0
        self._lock = threading.Lock()
        self._cond = threading.Condition(self._lock)
        self._members: Dict[int, ReplicaMember] = {}
        self._pending: Deque[Pending] = deque()
        self._next_replica_id = 0
        self._inflight_batches = 0
        self._closed = False
        self._started = False
        #: Requests close() failed with ServerClosedError instead of serving;
        #: drain() consults this to distinguish "served" from "discarded".
        self._dropped_on_close = 0
        self._scheduler_thread: Optional[threading.Thread] = None

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def start(self) -> None:
        """Register the pool's replicas and start scheduler + workers."""
        with self._cond:
            if self._closed:
                raise ServerClosedError("cannot start a closed ServingQueue")
            if self._started:
                return
            self._started = True
            known = {id(m.session) for m in self._members.values()}
            for session in self._pool.sessions:
                if id(session) not in known:
                    self._register(session)
            workers = [
                self._new_worker(m)
                for m in self._members.values()
                if m.thread is None
            ]
        for thread in workers:
            thread.start()
        self._scheduler_thread = threading.Thread(
            target=self._scheduler_loop, name="serving-scheduler", daemon=True
        )
        self._scheduler_thread.start()

    def shut_down(self, reason: str) -> None:
        """Mark the fleet closed and fail the dropped backlog (idempotent)."""
        with self._cond:
            if self._closed:
                return
            self._closed = True
            dropped = list(self._pending)
            self._pending.clear()
            for member in self._members.values():
                for batch in member.batches:
                    dropped.extend(batch.requests)
                member.batches.clear()
                member.queued_cost = 0
            self._admission.release(len(dropped))
            self._dropped_on_close += len(dropped)
            self._cond.notify_all()
        for pending in dropped:
            pending.future._fail(ServerClosedError(reason))

    def join(self, timeout: float) -> None:
        """Join the scheduler and every worker thread (outside the lock)."""
        threads: List[Optional[threading.Thread]] = [self._scheduler_thread]
        with self._cond:
            threads.extend(m.thread for m in self._members.values())
        for thread in threads:
            if thread is not None and thread.is_alive():
                thread.join(timeout)

    # ------------------------------------------------------------------ #
    # Client surface (called by the facade)
    # ------------------------------------------------------------------ #
    def submit(self, pending: Pending) -> None:
        with self._cond:
            if self._closed:
                raise ServerClosedError("ServingQueue is closed")
            self._admission.admit()
            self._pending.append(pending)
            self._board.note_submitted(
                pending.submitted_at, self._admission.backlog
            )
            self._cond.notify_all()

    def drain(self, timeout: float) -> None:
        closed_error = ServerClosedError(
            "ServingQueue was closed while draining; the remaining "
            "backlog will never be served"
        )
        deadline = time.monotonic() + timeout
        with self._cond:
            while (
                self._pending
                or self._inflight_batches
                or self._retry_parked
                or any(m.batches for m in self._members.values())
            ):
                if self._closed:
                    raise closed_error
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise TimeoutError("ServingQueue did not drain in time")
                self._cond.wait(remaining)
            # The backlog is gone — but close() *discards* the pending and
            # formed backlog (failing those futures), so an empty closed
            # queue is not necessarily a served one.
            if self._closed and self._dropped_on_close:
                raise closed_error

    def reset_stats(self) -> None:
        with self._cond:
            self._board.reset(self._admission.backlog, time.monotonic())

    def snapshot(self) -> ServingStats:
        """A consistent ``ServingStats`` snapshot (fleet + board + backlog)."""
        with self._cond:
            replicas = tuple(
                member.stats()
                for member in sorted(
                    self._members.values(), key=lambda m: m.replica_id
                )
            )
            return self._board.snapshot(
                backlog=self._admission.backlog,
                router=self._router.name,
                replicas=replicas,
            )

    @property
    def inflight_batches(self) -> int:
        """Batches currently dispatched to a replica forward (tests poll it)."""
        with self._cond:
            return self._inflight_batches

    # ------------------------------------------------------------------ #
    # Membership
    # ------------------------------------------------------------------ #
    def add_member(self, session) -> int:
        """Adopt a new replica handle into the live fleet; returns its id."""
        with self._cond:
            if self._closed:
                raise ServerClosedError("ServingQueue is closed")
            member = self._register(session)
            self._board.replicas_added += 1
            worker = self._new_worker(member) if self._started else None
            self._cond.notify_all()
        if worker is not None:
            worker.start()
        return member.replica_id

    def drain_member(self, replica_id: int) -> None:
        """Stop routing new work to a member; queued + in-flight completes."""
        with self._cond:
            member = self._members.get(replica_id)
            if member is None:
                raise ValueError(f"unknown replica id {replica_id}")
            others = [m for m in self._routable() if m is not member]
            if not others:
                raise ValueError(
                    "cannot drain the last live replica; add one first"
                )
            member.draining = True
            self._cond.notify_all()

    def retire_member(self, replica_id: int, timeout: float = 30.0):
        """Remove a member: drain it, wait for its in-flight work, drop it.

        Already-queued batches are re-routed to the surviving members (no
        request is lost); the batch the member is *currently* serving
        completes on it before this call returns.  Returns the retired
        session handle so the caller (the facade) can hand it back to the
        pool.  Raises ``ValueError`` for an unknown id or when retirement
        would leave no live replica, ``TimeoutError`` when in-flight work
        outlives ``timeout``.
        """
        deadline = time.monotonic() + timeout
        with self._cond:
            member = self._members.get(replica_id)
            if member is None:
                raise ValueError(f"unknown replica id {replica_id}")
            remaining_members = [m for m in self._routable() if m is not member]
            if not remaining_members:
                raise ValueError(
                    "cannot retire the last live replica; add one first"
                )
            member.draining = True
            member.retired = True
            requeued = list(member.batches)
            member.batches.clear()
            member.queued_cost = 0
            for batch in requeued:
                self._route(batch)
            self._cond.notify_all()
            # A member without a worker thread (queue built with start=False)
            # has nothing to wait out — only a started worker sets `exited`.
            while member.in_flight_requests > 0 or (
                member.thread is not None and not member.exited
            ):
                if self._closed:
                    break
                remaining_s = deadline - time.monotonic()
                if remaining_s <= 0:
                    raise TimeoutError(
                        f"replica {replica_id} did not finish its in-flight "
                        "work before the retire timeout"
                    )
                self._cond.wait(remaining_s)
            self._members.pop(replica_id, None)
            self._board.replicas_retired += 1
            self._cond.notify_all()
        return member.session

    def scaledown_candidate(self) -> Optional[int]:
        """The member the autoscaler should shed: least loaded, newest id.

        ``None`` when the fleet is already at one routable member.
        """
        with self._cond:
            candidates = self._routable()
            if len(candidates) <= 1:
                return None
            member = min(candidates, key=lambda m: (m.load, -m.replica_id))
            return member.replica_id

    def _register(self, session) -> ReplicaMember:
        """Create and index a member (fleet lock held by the caller)."""
        member = ReplicaMember(self._next_replica_id, session, self._breaker)
        self._next_replica_id += 1
        self._members[member.replica_id] = member
        return member

    def _new_worker(self, member: ReplicaMember) -> threading.Thread:
        """The member's worker thread, published but not started (fleet lock held).

        ``retire_member`` and ``join`` read ``member.thread`` under the lock,
        so it is set here; the caller starts the thread after releasing it.
        """
        thread = threading.Thread(
            target=self._worker_loop, args=(member,),
            name=f"serving-worker-{member.replica_id}", daemon=True,
        )
        member.thread = thread
        return thread

    def _routable(self) -> List[ReplicaMember]:
        """Members new work may be routed to (fleet lock held).

        Lifecycle (``routable``) and circuit-breaker admission both apply:
        an open breaker keeps a flaky member registered and serving its
        existing queue, but invisible to the router until its cooldown
        half-opens it for a probe.
        """
        now = time.monotonic()
        return sorted(
            (
                m for m in self._members.values()
                if m.routable and m.health.admits(
                    now, idle=not m.batches and m.in_flight_requests == 0
                )
            ),
            key=lambda m: m.replica_id,
        )

    def _route(self, batch: FormedBatch) -> None:
        """Assign a formed batch to a member's queue (fleet lock held)."""
        candidates = self._routable()
        if not candidates:
            # Transient: every member died or started draining mid-window.
            # Push the work back so the scheduler re-dispatches when
            # membership recovers (or close()/fleet-death fails it).
            self._pending.extendleft(reversed(batch.requests))
            return
        member = self._router.select(candidates, batch)
        member.batches.append(batch)
        member.queued_cost += batch.cost

    def _steal(self, thief: ReplicaMember) -> Optional[FormedBatch]:
        """One queued batch from the most backlogged peer (fleet lock held)."""
        donors = [
            m for m in self._members.values()
            if m is not thief and m.batches and not m.retired
        ]
        if not donors:
            return None
        donor = max(donors, key=lambda m: (m.queued_cost, len(m.batches)))
        batch = donor.batches.popleft()
        donor.queued_cost -= batch.cost
        thief.stolen += 1
        return batch

    def _breaker_poll_s(self) -> Optional[float]:
        """Wait bound while work is pending but no member admits it.

        Breaker reopening is time-driven — no thread notifies the condition
        when a cooldown elapses — so when open breakers are what blocks
        routing, the scheduler polls at the earliest half-open ETA instead
        of waiting forever.  ``None`` (wait untouched) when nothing is
        pending or no breaker is counting down.  Fleet lock held.
        """
        if not self._pending:
            return None
        now = time.monotonic()
        etas = [
            eta
            for m in self._members.values()
            if m.routable
            and (eta := m.health.reopen_eta_s(now)) is not None
        ]
        if not etas:
            return None
        return max(0.005, min(etas))

    # ------------------------------------------------------------------ #
    # Scheduler: pending window -> formed batches -> member queues
    # ------------------------------------------------------------------ #
    def _scheduler_loop(self) -> None:
        while True:
            with self._cond:
                while not self._closed and (
                    not self._pending or not self._routable()
                ):
                    self._cond.wait(self._breaker_poll_s())
                if self._closed:
                    return
                window_end = self._former.window_deadline(
                    self._pending[0].submitted_at
                )
                while (
                    not self._closed
                    and not self._former.saturated(
                        len(self._pending), len(self._routable())
                    )
                    and (remaining := window_end - time.monotonic()) > 0
                ):
                    self._cond.wait(remaining)
                if self._closed:
                    return
                window = list(self._pending)
                self._pending.clear()

            now = time.monotonic()
            live, expired = self._admission.split_expired(window, now)
            groups = self._former.form(live)
            with self._cond:
                if self._closed:
                    # close() already failed everything it saw; fail the rest.
                    self._admission.release(len(window))
                    self._dropped_on_close += len(window)
                    self._cond.notify_all()
                    for pending in window:
                        pending.future._fail(
                            ServerClosedError("ServingQueue was closed")
                        )
                    return
                self._board.expired += len(expired)
                self._admission.release(len(expired))
                for group in groups:
                    self._route(FormedBatch(group))
                self._cond.notify_all()
            for pending in expired:
                pending.future._fail(
                    DeadlineExceededError(
                        "request deadline elapsed before dispatch "
                        f"(queued {1000 * (now - pending.submitted_at):.1f} ms)"
                    )
                )

    # ------------------------------------------------------------------ #
    # Workers: one thread per member
    # ------------------------------------------------------------------ #
    def _worker_loop(self, member: ReplicaMember) -> None:
        try:
            self._serve_member(member)
        finally:
            # Every exit path — closed queue, drained empty, retired, dead
            # replica — publishes the member as exited so retire_member's
            # wait and the stats snapshot see the truth.
            with self._cond:
                member.exited = True
                self._cond.notify_all()

    def _serve_member(self, member: ReplicaMember) -> None:
        session = member.session
        while True:
            with self._cond:
                batch: Optional[FormedBatch] = None
                while batch is None:
                    if member.batches:
                        batch = member.batches.popleft()
                        member.queued_cost -= batch.cost
                        break
                    if self._closed or member.retired:
                        return
                    if member.draining:
                        # Queue empty and nothing new will be routed here:
                        # the drain is complete.
                        return
                    if self._router.steal_when_idle:
                        batch = self._steal(member)
                        if batch is not None:
                            break
                    self._cond.wait()
                member.in_flight_requests += len(batch.requests)
                member.in_flight_cost += batch.cost
                self._inflight_batches += 1
            # Re-check deadlines at pick-up: a formed batch can sit behind a
            # backlog long past the window-close check, and a request whose
            # deadline lapsed must fail rather than be served arbitrarily
            # late (or waste forward time).
            now = time.monotonic()
            live, expired = self._admission.split_expired(batch.requests, now)
            if expired:
                expired_cost = sum(p.cost for p in expired)
                with self._cond:
                    self._board.expired += len(expired)
                    self._admission.release(len(expired))
                    member.in_flight_requests -= len(expired)
                    member.in_flight_cost -= expired_cost
                    if not live:
                        self._inflight_batches -= 1
                    self._cond.notify_all()
                for pending in expired:
                    pending.future._fail(
                        DeadlineExceededError(
                            "request deadline elapsed before its forward "
                            f"started (queued {1000 * (now - pending.submitted_at):.1f} ms)"
                        )
                    )
                if not live:
                    continue
            # The queue-wait / service boundary for every request in the
            # batch: the moment this worker committed to serving it.
            dispatched_at = time.monotonic()
            try:
                # Deadline propagation: each request's remaining budget
                # (None = no deadline) goes with the batch, so a shard client
                # caps its transport wait and the replica skips requests that
                # expire in flight (returned as zero-length row blocks; a
                # real result always has >= 1 row).
                results = session.forward(
                    [p.tokens for p in live],
                    [p.remaining_budget_s(dispatched_at) for p in live],
                )
            except BaseException as exc:
                self._after_batch_failure(member, batch, live, exc)
                if getattr(session, "defunct", False):
                    # A permanently-dead replica (a shard worker process that
                    # died or was poisoned) must leave the fleet: failing
                    # batches instantly, it would outrace the healthy
                    # replicas and poison traffic they could have served.
                    # Membership turns the old "stop consuming" behaviour
                    # into retire-and-optionally-replace; only when the
                    # *last* member dies must the queue fail fast rather
                    # than silently accept requests nothing will serve.
                    fleet_dead = self._retire_dead_member(member)
                    if fleet_dead:
                        self.shut_down(
                            "every replica of this ServingQueue's pool is "
                            "dead; the queue closed itself"
                        )
                    elif self._replace_dead:
                        self._spawn_replacement()
                    return
                continue
            done_at = time.monotonic()
            served: List[Tuple[Pending, object]] = []
            skipped: List[Pending] = []
            for pending, result in zip(live, results):
                if (
                    pending.deadline_at is not None
                    and getattr(result, "shape", (1,))[0] == 0
                ):
                    skipped.append(pending)
                else:
                    served.append((pending, result))
            live_cost = sum(p.cost for p in live)
            with self._cond:
                if member.health.record_success(
                    1000.0 * (done_at - dispatched_at)
                ):
                    self._board.breaker_closes += 1
                self._board.record_batch(
                    [p for p, _ in served], dispatched_at, done_at
                )
                if skipped:
                    self._board.expired += len(skipped)
                    self._board.expired_in_flight += len(skipped)
                self._admission.release(len(live))
                member.batches_served += 1
                member.completed += len(served)
                member.in_flight_requests -= len(live)
                member.in_flight_cost -= live_cost
                self._inflight_batches -= 1
                self._cond.notify_all()
            for pending in skipped:
                pending.future._fail(
                    DeadlineExceededError(
                        "request deadline elapsed in flight; the worker "
                        "skipped its forward"
                    )
                )
            for pending, result in served:
                pending.future._fulfill(result)

    def _after_batch_failure(
        self,
        member: ReplicaMember,
        batch: FormedBatch,
        live: List[Pending],
        exc: BaseException,
    ) -> None:
        """Account one failed dispatch: health/breaker, then retry or fail.

        With a :class:`RetryPolicy` installed and a *replica-level* failure
        (``RetryPolicy.retryable``), the batch is re-routed to the fleet —
        after an exponential-backoff sleep taken strictly OUTSIDE the fleet
        lock — instead of failing its futures; the batch keeps its
        admission slots while parked (``_retry_parked`` makes it visible
        to ``drain``).  Non-retryable failures, exhausted attempts, an
        exhausted window retry budget, or a closed queue fail each future
        with its own error clone, as every failure does without a policy.
        """
        live_cost = sum(p.cost for p in live)
        now = time.monotonic()
        retry_batch: Optional[FormedBatch] = None
        backoff_s = 0.0
        with self._cond:
            if getattr(member.session, "defunct", False):
                # The replica is dead or poisoned: _retire_dead_member (on
                # this same thread, right after this method returns) will
                # remove it — but the retry below routes *first*, so take
                # the member out of the routable set now or the retried
                # batch can land straight back on the corpse.
                member.draining = True
            if member.health.record_failure(
                now, timeout=isinstance(exc, TimeoutError)
            ):
                self._board.breaker_opens += 1
            if isinstance(exc, TransportIntegrityError):
                self._board.integrity_failures += 1
            member.in_flight_requests -= len(live)
            member.in_flight_cost -= live_cost
            self._inflight_batches -= 1
            retry = self._retry
            if (
                retry is not None
                and not self._closed
                and batch.attempts + 1 < retry.max_attempts
                and retry.retryable(exc)
                and self._board.retried_requests + len(live)
                <= retry.retry_budget
            ):
                retry_batch = FormedBatch(live, attempts=batch.attempts + 1)
                self._board.retry_attempts += 1
                self._board.retried_requests += len(live)
                self._retry_parked += len(live)
                backoff_s = retry.backoff_s(
                    retry_batch.attempts, self._retry_rng
                )
            else:
                self._board.failed += len(live)
                self._admission.release(len(live))
                member.failed += len(live)
            self._cond.notify_all()
        if retry_batch is None:
            for pending in live:
                pending.future._fail(_per_future_error(exc))
            return
        if backoff_s > 0.0:
            time.sleep(backoff_s)  # deliberately outside the fleet lock
        dropped: List[Pending] = []
        with self._cond:
            self._retry_parked -= len(live)
            if self._closed:
                dropped = list(retry_batch.requests)
                self._admission.release(len(dropped))
                self._dropped_on_close += len(dropped)
            else:
                # If no member admits right now, _route pushes the requests
                # back onto the pending deque — the scheduler re-forms them
                # (attempt count resets, but the window retry budget still
                # bounds the total re-execution work).
                self._route(retry_batch)
            self._cond.notify_all()
        for pending in dropped:
            pending.future._fail(
                ServerClosedError(
                    "ServingQueue was closed while a batch awaited its retry"
                )
            )

    def _retire_dead_member(self, member: ReplicaMember) -> bool:
        """Drop a dead member; re-route its queue.  True if the fleet died.

        Runs on the dying member's own worker thread.  Queued batches move
        to the surviving routable members; if none exist the orphaned
        requests fail right here (their assigned replica is gone and nobody
        can adopt them) — they are never silently lost.
        """
        orphans: List[Pending] = []
        with self._cond:
            member.draining = True
            member.retired = True
            self._members.pop(member.replica_id, None)
            self._board.replicas_retired += 1
            if self._routable():
                for batch in member.batches:
                    self._route(batch)
            else:
                for batch in member.batches:
                    orphans.extend(batch.requests)
                self._admission.release(len(orphans))
                self._board.failed += len(orphans)
            member.batches.clear()
            member.queued_cost = 0
            fleet_dead = self._started and not any(
                not m.retired for m in self._members.values()
            )
            self._cond.notify_all()
        for pending in orphans:
            pending.future._fail(
                RuntimeError(
                    f"replica {member.replica_id} died with this request "
                    "queued and no live replica could adopt it"
                )
            )
        return fleet_dead

    def _spawn_replacement(self) -> None:
        """Best-effort: one fresh replica for a dead one (never raises).

        Runs on the dying worker's thread, strictly outside the fleet lock
        (pool spawning blocks: process start, warm-up forwards).
        """
        try:
            handle = self._pool.spawn_replica()
        except BaseException:
            return
        try:
            self.add_member(handle)
        except BaseException:
            try:
                self._pool.retire_replica(handle)
            except BaseException:
                pass
