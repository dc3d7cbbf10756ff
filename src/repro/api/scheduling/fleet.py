"""Live fleet membership and the scheduler/worker machinery.

The :class:`FleetManager` is the concurrency core behind
``ServingQueue``: it owns the pending deque, the coalescing scheduler
thread, **one ready queue** of formed batches, one worker thread per
replica, and *live* membership.  Replicas are interchangeable — every one
serves the same frozen model — so nothing routes: the scheduler appends
formed batches to the ready queue and each idle worker pulls the oldest
batch it may serve.  That is work-conserving by construction; no replica
sits idle while another has a backlog.

Replicas can be added (:meth:`~FleetManager.add_member`), drained
(:meth:`~FleetManager.drain_member` — the member finishes its in-flight
batch and takes no more) and retired (:meth:`~FleetManager.retire_member`
— drain, then block until the in-flight batch finished and remove the
member) while traffic is being served.  A replica whose session reports
itself ``defunct`` (a dead or poisoned shard worker) is retired
automatically, and with ``replace_dead=True`` the fleet asks the pool for
a fresh replica to take its place.  Only when no member that can still
take work is left does the queue close itself.

The fleet is *resilient*: with a
:class:`~repro.api.scheduling.resilience.RetryPolicy` installed, a batch
hit by a replica-level failure (worker death, timeout, transport/integrity
fault) goes back to the front of the ready queue — after an
exponential-backoff sleep taken strictly outside the lock — marked with
the member it ``failed_on``, which skips it while another member can take
it; every member carries a
:class:`~repro.api.scheduling.resilience.ReplicaHealth` ledger whose
circuit breaker (when configured) keeps a flaky replica's worker from
pulling work until its cooldown half-opens it for a probe; and requests
that carry deadlines are checked when a worker pulls their batch, then
ship their remaining budget with it (``forward(requests, budgets_s)``,
the one replica-handle signature), capping a shard client's transport
wait and letting replicas skip requests that expired in flight.

Locking story (kept deliberately boring; the serving test suites run
under a runtime lock audit, ``tests/lock_audit.py``, that fails a test
which takes a lock under another, touches a guarded field without the
lock, or blocks while holding it): the fleet condition (``_cond`` over
``_lock``) is the **only** lock in the scheduling package.  The
admission controller, batch former and stats board are all lock-free;
their mutable state is only ever touched while it is held; everything
that can block — replica forwards, pool spawn/retire hooks, thread joins,
future fulfilment, **retry backoff sleeps** — happens strictly outside
it.
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
    """One unit of work: a length-homogeneous group of requests.

    ``attempts`` counts completed dispatches that failed — 0 for a fresh
    batch, bumped each time the retry machinery re-queues it — and
    ``failed_on`` names the replica of the last failed attempt (``None``
    for a fresh batch).
    """

    __slots__ = ("requests", "attempts", "failed_on")

    def __init__(
        self,
        requests: List[Pending],
        attempts: int = 0,
        failed_on: Optional[int] = None,
    ) -> None:
        self.requests = requests
        self.attempts = attempts
        self.failed_on = failed_on


class ReplicaMember:
    """One replica's scheduling state: its load and lifecycle flags.

    All fields are guarded by the owning fleet's condition lock.  The
    ``session`` handle (an ``InferenceSession`` or a shard client) is only
    ever *called* outside that lock.
    """

    __slots__ = (
        "replica_id", "session", "thread", "in_flight_requests",
        "in_flight_cost", "batches_served", "completed", "failed",
        "draining", "retired", "exited", "health",
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
        self.in_flight_requests = 0
        self.in_flight_cost = 0
        self.batches_served = 0
        self.completed = 0
        self.failed = 0
        self.draining = False
        self.retired = False
        self.exited = False
        self.health = ReplicaHealth(breaker)

    @property
    def routable(self) -> bool:
        """Whether this member's worker may still take new work."""
        return not self.draining and not self.retired

    def stats(self) -> ReplicaStats:
        return ReplicaStats(
            replica_id=self.replica_id,
            in_flight_requests=self.in_flight_requests,
            in_flight_cost=self.in_flight_cost,
            batches_served=self.batches_served,
            completed=self.completed,
            failed=self.failed,
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
        former: BatchFormer,
        admission: AdmissionController,
        board: StatsBoard,
        replace_dead: bool = False,
        retry: Optional[RetryPolicy] = None,
        breaker: Optional[CircuitBreakerConfig] = None,
    ) -> None:
        self._pool = pool
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
        #: re-queue (the backoff sleep); drain() must wait these out — they
        #: are in no queue and no in-flight counter while parked.
        self._retry_parked = 0
        self._lock = threading.Lock()
        self._cond = threading.Condition(self._lock)
        self._members: Dict[int, ReplicaMember] = {}
        self._pending: Deque[Pending] = deque()
        #: Formed batches, oldest first; every worker pulls from here.
        self._ready: Deque[FormedBatch] = deque()
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
            for batch in self._ready:
                dropped.extend(batch.requests)
            self._pending.clear()
            self._ready.clear()
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
                or self._ready
                or self._inflight_batches
                or self._retry_parked
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
                backlog=self._admission.backlog, replicas=replicas
            )

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
        """Stop a member taking new work; its in-flight batch completes."""
        with self._cond:
            self._removable(replica_id, "drain").draining = True
            self._cond.notify_all()

    def retire_member(self, replica_id: int, timeout: float = 30.0):
        """Remove a member: drain it, wait for its in-flight work, drop it.

        The batch the member is *currently* serving completes on it before
        this call returns; no forward runs on it afterwards.  Returns the
        retired session handle so the caller (the facade) can hand it back
        to the pool.  Raises ``ValueError`` for an unknown id or when
        retirement would leave no live replica, ``TimeoutError`` when
        in-flight work outlives ``timeout``.
        """
        deadline = time.monotonic() + timeout
        with self._cond:
            member = self._removable(replica_id, "retire")
            member.draining = True
            member.retired = True
            self._cond.notify_all()
            # A member without a worker thread (queue built with start=False)
            # has nothing to wait out — only a started worker sets `exited`.
            while member.in_flight_requests > 0 or (
                member.thread is not None and not member.exited
            ):
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
        """The member the autoscaler should shed: least busy, newest id.

        ``None`` when the fleet is already at one routable member.
        """
        with self._cond:
            candidates = self._routable()
            if len(candidates) <= 1:
                return None
            member = min(
                candidates, key=lambda m: (m.in_flight_cost, -m.replica_id)
            )
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
        """Members whose workers may still take new work (fleet lock held)."""
        return [m for m in self._members.values() if m.routable]

    def _removable(self, replica_id: int, verb: str) -> ReplicaMember:
        """The member to take out of service (fleet lock held).

        Raises ``ValueError`` for an unknown id, or when ``verb``-ing the
        member would leave no routable member.
        """
        member = self._members.get(replica_id)
        if member is None:
            raise ValueError(f"unknown replica id {replica_id}")
        if not any(m is not member for m in self._routable()):
            raise ValueError(
                f"cannot {verb} the last live replica; add one first"
            )
        return member

    # ------------------------------------------------------------------ #
    # Scheduler: pending window -> formed batches on the ready queue
    # ------------------------------------------------------------------ #
    def _scheduler_loop(self) -> None:
        with self._cond:
            while True:
                while not self._closed and not self._pending:
                    self._cond.wait()
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
                # The former is pure and cheap: forming under the lock
                # keeps the window and the ready queue one atomic step.
                self._ready.extend(
                    FormedBatch(group)
                    for group in self._former.form(list(self._pending))
                )
                self._pending.clear()
                self._cond.notify_all()

    # ------------------------------------------------------------------ #
    # Workers: one thread per member, all pulling from the ready queue
    # ------------------------------------------------------------------ #
    def _worker_loop(self, member: ReplicaMember) -> None:
        try:
            self._serve_member(member)
        finally:
            # Every exit path — closed queue, drained, retired, dead
            # replica — publishes the member as exited so retire_member's
            # wait and the stats snapshot see the truth.
            with self._cond:
                member.exited = True
                self._cond.notify_all()

    def _take(self, member: ReplicaMember) -> Optional[FormedBatch]:
        """The oldest ready batch ``member`` may serve, dequeued (lock held).

        ``None`` while the member's breaker is open, or when every ready
        batch last failed on this member and another member can take it.
        """
        if not member.health.admits(time.monotonic()):
            return None
        skip_own_failures = len(self._routable()) > 1
        for index, batch in enumerate(self._ready):
            if not skip_own_failures or batch.failed_on != member.replica_id:
                del self._ready[index]
                return batch
        return None

    def _serve_member(self, member: ReplicaMember) -> None:
        session = member.session
        while True:
            with self._cond:
                while True:
                    if self._closed or not member.routable:
                        return
                    batch = self._take(member)
                    if batch is not None:
                        break
                    # Breaker reopening is time-driven — nothing notifies
                    # when a cooldown elapses — so an open breaker bounds
                    # the wait by its own reopen ETA.
                    self._cond.wait(
                        member.health.reopen_eta_s(time.monotonic())
                    )
                # The one deadline check before service: a request whose
                # deadline lapsed while queued fails rather than be served
                # arbitrarily late (or waste forward time).
                now = time.monotonic()
                live, expired = self._admission.split_expired(
                    batch.requests, now
                )
                self._board.expired += len(expired)
                self._admission.release(len(expired))
                live_cost = sum(p.cost for p in live)
                if live:
                    member.in_flight_requests += len(live)
                    member.in_flight_cost += live_cost
                    self._inflight_batches += 1
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
                    # Only when no member that can take work is left must
                    # the queue fail fast rather than silently accept
                    # requests nothing will serve.
                    if self._retire_dead_member(member):
                        self.shut_down(
                            "every replica of this ServingQueue's pool is "
                            "dead or draining; the queue closed itself"
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
        (``RetryPolicy.retryable``), the batch goes back to the front of
        the ready queue, marked ``failed_on`` this member — after an
        exponential-backoff sleep taken strictly OUTSIDE the fleet lock —
        instead of failing its futures; the batch keeps its admission slots
        while parked (``_retry_parked`` makes it visible to ``drain``).
        Non-retryable failures, exhausted attempts, an exhausted window
        retry budget, or a closed queue fail each future with its own
        error clone, as every failure does without a policy.
        """
        live_cost = sum(p.cost for p in live)
        now = time.monotonic()
        retry_batch: Optional[FormedBatch] = None
        backoff_s = 0.0
        with self._cond:
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
                retry_batch = FormedBatch(
                    live, batch.attempts + 1, failed_on=member.replica_id
                )
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
                # The oldest work in the system: it is served next.
                self._ready.appendleft(retry_batch)
            self._cond.notify_all()
        for pending in dropped:
            pending.future._fail(
                ServerClosedError(
                    "ServingQueue was closed while a batch awaited its retry"
                )
            )

    def _retire_dead_member(self, member: ReplicaMember) -> bool:
        """Drop a dead member.  True if no member can take work any more.

        Runs on the dying member's own worker thread.  Its queued work
        needs no moving — it never left the shared ready queue — and a
        draining member does not count as able to take it.
        """
        with self._cond:
            member.retired = True
            self._members.pop(member.replica_id, None)
            self._board.replicas_retired += 1
            self._cond.notify_all()
            return not self._routable()

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
