"""The scheduling core: one pure state machine on caller-supplied time.

:class:`Fleet` is everything a ``ServingQueue`` decides and nothing it
waits on: it holds no thread, lock, clock, sleep or future.  Its state is
the pending deque, **one ready queue** of formed batches, the replica
members, the admission backlog, the stats board and the retry jitter
stream.  Every transition takes ``now`` as an argument and returns plain
values saying what to do outside the lock: the batch a member dispatches,
the requests to resolve — ``(pending, result or exception)`` pairs — when
to wake next, and whether to spawn a replacement for a dead member.

Replicas are interchangeable — every one serves the same frozen model —
so nothing routes: formed batches go on the ready queue and an idle
member takes the oldest one it may serve (:meth:`Fleet.take`).  That is
work-conserving by construction; no member idles while there is a batch
it may take.  Membership is live: members are added, drained (finish the
batch in flight, take no more) and retired (drained, then gone once
nothing of theirs is in flight) while traffic is served.

:meth:`Fleet.settle` accounts the end of every dispatch, whatever
happened.  Served requests are fulfilled, and the ones a replica skipped
because their deadline lapsed in flight fail typed.  A failed batch, under
a :class:`~repro.api.scheduling.resilience.RetryPolicy` and a
replica-level fault, goes back to the front of the ready queue marked
with the member it ``failed_on`` and a ``not_before`` time of ``now`` plus
the backoff: backoff delays the batch, never a worker.  The member it
failed on skips it while another member can take it — routable, and its
breaker admitting work at ``now`` — so a retry never waits for another
member's breaker to reopen.  Other failures fail each future with its own
error.  A member whose replica reports itself ``defunct`` is retired, and
once no routable member is left the fleet closes itself.

A deadline is one boundary everywhere: a request whose ``deadline_at`` is
at or before the instant a member takes its batch has expired and is
never dispatched (the replicas treat a budget of ``<= 0`` the same way).

:class:`~repro.api.server.ServingQueue` is the only code that runs it: it
holds the condition lock every transition runs under, the scheduler and
worker threads and the replica forwards, and resolves the returned
futures outside the lock.
"""

from __future__ import annotations

import copy
from collections import deque
from typing import Deque, Dict, List, Optional, Sequence, Tuple

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

__all__ = ["FormedBatch", "ReplicaMember", "Fleet"]

#: One request's resolution: its result rows, or the exception its future raises.
Outcome = Tuple[Pending, object]


def _per_future_error(exc: BaseException) -> BaseException:
    """A private copy of a batch failure for one future.

    Every future in a failed batch re-raises "the" error, but ``raise``
    mutates the raised instance's ``__traceback__`` — handing the *same*
    instance to N futures makes concurrent ``result()`` calls race on that
    shared mutable state (and chains unrelated client-side tracebacks into
    each other).  Each future therefore gets its own copy, with the original
    attached as ``__cause__`` so nothing about the failure is lost.

    This helper must *never* raise: it runs inside :meth:`Fleet.settle` on a
    worker thread, and an escaping exception there kills the worker with the
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

    ``attempts`` counts its failed dispatches and ``failed_on`` names the
    member of the last one (``None`` for a fresh batch).  No member takes
    it before ``not_before`` (a retry's backoff); ``dispatched_at`` is when
    a member last took it.
    """

    __slots__ = ("requests", "attempts", "failed_on", "not_before", "dispatched_at")

    def __init__(
        self,
        requests: List[Pending],
        attempts: int = 0,
        failed_on: Optional[int] = None,
        not_before: float = float("-inf"),
    ) -> None:
        self.requests = requests
        self.attempts = attempts
        self.failed_on = failed_on
        self.not_before = not_before
        self.dispatched_at = 0.0


class ReplicaMember:
    """One replica's scheduling state: its batch in flight and lifecycle flags.

    The ``session`` handle (an ``InferenceSession`` or a shard client) is
    only ever called by the ``ServingQueue``, outside its lock.
    """

    __slots__ = (
        "replica_id", "session", "health", "batch", "batches_served",
        "completed", "failed", "draining", "retired",
    )

    def __init__(
        self,
        replica_id: int,
        session,
        breaker: Optional[CircuitBreakerConfig] = None,
    ) -> None:
        self.replica_id = replica_id
        self.session = session
        self.health = ReplicaHealth(breaker)
        self.batch: Optional[FormedBatch] = None
        self.batches_served = 0
        self.completed = 0
        self.failed = 0
        self.draining = False
        self.retired = False

    @property
    def routable(self) -> bool:
        """Whether this member may still take new work."""
        return not self.draining and not self.retired

    def stats(self) -> ReplicaStats:
        requests = self.batch.requests if self.batch is not None else ()
        return ReplicaStats(
            replica_id=self.replica_id,
            in_flight_requests=len(requests),
            batches_served=self.batches_served,
            completed=self.completed,
            failed=self.failed,
            draining=self.draining,
            live=not self.retired and (not self.draining or bool(requests)),
            errors=self.health.errors,
            timeouts=self.health.timeouts,
            service_ewma_ms=self.health.service_ewma_ms,
            breaker_state=self.health.state,
        )


class Fleet:
    """The scheduler's whole state and its transitions (module docstring).

    Every method runs under the queue's lock and returns at once.
    ``sessions`` are the replica handles the fleet starts with.
    """

    def __init__(
        self,
        sessions: Sequence,
        former: BatchFormer,
        max_queue_depth: int,
        retry: Optional[RetryPolicy] = None,
        breaker: Optional[CircuitBreakerConfig] = None,
        replace_dead: bool = False,
    ) -> None:
        self._former = former
        self._retry = retry
        self._breaker = breaker
        self._replace_dead = replace_dead
        self.board = StatsBoard()
        self.admission = AdmissionController(max_queue_depth, self.board)
        self.retry_rng = np.random.default_rng(retry.seed if retry else 0)
        self.pending: Deque[Pending] = deque()
        #: Formed batches, oldest first; every member takes from here.
        self.ready: Deque[FormedBatch] = deque()
        self.members: Dict[int, ReplicaMember] = {}
        self.next_replica_id = 0
        self.closed = False
        #: Requests close() failed instead of serving; the queue's drain()
        #: tells "served" from "discarded" by it.
        self.dropped_on_close = 0
        for session in sessions:
            self._register(session)

    # ------------------------------------------------------------------ #
    # Requests
    # ------------------------------------------------------------------ #
    def submit(self, pending: Pending) -> None:
        """Admit one request to the coalescing window (raises when closed or full)."""
        if self.closed:
            raise ServerClosedError("ServingQueue is closed")
        self.admission.admit()
        self.pending.append(pending)
        self.board.note_submitted(pending.submitted_at, self.admission.backlog)

    def close(self, reason: str) -> List[Outcome]:
        """Close the fleet; the queued backlog fails (idempotent).

        Batches in flight still settle; nothing is taken afterwards.
        """
        if self.closed:
            return []
        self.closed = True
        dropped = list(self.pending)
        for batch in self.ready:
            dropped.extend(batch.requests)
        self.pending.clear()
        self.ready.clear()
        self.admission.release(len(dropped))
        self.dropped_on_close += len(dropped)
        return [(pending, ServerClosedError(reason)) for pending in dropped]

    @property
    def idle(self) -> bool:
        """Whether nothing is pending, formed or in flight."""
        return not (
            self.pending
            or self.ready
            or any(m.batch is not None for m in self.members.values())
        )

    def snapshot(self) -> ServingStats:
        """A ``ServingStats`` snapshot: board, backlog and one row per member."""
        replicas = tuple(self.members[rid].stats() for rid in sorted(self.members))
        return self.board.snapshot(backlog=self.admission.backlog, replicas=replicas)

    # ------------------------------------------------------------------ #
    # Membership
    # ------------------------------------------------------------------ #
    def add(self, session) -> ReplicaMember:
        """Adopt a hot-added replica handle."""
        if self.closed:
            raise ServerClosedError("ServingQueue is closed")
        self.board.replicas_added += 1
        return self._register(session)

    def drain(self, replica_id: int) -> None:
        """Stop a member taking new work; its batch in flight settles."""
        self._removable(replica_id, "drain").draining = True

    def retire(self, replica_id: int) -> ReplicaMember:
        """Take a member out of service for good.

        It leaves ``members`` once nothing of its is in flight — at once,
        or when its batch settles.  Raises ``ValueError`` for an unknown id
        or when no other routable member would be left.
        """
        member = self._removable(replica_id, "retire")
        self._retire(member)
        return member

    def _register(self, session) -> ReplicaMember:
        member = ReplicaMember(self.next_replica_id, session, self._breaker)
        self.next_replica_id += 1
        self.members[member.replica_id] = member
        return member

    def _routable(self) -> List[ReplicaMember]:
        return [m for m in self.members.values() if m.routable]

    def _removable(self, replica_id: int, verb: str) -> ReplicaMember:
        member = self.members.get(replica_id)
        if member is None:
            raise ValueError(f"unknown replica id {replica_id}")
        if not any(m is not member for m in self._routable()):
            raise ValueError(
                f"cannot {verb} the last live replica; add one first"
            )
        return member

    def _retire(self, member: ReplicaMember) -> None:
        member.draining = member.retired = True
        if member.batch is None and self.members.pop(member.replica_id, None):
            self.board.replicas_retired += 1

    # ------------------------------------------------------------------ #
    # Scheduling
    # ------------------------------------------------------------------ #
    def form(self, now: float) -> Tuple[bool, Optional[float]]:
        """Close the coalescing window if it is due at ``now``.

        A window closes ``max_wait_s`` after its oldest request, or early
        once every routable member has a full batch pending.  Returns
        ``(formed, wake_at)``: whether batches joined the ready queue, and
        when the open window is due (``None``: nothing pending).
        """
        if not self.pending:
            return False, None
        window_end = self._former.window_deadline(self.pending[0].submitted_at)
        if now < window_end and not self._former.saturated(
            len(self.pending), len(self._routable())
        ):
            return False, window_end
        self.ready.extend(
            FormedBatch(group) for group in self._former.form(list(self.pending))
        )
        self.pending.clear()
        return True, None

    def take(
        self, member: ReplicaMember, now: float
    ) -> Tuple[Optional[FormedBatch], List[Outcome], Optional[float]]:
        """Dispatch to ``member`` the oldest ready batch it may serve at ``now``.

        Returns ``(batch, outcomes, wake_at)``.  ``batch`` is in flight on
        ``member`` from here on, holding only the requests whose deadline
        is still ahead; ``outcomes`` fails the others.  With nothing to take
        ``batch`` is ``None`` and ``wake_at`` is when time alone makes a
        batch takeable — the earliest ``not_before`` or the member's
        breaker reopening (``None``: only another transition can).
        """
        if self.closed or not member.routable or member.batch is not None:
            return None, [], None
        if member.health.reopen_eta_s(now):
            return None, [], member.health.reopen_at
        # "Another member can take it": routable, and its breaker admitting
        # work at ``now`` — asked without half-opening anyone's breaker.
        another = any(
            m.routable and not m.health.reopen_eta_s(now)
            for m in self.members.values()
            if m is not member
        )
        wake_at: Optional[float] = None
        for index, batch in enumerate(self.ready):
            if batch.not_before > now:
                if wake_at is None or batch.not_before < wake_at:
                    wake_at = batch.not_before
            elif not (another and batch.failed_on == member.replica_id):
                del self.ready[index]
                break
        else:
            return None, [], wake_at
        live, expired = self.admission.split_expired(batch.requests, now)
        self.admission.release(len(expired))
        self.board.expired += len(expired)
        outcomes: List[Outcome] = [
            (pending, DeadlineExceededError(
                "request deadline elapsed before its forward started "
                f"(queued {1000 * (now - pending.submitted_at):.1f} ms)"
            ))
            for pending in expired
        ]
        if not live:
            return None, outcomes, None
        member.health.admits(now)  # half-opens an elapsed breaker: a probe
        batch.requests, batch.dispatched_at = live, now
        member.batch = batch
        return batch, outcomes, None

    def settle(
        self,
        member: ReplicaMember,
        batch: FormedBatch,
        now: float,
        results: Optional[Sequence] = None,
        error: Optional[BaseException] = None,
        defunct: bool = False,
    ) -> Tuple[List[Outcome], bool]:
        """Account the end of ``member``'s dispatch of ``batch`` at ``now``.

        ``results`` when the forward returned — a zero-row result for a
        request with a deadline means the replica skipped it, the deadline
        having lapsed in flight — else the ``error`` it raised, and
        ``defunct`` when that replica is dead for good.  Returns the
        outcomes to resolve and whether to spawn a replacement member.
        """
        member.batch = None
        requests = batch.requests
        outcomes: List[Outcome] = []
        if error is None:
            if member.health.record_success(1000.0 * (now - batch.dispatched_at)):
                self.board.breaker_closes += 1
            served = []
            for pending, result in zip(requests, results):
                no_rows = getattr(result, "shape", (1,))[0] == 0
                if pending.deadline_at is not None and no_rows:
                    result = DeadlineExceededError(
                        "request deadline elapsed in flight; the worker "
                        "skipped its forward"
                    )
                else:
                    served.append(pending)
                outcomes.append((pending, result))
            skipped = len(requests) - len(served)
            self.board.record_batch(served, batch.dispatched_at, now)
            self.board.expired += skipped
            self.board.expired_in_flight += skipped
            self.admission.release(len(requests))
            member.batches_served += 1
            member.completed += len(served)
        else:
            if member.health.record_failure(
                now, timeout=isinstance(error, TimeoutError)
            ):
                self.board.breaker_opens += 1
            if isinstance(error, TransportIntegrityError):
                self.board.integrity_failures += 1
            retry = self._retry
            if (
                retry is not None
                and not self.closed
                and batch.attempts + 1 < retry.max_attempts
                and retry.retryable(error)
                and self.board.retried_requests + len(requests) <= retry.retry_budget
            ):
                attempts = batch.attempts + 1
                self.board.retry_attempts += 1
                self.board.retried_requests += len(requests)
                # The oldest work in the system: it goes first once due.
                self.ready.appendleft(FormedBatch(
                    requests, attempts, member.replica_id,
                    now + retry.backoff_s(attempts, self.retry_rng),
                ))
            else:
                self.board.failed += len(requests)
                self.admission.release(len(requests))
                member.failed += len(requests)
                outcomes = [(p, _per_future_error(error)) for p in requests]
        # A permanently dead replica leaves the fleet: failing batches
        # instantly, it would outrace the healthy members.  With no member
        # left that can take work the fleet closes rather than accept
        # requests nothing will serve.
        dead = error is not None and defunct
        if dead or member.retired:
            self._retire(member)
        if not dead:
            return outcomes, False
        if self._routable():
            return outcomes, self._replace_dead and not self.closed
        outcomes += self.close(
            "every replica of this ServingQueue's pool is dead or draining; "
            "the queue closed itself"
        )
        return outcomes, False
