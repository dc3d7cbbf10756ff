"""Serving statistics: the immutable snapshots and the mutable board.

:class:`ServingStats` (and the per-replica :class:`ReplicaStats` rows it
carries) is the public, frozen snapshot ``ServingQueue.stats()``
returns.  Queued work is one number, ``queue_depth``: the fleet keeps one
ready queue that every replica worker pulls from, so a replica's row
holds only what it has in flight and what it has served.
:class:`StatsBoard` is the mutable ledger behind it — plain counters and
bounded latency deques, part of the pure fleet core
(:mod:`repro.api.scheduling.fleet`) and so mutated only under the lock of
the ``ServingQueue`` running it; it has no lock of its own.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Sequence, Tuple

import numpy as np

from .admission import Pending

__all__ = ["ReplicaStats", "ServingStats", "StatsBoard"]


@dataclass(frozen=True)
class ReplicaStats:
    """Scheduling state of one fleet member at snapshot time.

    A member holds no queue of its own (every worker pulls from the
    fleet's one ready queue), so ``in_flight_requests`` is all the work it
    has.  ``draining`` members finish their in-flight batch but take no
    new work; a member that is not ``live`` serves nothing any more (it
    was drained and has nothing in flight, or it is retiring).

    The health fields mirror the member's
    :class:`~repro.api.scheduling.resilience.ReplicaHealth` ledger:
    cumulative batch ``errors`` (of which ``timeouts``), the
    service-latency EWMA, and the circuit ``breaker_state``
    (``closed``/``open``/``half_open``; always ``closed`` when no breaker
    is configured).
    """

    replica_id: int
    in_flight_requests: int
    batches_served: int
    completed: int
    failed: int
    draining: bool
    live: bool
    errors: int = 0
    timeouts: int = 0
    service_ewma_ms: float = 0.0
    breaker_state: str = "closed"

    @property
    def routable(self) -> bool:
        """Whether this member's worker may still take new work."""
        return self.live and not self.draining


@dataclass(frozen=True)
class ServingStats:
    """Aggregate queue statistics since construction (or the last reset).

    Latency is submit-to-fulfilment wall time per completed request, split
    into its two phases: **queue wait** (submit until a worker picked the
    request's batch up for dispatch) and **service** (dispatch until the
    result was ready — the replica forward plus, for sharded pools, the
    request/response transport).  ``*_latency_ms`` digests the total;
    ``*_queue_wait_ms`` / ``*_service_ms`` digest the phases, so scheduling
    pressure and per-call serving cost (e.g. IPC overhead) are visible
    separately per measurement window.  ``throughput_rps`` divides
    completions by the span between the first submit and the last
    fulfilment.  ``mean_batch_size`` measures how much cross-caller
    coalescing actually happened (1.0 = no coalescing).  ``queue_depth``
    (and its high-water mark) counts the whole backlog — pending, formed
    into batches, and in flight — the same quantity ``max_queue_depth``
    admission control bounds.

    ``replicas`` carries one :class:`ReplicaStats` row per current fleet
    member, and ``replicas_added``/``replicas_retired`` count live
    membership changes (hot-adds and drain/retire/death removals) in the
    window.

    The resilience counters cover the retry/breaker/integrity machinery:
    ``retry_attempts`` re-dispatches of failed batches (``retried_requests``
    requests total, bounded by the policy's retry budget per window),
    ``breaker_opens``/``breaker_closes`` circuit-breaker transitions,
    ``integrity_failures`` ring frames rejected by their checksum, and
    ``expired_in_flight`` requests whose deadline lapsed after dispatch
    (workers skip them; they are also counted in ``expired``).
    """

    submitted: int
    completed: int
    rejected: int
    expired: int
    failed: int
    queue_depth: int
    max_queue_depth_seen: int
    batches: int
    mean_batch_size: float
    p50_latency_ms: float
    p99_latency_ms: float
    mean_latency_ms: float
    p50_queue_wait_ms: float
    p99_queue_wait_ms: float
    mean_queue_wait_ms: float
    p50_service_ms: float
    p99_service_ms: float
    mean_service_ms: float
    throughput_rps: float
    replicas_added: int = 0
    replicas_retired: int = 0
    retry_attempts: int = 0
    retried_requests: int = 0
    breaker_opens: int = 0
    breaker_closes: int = 0
    integrity_failures: int = 0
    expired_in_flight: int = 0
    replicas: Tuple[ReplicaStats, ...] = ()

    @property
    def live_replicas(self) -> int:
        """Members whose workers can still take new work."""
        return sum(1 for replica in self.replicas if replica.routable)


class StatsBoard:
    """Mutable counters and latency digests behind :class:`ServingStats`.

    Every mutation is a fleet-core transition under the queue's lock; the
    board itself is lock-free on purpose (one scheduler, one lock).
    Latency deques are bounded to keep long-lived servers' memory flat.
    """

    def __init__(self) -> None:
        self._zero()
        self.max_depth_seen = 0
        self.latencies_ms: Deque[float] = deque(maxlen=8192)
        self.queue_waits_ms: Deque[float] = deque(maxlen=8192)
        self.services_ms: Deque[float] = deque(maxlen=8192)
        self.first_submit_at: float | None = None
        self.last_done_at: float | None = None

    def _zero(self) -> None:
        """The window's counters, zeroed (construction and ``reset``)."""
        self.submitted = 0
        self.completed = 0
        self.rejected = 0
        self.expired = 0
        self.failed = 0
        self.batches = 0
        self.batched_rows = 0
        self.replicas_added = 0
        self.replicas_retired = 0
        self.retry_attempts = 0
        self.retried_requests = 0
        self.breaker_opens = 0
        self.breaker_closes = 0
        self.integrity_failures = 0
        self.expired_in_flight = 0

    def note_submitted(self, now: float, backlog: int) -> None:
        self.submitted += 1
        if self.first_submit_at is None:
            self.first_submit_at = now
        self.max_depth_seen = max(self.max_depth_seen, backlog)

    def record_batch(
        self, batch: Sequence[Pending], dispatched_at: float, done_at: float
    ) -> None:
        """Account one successfully served batch (its latency partition)."""
        self.batches += 1
        self.batched_rows += len(batch)
        self.completed += len(batch)
        self.last_done_at = done_at
        for pending in batch:
            self.latencies_ms.append(1000.0 * (done_at - pending.submitted_at))
            self.queue_waits_ms.append(
                1000.0 * (dispatched_at - pending.submitted_at)
            )
            self.services_ms.append(1000.0 * (done_at - dispatched_at))

    def reset(self, backlog: int, now: float) -> None:
        """Zero the window (see ``ServingQueue.reset_stats`` for semantics)."""
        self._zero()
        self.latencies_ms.clear()
        self.queue_waits_ms.clear()
        self.services_ms.clear()
        # Anchor the span at the reset when requests are still in the
        # system — their completions land in this window and must not
        # report as zero throughput.
        self.first_submit_at = now if backlog else None
        self.last_done_at = None
        self.max_depth_seen = backlog

    @staticmethod
    def _digest(values_ms: Deque[float]) -> Tuple[float, float, float]:
        """``(p50, p99, mean)`` of a bounded latency deque (0s when empty)."""
        if not values_ms:
            return 0.0, 0.0, 0.0
        values = np.asarray(values_ms, dtype=np.float64)
        return (
            float(np.percentile(values, 50)),
            float(np.percentile(values, 99)),
            float(np.mean(values)),
        )

    def snapshot(
        self, backlog: int, replicas: Tuple[ReplicaStats, ...]
    ) -> ServingStats:
        p50, p99, mean = self._digest(self.latencies_ms)
        wait_p50, wait_p99, wait_mean = self._digest(self.queue_waits_ms)
        service_p50, service_p99, service_mean = self._digest(self.services_ms)
        span = None
        if self.first_submit_at is not None and self.last_done_at is not None:
            span = self.last_done_at - self.first_submit_at
        return ServingStats(
            submitted=self.submitted,
            completed=self.completed,
            rejected=self.rejected,
            expired=self.expired,
            failed=self.failed,
            queue_depth=backlog,
            max_queue_depth_seen=self.max_depth_seen,
            batches=self.batches,
            mean_batch_size=(
                self.batched_rows / self.batches if self.batches else 0.0
            ),
            p50_latency_ms=p50,
            p99_latency_ms=p99,
            mean_latency_ms=mean,
            p50_queue_wait_ms=wait_p50,
            p99_queue_wait_ms=wait_p99,
            mean_queue_wait_ms=wait_mean,
            p50_service_ms=service_p50,
            p99_service_ms=service_p99,
            mean_service_ms=service_mean,
            throughput_rps=(
                self.completed / span if span and span > 0 else 0.0
            ),
            replicas_added=self.replicas_added,
            replicas_retired=self.replicas_retired,
            retry_attempts=self.retry_attempts,
            retried_requests=self.retried_requests,
            breaker_opens=self.breaker_opens,
            breaker_closes=self.breaker_closes,
            integrity_failures=self.integrity_failures,
            expired_in_flight=self.expired_in_flight,
            replicas=replicas,
        )
