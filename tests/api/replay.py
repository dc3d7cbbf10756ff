"""Deterministic virtual-time replay of a trace against the scheduling core.

:func:`run` plays a :class:`traces.Trace` against the unmodified
:class:`~repro.api.scheduling.fleet.Fleet` the way ``ServingQueue`` drives
it — ``submit`` at each arrival, ``form`` when the window is due, ``take``
for every idle member, ``settle`` when a replica's forward ends — on a
virtual clock, with fake replicas whose forward takes
:func:`int8_service` seconds.  There are no threads and no sleeps, and
nothing here decides anything the core does not: the loop only jumps the
clock to the next instant something can happen (an arrival, a forward
ending, a wake time the core returned, a scheduled action) and replays
the core's transitions there.  The same trace and arguments give the same
:class:`Report`, bit for bit.

The queue forms exact-length batches of up to 16 rows behind a 2 ms
coalescing window (``ServingQueue``'s default).  ``failures`` is a
per-member failure schedule: replica id -> a function of that member's
dispatch number returning the exception its forward raises (``None``: it
serves).  A failed forward takes :data:`FAILURE_COST` times its service
time.  :func:`flaky` builds the seeded "fails each batch with probability
p" schedule.  ``actions`` are ``(at_s, callable(fleet, now))`` pairs fired
the first time the clock reaches ``at_s``: hot-adds, drains, retires.

The report carries what a serving judgement needs: attainment of a 250 ms
SLO, replica-seconds (every member counts from when it joins the fleet
until it leaves it, and the span runs to the later of the trace's end and
the last event), goodput per replica-second, virtual p50 / p99 latency,
the membership changes (members added, members retired) and the core's
own ``ServingStats`` at the end.

Run from ``tests/api`` as ``import replay`` (the serving tests do); its
numbers are in virtual time, independent of the machine it runs on.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.api import ServingStats
from repro.api.scheduling import BatchFormer, Fleet, Pending

__all__ = ["Report", "flaky", "int8_service", "run"]

SLO_S = 0.25
MAX_BATCH_SIZE = 16
MAX_WAIT_S = 0.002
#: A failed forward runs this many times its service time before it raises.
FAILURE_COST = 3.0

#: A failure schedule: dispatch number on the member -> the error, or None.
Schedule = Callable[[int], Optional[BaseException]]


def int8_service(lengths: Sequence[int]) -> float:
    """A forward of ``lengths`` on one int8-native session: 2 ms + 0.14 ms/token.

    0.14 ms per token is the int8-native engine's ~7.1 k tokens/s per
    session on the benchmark geometry (BERT-base layers).
    """
    return 0.002 + 0.00014 * sum(lengths)


def flaky(p: float, seed: int, error: BaseException) -> Schedule:
    """Fail each dispatch with probability ``p``, drawn from ``seed``."""
    rng = np.random.default_rng(seed)
    draws: List[float] = []

    def schedule(k: int) -> Optional[BaseException]:
        while len(draws) <= k:
            draws.append(float(rng.random()))
        return error if draws[k] < p else None

    return schedule


@dataclass(frozen=True)
class Report:
    """What one replay did (times in virtual seconds or milliseconds)."""

    requests: int
    served: int
    #: Served within the SLO.
    goodput: int
    replica_seconds: float
    p50_ms: float
    p99_ms: float
    #: Membership changes: members that joined / left the fleet mid-trace.
    added: int
    retired: int
    #: The core's own snapshot at the end of the replay.
    stats: ServingStats = field(repr=False)
    #: Per request, by trace index: its latency, or the error class name.
    outcomes: Tuple[object, ...] = field(repr=False)

    @property
    def attainment(self) -> float:
        return self.goodput / self.requests

    @property
    def goodput_per_replica_s(self) -> float:
        return self.goodput / self.replica_seconds


def run(
    trace,
    replicas: int,
    *,
    max_queue_depth: int = 1024,
    retry=None,
    breaker=None,
    failures: Mapping[int, Schedule] = {},
    actions: Sequence[Tuple[float, Callable[[Fleet, float], object]]] = (),
) -> Report:
    """Replay ``trace`` on a fleet of ``replicas`` fake replicas (module docstring)."""
    former = BatchFormer(
        max_batch_size=MAX_BATCH_SIZE, bucket_size=1,
        max_sequence_length=max(trace.lengths), max_wait_s=MAX_WAIT_S,
    )
    fleet = Fleet(
        [None] * replicas, former, max_queue_depth, retry=retry, breaker=breaker,
    )
    index_of: Dict[Pending, int] = {}
    outcomes: List[object] = [None] * len(trace.arrivals_s)
    dispatches: Dict[int, int] = {}
    #: Forwards in flight: (ends_at, replica id, the error it raises or None).
    ends: List[Tuple[float, int, Optional[BaseException]]] = []
    joined: Dict[int, float] = {}
    replica_seconds = 0.0
    scheduled = sorted(actions, key=lambda pair: pair[0])
    next_arrival = next_action = 0
    now = 0.0

    def resolve(pairs) -> None:
        for pending, outcome in pairs:
            index = index_of[pending]
            assert outcomes[index] is None, f"request {index} resolved twice"
            outcomes[index] = (
                type(outcome).__name__ if isinstance(outcome, BaseException)
                else 1000.0 * (now - pending.submitted_at)
            )

    def membership() -> None:
        nonlocal replica_seconds
        for rid in fleet.members.keys() - joined.keys():
            joined[rid] = now
        for rid in joined.keys() - fleet.members.keys():
            replica_seconds += now - joined.pop(rid)

    while True:
        # Everything due at ``now``: actions, forwards ending, arrivals.
        while next_action < len(scheduled) and scheduled[next_action][0] <= now:
            scheduled[next_action][1](fleet, now)
            next_action += 1
        while ends and ends[0][0] <= now:
            _, rid, outcome = heapq.heappop(ends)
            member = fleet.members[rid]
            batch = member.batch
            if isinstance(outcome, BaseException):
                settled, _ = fleet.settle(member, batch, now, error=outcome)
            else:
                settled, _ = fleet.settle(
                    member, batch, now, results=[p.tokens for p in batch.requests]
                )
            resolve(settled)
        while (
            next_arrival < len(trace.arrivals_s)
            and trace.arrivals_s[next_arrival] <= now
        ):
            pending = Pending(
                tokens=trace.requests[next_arrival], future=None,
                submitted_at=now, deadline_at=None,
            )
            index_of[pending] = next_arrival
            try:
                fleet.submit(pending)
            except Exception as exc:
                outcomes[next_arrival] = type(exc).__name__
            next_arrival += 1
        # The notify: close a due window, then every idle member takes.
        _, wake_at = fleet.form(now)
        wakes = [] if wake_at is None else [wake_at]
        taking = True
        while taking:
            taking = False
            for rid, member in sorted(fleet.members.items()):
                if member.batch is not None:
                    continue
                batch, settled, wake_at = fleet.take(member, now)
                resolve(settled)
                if wake_at is not None:
                    wakes.append(wake_at)
                if batch is None:
                    taking = taking or bool(settled)
                    continue
                taking = True
                k = dispatches.get(rid, 0)
                dispatches[rid] = k + 1
                error = failures[rid](k) if rid in failures else None
                cost = int8_service([p.tokens.size for p in batch.requests])
                if error is not None:
                    cost *= FAILURE_COST
                heapq.heappush(ends, (now + cost, rid, error))
        membership()
        upcoming = wakes + [end for end, _, _ in ends[:1]]
        if next_arrival < len(trace.arrivals_s):
            upcoming.append(trace.arrivals_s[next_arrival])
        if next_action < len(scheduled):
            upcoming.append(scheduled[next_action][0])
        if not upcoming:
            break
        now = min(upcoming)

    lost = [index for index, outcome in enumerate(outcomes) if outcome is None]
    assert not lost, f"requests {lost[:8]} were never resolved"
    now = max(now, trace.config.duration_s)
    for rid in list(joined):
        replica_seconds += now - joined.pop(rid)
    latencies = [o for o in outcomes if isinstance(o, float)]
    stats = fleet.snapshot()
    p50, p99 = np.percentile(latencies, [50, 99]) if latencies else (0.0, 0.0)
    return Report(
        requests=len(outcomes),
        served=len(latencies),
        goodput=sum(1 for latency in latencies if latency <= 1000.0 * SLO_S),
        replica_seconds=replica_seconds,
        p50_ms=float(p50),
        p99_ms=float(p99),
        added=stats.replicas_added,
        retired=stats.replicas_retired,
        stats=stats,
        outcomes=tuple(outcomes),
    )
