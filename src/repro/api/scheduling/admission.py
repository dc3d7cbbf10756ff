"""Admission control: request validation, bounded backlog, deadlines.

The :class:`AdmissionController` is the front door of the scheduling
package: it decides whether a request may enter the system at all
(:meth:`~AdmissionController.admit` enforces the ``max_queue_depth``
backlog bound over *everything* submitted but unfinished — pending,
formed into batches, or in flight) and owns the deadline policy
(:meth:`~AdmissionController.split_expired` partitions a window into
still-serveable requests and ones whose queueing deadline lapsed).

The controller holds **no lock of its own**: it is part of the pure
:class:`~repro.api.scheduling.fleet.Fleet` core, whose transitions all run
under the one lock of the ``ServingQueue`` running it.  ``validate`` and
``split_expired`` are pure.

The request-level exception types and the :class:`ServingFuture` result
handle live here too: admission is where a request's contract with the
server is decided, and every other scheduling module (and the
:mod:`repro.api.server` facade) imports them from this one place.
"""

from __future__ import annotations

import threading
import time
from typing import List, Sequence, Tuple

import numpy as np

from ..batching import _validate_request

__all__ = [
    "QueueFullError",
    "DeadlineExceededError",
    "ServerClosedError",
    "ServingFuture",
    "Pending",
    "AdmissionController",
]


class QueueFullError(RuntimeError):
    """Raised by ``submit`` when the queue is at ``max_queue_depth``."""


class DeadlineExceededError(RuntimeError):
    """Raised from a request's future when its deadline passed while queued."""


class ServerClosedError(RuntimeError):
    """Raised when submitting to (or waiting on) a closed :class:`ServingQueue`."""


class ServingFuture:
    """Result handle for one submitted request.

    ``result()`` blocks until the scheduler fulfils (or fails) the request
    and either returns the hidden states ``(length, hidden)`` or raises the
    recorded error (:class:`DeadlineExceededError`, :class:`ServerClosedError`,
    or whatever the forward itself raised).  ``done_at`` records the
    monotonic completion time (set just before the future unblocks), so
    replay harnesses can attribute latency per request even when they
    collect results long after the fact.
    """

    def __init__(self) -> None:
        self._done = threading.Event()
        self._value: np.ndarray | None = None
        self._error: BaseException | None = None
        self.done_at: float | None = None

    def _fulfill(self, value: np.ndarray) -> None:
        self._value = value
        self.done_at = time.monotonic()
        self._done.set()

    def _fail(self, error: BaseException) -> None:
        self._error = error
        self.done_at = time.monotonic()
        self._done.set()

    def done(self) -> bool:
        return self._done.is_set()

    def result(self, timeout: float | None = None) -> np.ndarray:
        if not self._done.wait(timeout):
            raise TimeoutError("request not served within the wait timeout")
        if self._error is not None:
            raise self._error
        assert self._value is not None
        return self._value


class Pending:
    """One queued request: payload plus bookkeeping for stats/deadlines."""

    __slots__ = ("tokens", "future", "submitted_at", "deadline_at")

    def __init__(
        self, tokens: np.ndarray, future: ServingFuture,
        submitted_at: float, deadline_at: float | None,
    ) -> None:
        self.tokens = tokens
        self.future = future
        self.submitted_at = submitted_at
        self.deadline_at = deadline_at

    def remaining_budget_s(self, now: float) -> float | None:
        """Seconds left until the deadline (``None`` when there is none).

        Clamped at 0: an already-expired request still has a well-defined
        budget to ship (the worker will skip it on arrival).
        """
        if self.deadline_at is None:
            return None
        return max(0.0, self.deadline_at - now)


class AdmissionController:
    """Bounded-backlog admission plus the deadline policy.

    ``backlog`` counts submitted-but-unfinished requests; ``admit`` raises
    :class:`QueueFullError` at ``max_queue_depth`` and ``release`` returns
    capacity as requests complete, expire, fail, or get dropped on close.
    Rejections are counted straight onto the shared stats board so the
    facade's ``stats()`` sees them without a second bookkeeping path.
    """

    def __init__(self, max_queue_depth: int, board) -> None:
        self.max_queue_depth = int(max_queue_depth)
        self.backlog = 0
        self._board = board

    # -- request validation (pure) ------------------------------------- #
    @staticmethod
    def validate(
        tokens: np.ndarray,
        max_sequence_length: int,
        deadline_ms: float | None,
    ) -> np.ndarray:
        """The one request contract plus the queue's own deadline check."""
        if deadline_ms is not None and deadline_ms < 0:
            raise ValueError(f"deadline_ms must be >= 0, got {deadline_ms}")
        return _validate_request(tokens, max_sequence_length)

    # -- backlog accounting (the queue's lock held) --------------------- #
    def admit(self) -> None:
        """Count one request into the backlog, or reject at the bound."""
        if self.backlog >= self.max_queue_depth:
            self._board.rejected += 1
            raise QueueFullError(
                f"queue depth {self.backlog} is at max_queue_depth="
                f"{self.max_queue_depth}; request rejected"
            )
        self.backlog += 1

    def release(self, count: int) -> None:
        """Return backlog capacity for ``count`` finished requests."""
        self.backlog -= count

    # -- deadline policy (pure) ---------------------------------------- #
    @staticmethod
    def split_expired(
        window: Sequence[Pending], now: float
    ) -> Tuple[List[Pending], List[Pending]]:
        """Partition ``window`` into ``(live, expired)`` at time ``now``.

        A deadline at ``now`` has expired: its remaining budget is zero,
        which every replica treats as expired too.
        """
        live: List[Pending] = []
        expired: List[Pending] = []
        for pending in window:
            if pending.deadline_at is not None and pending.deadline_at <= now:
                expired.append(pending)
            else:
                live.append(pending)
        return live, expired
