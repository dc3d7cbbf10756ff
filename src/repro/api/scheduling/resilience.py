"""Retry, backoff and circuit-breaking policy for the serving fleet.

The fleet *detects* replica failure on its own (worker death poisons the
client, timeouts terminate the worker, dead members are retired and
optionally replaced); without a policy a batch caught in the blast radius
fails every future it carries, and a flaky-but-alive replica keeps
receiving traffic until it dies outright.  This module holds the pure
policy objects the fleet uses to do better; the *mechanics* (how batches
re-queue and wait out their backoff, when probes dispatch) live in
:mod:`repro.api.scheduling.fleet`.

Retry-idempotency contract: inference here is **pure** — a forward has no
side effects and a request's result is fully determined by its tokens and
the frozen engine — so re-executing a batch on another replica is always
safe, and under float64 the retried result is bitwise-identical to what the
first replica would have produced.  That is what licenses retrying at all.

Everything in this module is either immutable configuration
(:class:`RetryPolicy`, :class:`CircuitBreakerConfig`) or part of the fleet
core's state (:class:`ReplicaHealth`), which takes the time as an argument;
nothing here blocks or reads a clock.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..transport import TransportError

__all__ = [
    "RetryPolicy",
    "CircuitBreakerConfig",
    "ReplicaHealth",
]

#: Exception class names treated as replica-level (hence retryable) faults
#: even though their types live in modules this package must not import
#: (``sharding`` imports ``server`` imports ``scheduling`` — a direct
#: import of ``WorkerDiedError`` would be a cycle).
_RETRYABLE_NAMES = frozenset({"WorkerDiedError"})

#: Weight of the newest batch in the per-replica service-latency EWMA.
_EWMA_ALPHA = 0.2

#: Retry backoff shape: the delay doubles per attempt and is jittered by
#: up to +-10 % so retrying batches do not move in lockstep.
_BACKOFF_FACTOR = 2.0
_JITTER_FRAC = 0.1


@dataclass(frozen=True)
class RetryPolicy:
    """How the fleet re-queues batches hit by replica-level failures.

    ``max_attempts`` bounds the *total* dispatches of one batch (first try
    included).  A retried batch goes back to the front of the ready queue
    with a not-before time an exponential backoff away (``backoff_base_s``
    doubling per attempt, capped at ``backoff_max_s``, with multiplicative
    jitter), so a struggling fleet is not hammered in lockstep.  The
    backoff delays the batch, not a worker: no member takes it early, and
    every member keeps serving other batches meanwhile.
    ``retry_budget`` caps the total retried *requests* per stats window
    (reset by ``reset_stats``): once a failure storm exhausts it, further
    failures fail fast instead of melting the fleet with re-execution load.
    """

    max_attempts: int = 3
    backoff_base_s: float = 0.02
    backoff_max_s: float = 1.0
    retry_budget: int = 256
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError(
                f"max_attempts must be >= 1, got {self.max_attempts}"
            )
        if self.backoff_base_s < 0.0 or self.backoff_max_s < 0.0:
            raise ValueError(
                f"backoff bounds must be >= 0, got base="
                f"{self.backoff_base_s}, max={self.backoff_max_s}"
            )
        if self.retry_budget < 0:
            raise ValueError(
                f"retry_budget must be >= 0, got {self.retry_budget}"
            )

    def retryable(self, exc: BaseException) -> bool:
        """Whether a batch failure may be retried instead of failed.

        Retryable failures indict the *replica or its channel*, not the
        request: worker death, request timeouts, transport faults
        (including ring integrity failures) and broken connections.
        Anything else — e.g. an exception raised by the forward itself —
        would fail identically on every replica, so it fails fast.
        """
        if isinstance(
            exc, (TimeoutError, TransportError, ConnectionError, EOFError)
        ):
            return True
        return any(
            klass.__name__ in _RETRYABLE_NAMES for klass in type(exc).__mro__
        )

    def backoff_s(self, attempt: int, rng: np.random.Generator) -> float:
        """Delay before retry ``attempt`` (1-based): exponential + jitter."""
        base = self.backoff_base_s * (_BACKOFF_FACTOR ** max(0, attempt - 1))
        base = min(base, self.backoff_max_s)
        if base > 0.0:
            base *= 1.0 + _JITTER_FRAC * float(rng.uniform(-1.0, 1.0))
        return base


@dataclass(frozen=True)
class CircuitBreakerConfig:
    """When a flaky replica is drained of traffic and how it wins it back.

    ``failure_threshold`` consecutive batch failures open the breaker: the
    replica's worker stops pulling new work (the replica stays registered
    and keeps its thread).  After ``cooldown_s`` the breaker half-opens and
    the worker pulls a single probe batch; a successful probe closes the
    breaker, a failed one re-opens it for another cooldown.
    """

    failure_threshold: int = 3
    cooldown_s: float = 1.0

    def __post_init__(self) -> None:
        if self.failure_threshold < 1:
            raise ValueError(
                f"failure_threshold must be >= 1, got {self.failure_threshold}"
            )
        if self.cooldown_s < 0.0:
            raise ValueError(
                f"cooldown_s must be >= 0, got {self.cooldown_s}"
            )


class ReplicaHealth:
    """Per-replica health ledger plus the circuit-breaker state machine.

    Owned by a fleet member and part of the pure fleet core (it
    deliberately has no lock of its own, like the stats board).
    States: ``closed`` (normal) -> ``open`` (``failure_threshold``
    consecutive failures; no new traffic) -> ``half_open`` (cooldown
    elapsed; admits one probe batch) -> ``closed`` on probe
    success, or back to ``open`` on probe failure.  With ``config=None``
    the breaker never trips but the health counters and latency EWMA are
    still maintained for the stats surface.
    """

    __slots__ = (
        "config",
        "errors",
        "timeouts",
        "consecutive_failures",
        "service_ewma_ms",
        "state",
        "opened_at",
    )

    def __init__(self, config: Optional[CircuitBreakerConfig] = None) -> None:
        self.config = config
        self.errors = 0
        self.timeouts = 0
        self.consecutive_failures = 0
        self.service_ewma_ms = 0.0
        self.state = "closed"
        self.opened_at = 0.0

    def record_success(self, service_ms: float) -> bool:
        """Fold one served batch in; True when it closed an open breaker."""
        self.consecutive_failures = 0
        if self.service_ewma_ms == 0.0:
            self.service_ewma_ms = service_ms
        else:
            self.service_ewma_ms += _EWMA_ALPHA * (service_ms - self.service_ewma_ms)
        if self.state != "closed":
            self.state = "closed"
            return True
        return False

    def record_failure(self, now: float, timeout: bool) -> bool:
        """Fold one failed batch in; True when it opened the breaker."""
        self.errors += 1
        if timeout:
            self.timeouts += 1
        self.consecutive_failures += 1
        if self.config is None:
            return False
        if self.state == "half_open" or (
            self.state == "closed"
            and self.consecutive_failures >= self.config.failure_threshold
        ):
            self.state = "open"
            self.opened_at = now
            return True
        return False

    def admits(self, now: float) -> bool:
        """Whether the breaker lets this replica's worker pull new work.

        Lazily transitions ``open`` -> ``half_open`` once the cooldown has
        elapsed (breaker reopening is time-driven; there is no event to
        react to).  The fleet asks only when the member takes a batch, and a
        member serves one batch at a time, so a half-open replica has
        exactly one probe outstanding.  :meth:`reopen_eta_s` is the same
        question without the transition.
        """
        if self.state == "open":
            if now < self.reopen_at:
                return False
            self.state = "half_open"
        return True

    @property
    def reopen_at(self) -> Optional[float]:
        """When an ``open`` breaker may half-open; else ``None``."""
        if self.state != "open":
            return None
        return self.opened_at + self.config.cooldown_s

    def reopen_eta_s(self, now: float) -> Optional[float]:
        """Seconds until an ``open`` breaker may half-open; else ``None``.

        Truthy exactly while the breaker refuses work (``0.0`` from
        :attr:`reopen_at` on), and it changes nothing.
        """
        reopen_at = self.reopen_at
        return None if reopen_at is None else max(0.0, reopen_at - now)
