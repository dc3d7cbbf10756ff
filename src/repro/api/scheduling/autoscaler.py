"""Stats-driven autoscaling over the fleet's membership hooks.

The :class:`Autoscaler` acts on the split of queue wait from service
time in ``stats()``: **wait rising while service stays
flat** means requests are queueing behind too few replicas — add one;
wait collapsing toward zero (or an idle window) means capacity is idle —
shed one.  Service time rising *with* wait is deliberately not a scale-up
signal: the replicas themselves got slower (bigger requests, contention),
and more of them would not unqueue anything.

Decisions are made by the pure :meth:`Autoscaler.observe` — one
:class:`~repro.api.scheduling.stats.ServingStats` snapshot in, one
:class:`AutoscaleDecision` out — so hysteresis is unit-testable without
threads or traffic.  Flap protection is twofold: a pressure signal must
persist for ``patience`` consecutive ticks before any action (a single
spike never scales), and every action is followed by ``cooldown_ticks``
held ticks so the fleet settles before being judged again.

The autoscaler deliberately holds **no lock**: its state is only touched
from its own loop thread (or a test driving :meth:`step` manually), and
it acts through the facade's public ``add_replica`` /
``retire_one_replica`` — which do their own locking — so it can never
participate in a lock-order cycle.
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass, replace
from typing import Deque, Optional, Tuple

from .stats import ServingStats

__all__ = ["AutoscalerConfig", "AutoscaleDecision", "Autoscaler"]

#: Mean queue wait over mean service time, per tick: waiting one
#: service-time in queue (ratio 1.0) means a whole replica's worth of work is
#: always queued ahead of you — up-pressure; a tenth of it is down-pressure.
_HIGH_WAIT_RATIO = 1.0
_LOW_WAIT_RATIO = 0.1
#: Ticks completing fewer requests than this are "idle" — no up-pressure
#: evidence, but sustained idleness is down-pressure.
_MIN_WINDOW_COMPLETIONS = 1
#: Service-time growth beyond this fraction per tick reclassifies wait
#: pressure as "the replicas got slower", which scaling out cannot fix.
_SERVICE_RISE_TOLERANCE = 0.5


@dataclass(frozen=True)
class AutoscalerConfig:
    """Bounds, tick length and hysteresis for the scaling loop."""

    min_replicas: int = 1
    max_replicas: int = 4
    interval_s: float = 1.0
    patience: int = 2
    cooldown_ticks: int = 2

    def __post_init__(self) -> None:
        if self.min_replicas < 1:
            raise ValueError(
                f"min_replicas must be >= 1, got {self.min_replicas}"
            )
        if self.max_replicas < self.min_replicas:
            raise ValueError(
                f"max_replicas must be >= min_replicas, got "
                f"{self.max_replicas} < {self.min_replicas}"
            )
        if self.interval_s <= 0:
            raise ValueError(f"interval_s must be > 0, got {self.interval_s}")
        if self.patience < 1:
            raise ValueError(f"patience must be >= 1, got {self.patience}")
        if self.cooldown_ticks < 0:
            raise ValueError(
                f"cooldown_ticks must be >= 0, got {self.cooldown_ticks}"
            )


@dataclass(frozen=True)
class AutoscaleDecision:
    """One tick's verdict: what the autoscaler saw and what it did."""

    action: str  # "up" | "down" | "hold"
    reason: str
    wait_ms: float
    service_ms: float
    live_replicas: int
    applied: bool = False
    replica_id: Optional[int] = None


class Autoscaler:
    """The scaling loop over a ``ServingQueue``'s membership surface.

    ``observe`` is the pure decision function; ``step`` applies one
    decision through the queue's hooks; ``start``/``stop`` run ``step``
    every ``interval_s`` on a daemon thread.  The facade wires this up
    when constructed with an :class:`AutoscalerConfig`.
    """

    def __init__(self, queue, config: AutoscalerConfig | None = None) -> None:
        self.queue = queue
        self.config = config or AutoscalerConfig()
        self._streak_up = 0
        self._streak_down = 0
        self._cooldown = 0
        self._prev_service: Optional[float] = None
        self._prev_completed = 0
        self._episodes: Deque[AutoscaleDecision] = deque(maxlen=256)
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    # ------------------------------------------------------------------ #
    # Decision (pure — no queue mutation, unit-testable without threads)
    # ------------------------------------------------------------------ #
    def observe(self, stats: ServingStats) -> AutoscaleDecision:
        """One tick of the hysteresis state machine over a stats snapshot."""
        config = self.config
        live = stats.live_replicas
        wait = stats.mean_queue_wait_ms
        service = stats.mean_service_ms
        window = stats.completed - self._prev_completed
        if window < 0:  # stats were reset between ticks
            window = stats.completed
        action, reason = "hold", "within band"
        if self._cooldown > 0:
            self._cooldown -= 1
            reason = f"cooldown ({self._cooldown} ticks left)"
        elif live < config.min_replicas:
            action = "up"
            reason = (
                f"{live} live replicas below min_replicas={config.min_replicas}"
            )
        elif window < _MIN_WINDOW_COMPLETIONS:
            # No throughput: no evidence of queue pressure, but sustained
            # idleness is exactly the diurnal-trough shape to shed on.
            self._streak_up = 0
            self._streak_down += 1
            reason = f"idle window ({window} completions)"
            if self._streak_down >= config.patience and live > config.min_replicas:
                action = "down"
                reason = f"idle for {self._streak_down} ticks"
        else:
            ratio = wait / max(service, 1e-9)
            service_flat = (
                self._prev_service is None
                or service
                <= self._prev_service * (1.0 + _SERVICE_RISE_TOLERANCE)
            )
            if ratio >= _HIGH_WAIT_RATIO and service_flat:
                self._streak_up += 1
                self._streak_down = 0
                reason = (
                    f"queue wait {wait:.2f} ms >= {_HIGH_WAIT_RATIO:g}x "
                    f"service {service:.2f} ms ({self._streak_up} ticks)"
                )
                if self._streak_up >= config.patience:
                    if live < config.max_replicas:
                        action = "up"
                    else:
                        reason += "; already at max_replicas"
            elif ratio <= _LOW_WAIT_RATIO:
                self._streak_down += 1
                self._streak_up = 0
                reason = (
                    f"queue wait {wait:.2f} ms <= {_LOW_WAIT_RATIO:g}x "
                    f"service {service:.2f} ms ({self._streak_down} ticks)"
                )
                if self._streak_down >= config.patience:
                    if live > config.min_replicas:
                        action = "down"
                    else:
                        reason += "; already at min_replicas"
            else:
                self._streak_up = 0
                self._streak_down = 0
                if not service_flat and wait >= service:
                    reason = "service time rising with wait; not a queueing problem"
        if action != "hold":
            self._streak_up = 0
            self._streak_down = 0
            self._cooldown = config.cooldown_ticks
        self._prev_service = service
        self._prev_completed = stats.completed
        return AutoscaleDecision(
            action=action,
            reason=reason,
            wait_ms=wait,
            service_ms=service,
            live_replicas=live,
        )

    # ------------------------------------------------------------------ #
    # Actuation
    # ------------------------------------------------------------------ #
    def step(self) -> AutoscaleDecision:
        """Observe the queue once and apply the decision through its hooks."""
        decision = self.observe(self.queue.stats())
        applied = False
        replica_id: Optional[int] = None
        if decision.action == "up":
            try:
                replica_id = self.queue.add_replica()
                applied = True
            except Exception as exc:
                decision = replace(
                    decision, reason=f"{decision.reason}; add failed: {exc!r}"
                )
        elif decision.action == "down":
            try:
                replica_id = self.queue.retire_one_replica()
                applied = replica_id is not None
            except Exception as exc:
                decision = replace(
                    decision, reason=f"{decision.reason}; retire failed: {exc!r}"
                )
        decision = replace(decision, applied=applied, replica_id=replica_id)
        self._episodes.append(decision)
        return decision

    def episodes(self) -> Tuple[AutoscaleDecision, ...]:
        """The most recent decisions (bounded history, oldest first)."""
        return tuple(self._episodes)

    # ------------------------------------------------------------------ #
    # Loop thread
    # ------------------------------------------------------------------ #
    def start(self) -> None:
        if self._thread is not None and self._thread.is_alive():
            return
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._loop, name="serving-autoscaler", daemon=True
        )
        self._thread.start()

    def stop(self, timeout: float = 5.0) -> None:
        self._stop.set()
        thread = self._thread
        if thread is not None and thread.is_alive():
            thread.join(timeout)

    def _loop(self) -> None:
        while not self._stop.wait(self.config.interval_s):
            try:
                self.step()
            except Exception:
                # The autoscaler must never take serving down with it; the
                # next tick observes fresh stats and tries again.
                continue
