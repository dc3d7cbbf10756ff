"""Deterministic fault injection for the serving stack.

The serving layer's standing discipline is that every failure mode ships
with a test that provokes it.  Worker death and timeouts were easy to
provoke ad hoc (kill the process, monkeypatch a sleep); the failure modes
added by the resilience layer — crashes at a *specific* request, stalled
responses, corrupted ring frames, spawn failures — need a harness that can
trigger them at exact, reproducible points in a live run.  This module is
that harness.

Design:

``FaultPlan``
    A frozen, picklable description of *what* to inject and *when*, in
    terms of 1-based per-site counters ("crash on the 3rd forward request
    worker 0 handles", "corrupt the 2nd ring response").  Because the plan
    is plain data it crosses the ``spawn`` process boundary inside
    ``_WorkerInit``, so worker-side faults are armed in the worker itself.

``FaultInjector``
    The live counter state for one process.  Each hook site bumps its own
    counter and consults the plan.  Counters are guarded by a private lock
    (hooks may run from multiple serving threads); sleeps and crashes
    happen strictly outside it.

Zero-overhead-when-disabled contract: every hook site in the serving stack
is guarded by ``if _faults._ACTIVE is not None:`` — a single module-global
load and identity check.  No plan installed means no extra work and no
code-path change anywhere.

Note on determinism: the ``session_forward`` counter also ticks for warmup
forwards (worker startup and ``ServingQueue`` warmup each run one), so
plans targeting ``session_error_at`` should account for them or target the
worker-side ``on_worker_request`` sites, which only tick on real requests.
"""

from __future__ import annotations

import os
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, Iterator, Optional

import numpy as np

__all__ = [
    "InjectedFaultError",
    "FaultPlan",
    "FaultInjector",
    "install",
    "uninstall",
    "active",
    "active_plan",
    "inject",
]

#: Exit code used for injected worker crashes, distinct from real segfault
#: or interpreter-error codes so chaos tests can tell them apart.
CRASH_EXIT_CODE = 23

#: Worker ops that count as "a request" for worker-side fault counters.
_WORKER_OPS = ("forward",)


class InjectedFaultError(RuntimeError):
    """An error deliberately raised by the fault injector."""


@dataclass(frozen=True)
class FaultPlan:
    """Seedable, declarative schedule of faults to inject.

    All ``*_at`` fields are 1-based counts at their site and ``None``
    disables that fault.  Worker-side faults (``worker_crash_at``,
    ``worker_stall_at``) fire inside shard worker processes; the
    ``*_worker_index`` selectors restrict them to one worker (``None``
    targets every worker).  Parent-side faults
    (``corrupt_response_at``, ``spawn_fail_at``) and in-process session
    faults (``session_error_at``) fire wherever the injector is installed.
    """

    seed: int = 0
    # Worker-side faults (armed inside shard worker processes).
    worker_crash_at: Optional[int] = None
    crash_worker_index: Optional[int] = None
    worker_stall_at: Optional[int] = None
    stall_worker_index: Optional[int] = None
    worker_stall_s: float = 0.25
    # Session-side faults (any process hosting an InferenceSession).
    session_error_at: Optional[int] = None
    session_error_count: int = 1
    # Parent-side faults.
    corrupt_response_at: Optional[int] = None
    spawn_fail_at: Optional[int] = None

    def __post_init__(self) -> None:
        for name in (
            "worker_crash_at",
            "worker_stall_at",
            "session_error_at",
            "corrupt_response_at",
            "spawn_fail_at",
        ):
            value = getattr(self, name)
            if value is not None and value < 1:
                raise ValueError(f"{name} must be >= 1 (1-based), got {value}")
        if self.session_error_count < 1:
            raise ValueError(
                f"session_error_count must be >= 1, got {self.session_error_count}"
            )
        if self.worker_stall_s < 0.0:
            raise ValueError(f"worker_stall_s must be >= 0, got {self.worker_stall_s}")


class FaultInjector:
    """Live per-process fault state: counters plus the plan they consult.

    Hook methods are cheap no-ops when their fault is not configured.  The
    counter lock is never held across a sleep or a raise.
    """

    def __init__(self, plan: FaultPlan, worker_index: Optional[int] = None) -> None:
        self.plan = plan
        self.worker_index = worker_index
        self._lock = threading.Lock()
        self._counts: Dict[str, int] = {}
        # Stream split per worker so every process draws distinct bytes.
        offset = 0 if worker_index is None else worker_index + 1
        self._rng = np.random.default_rng(plan.seed + offset)

    def _next(self, site: str) -> int:
        with self._lock:
            count = self._counts.get(site, 0) + 1
            self._counts[site] = count
        return count

    def counts(self) -> Dict[str, int]:
        """Snapshot of per-site hook counters (for tests and demos)."""
        with self._lock:
            return dict(self._counts)

    def _targets(self, index: Optional[int]) -> bool:
        return index is None or index == self.worker_index

    # ------------------------------------------------------------------
    # Hook sites.  Each is called only behind an ``_ACTIVE is not None``
    # guard at its seam.
    # ------------------------------------------------------------------

    def on_worker_request(self, op: str) -> None:
        """Worker loop, right after a request op is received."""
        if op not in _WORKER_OPS:
            return
        plan = self.plan
        k = self._next("worker_request")
        if (
            plan.worker_stall_at is not None
            and self._targets(plan.stall_worker_index)
            and k == plan.worker_stall_at
        ):
            time.sleep(plan.worker_stall_s)
        if (
            plan.worker_crash_at is not None
            and self._targets(plan.crash_worker_index)
            and k == plan.worker_crash_at
        ):
            # Hard exit: no cleanup, no exception — indistinguishable from
            # an OOM kill or segfault from the parent's point of view.
            os._exit(CRASH_EXIT_CODE)

    def on_session_forward(self) -> None:
        """Top of ``InferenceSession.forward`` (ticks on warmups too)."""
        plan = self.plan
        if plan.session_error_at is None:
            return
        k = self._next("session_forward")
        first = plan.session_error_at
        if first <= k < first + plan.session_error_count:
            raise InjectedFaultError(f"injected session fault on forward #{k}")

    def on_ring_response(self, ring) -> None:
        """Parent transport, just before decoding a ring response frame."""
        plan = self.plan
        if plan.corrupt_response_at is None:
            return
        k = self._next("ring_response")
        if k == plan.corrupt_response_at:
            ring.corrupt_payload(int(self._rng.integers(0, 1 << 31)))

    def on_spawn(self) -> None:
        """Top of ``spawn_replica`` on both pool kinds."""
        plan = self.plan
        if plan.spawn_fail_at is None:
            return
        k = self._next("spawn")
        if k == plan.spawn_fail_at:
            raise InjectedFaultError(f"injected spawn failure on spawn #{k}")


#: The process-wide injector, or None (the common case: no faults armed).
_ACTIVE: Optional[FaultInjector] = None


def install(plan: FaultPlan, worker_index: Optional[int] = None) -> FaultInjector:
    """Arm ``plan`` process-wide; returns the live injector."""
    global _ACTIVE
    injector = FaultInjector(plan, worker_index=worker_index)
    _ACTIVE = injector
    return injector


def uninstall() -> None:
    """Disarm fault injection process-wide."""
    global _ACTIVE
    _ACTIVE = None


def active() -> Optional[FaultInjector]:
    """The installed injector, or None when fault injection is disabled."""
    return _ACTIVE


def active_plan() -> Optional[FaultPlan]:
    """The installed plan, or None — what pools bake into worker inits."""
    return None if _ACTIVE is None else _ACTIVE.plan


@contextmanager
def inject(plan: FaultPlan) -> Iterator[FaultInjector]:
    """Context manager: arm ``plan`` for the block, disarm on exit."""
    injector = install(plan)
    try:
        yield injector
    finally:
        if _ACTIVE is injector:
            uninstall()
