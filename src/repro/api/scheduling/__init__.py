"""The serving scheduler, decomposed into explicit seams.

Serving a queue takes admission, batch coalescing, routing, dispatch,
stats and lifecycle; this package gives each policy a seam of its own:

* :mod:`~repro.api.scheduling.admission` — request validation, the
  bounded backlog, deadlines, and the request-level exception types.
* :mod:`~repro.api.scheduling.former` — the coalescing window and
  length-grouped batch formation (it carries the float64 parity
  guarantee).
* :mod:`~repro.api.scheduling.routing` — pluggable dispatch:
  :class:`DeterministicRouter` (the reproducible round-robin every
  parity gate pins) and :class:`LeastLoadedRouter` (load-aware, with
  work stealing).
* :mod:`~repro.api.scheduling.fleet` — live membership (hot-add, drain,
  retire, dead-replica replacement) plus the scheduler and worker
  threads, all under one condition lock.
* :mod:`~repro.api.scheduling.resilience` — the pure fault-handling
  policy objects: :class:`RetryPolicy` (re-route failed batches with
  exponential backoff under a per-window budget),
  :class:`CircuitBreakerConfig` and the per-replica
  :class:`ReplicaHealth` ledger/breaker state machine the fleet drives.
* :mod:`~repro.api.scheduling.stats` — the frozen
  :class:`ServingStats`/:class:`ReplicaStats` snapshots and the mutable
  board behind them.
* :mod:`~repro.api.scheduling.autoscaler` — the stats-driven scaling
  loop over the fleet's membership hooks.

``repro.api.server.ServingQueue`` is the facade that wires these
together; import it (and the pools) from :mod:`repro.api`.
"""

from .admission import (
    AdmissionController,
    DeadlineExceededError,
    Pending,
    QueueFullError,
    ServerClosedError,
    ServingFuture,
)
from .autoscaler import Autoscaler, AutoscaleDecision, AutoscalerConfig
from .fleet import FleetManager, FormedBatch, ReplicaMember
from .former import BatchFormer
from .resilience import CircuitBreakerConfig, ReplicaHealth, RetryPolicy
from .routing import (
    ROUTERS,
    DeterministicRouter,
    LeastLoadedRouter,
    Router,
    create_router,
)
from .stats import ReplicaStats, ServingStats, StatsBoard

__all__ = [
    "AdmissionController",
    "Autoscaler",
    "AutoscaleDecision",
    "AutoscalerConfig",
    "BatchFormer",
    "CircuitBreakerConfig",
    "DeadlineExceededError",
    "DeterministicRouter",
    "FleetManager",
    "FormedBatch",
    "LeastLoadedRouter",
    "Pending",
    "QueueFullError",
    "ReplicaHealth",
    "ReplicaMember",
    "ReplicaStats",
    "RetryPolicy",
    "ROUTERS",
    "Router",
    "ServerClosedError",
    "ServingFuture",
    "ServingStats",
    "StatsBoard",
    "create_router",
]
