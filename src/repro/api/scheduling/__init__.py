"""The serving scheduler, decomposed into explicit seams.

Serving a queue takes admission, batch coalescing, dispatch, stats and
lifecycle; this package gives each policy a seam of its own:

* :mod:`~repro.api.scheduling.admission` — request validation, the
  bounded backlog, deadlines, and the request-level exception types.
* :mod:`~repro.api.scheduling.former` — the coalescing window and
  length-grouped batch formation (it carries the float64 parity
  guarantee).
* :mod:`~repro.api.scheduling.fleet` — the one ready queue of formed
  batches that every replica worker pulls from (replicas serve the same
  frozen model, so nothing routes), live membership (hot-add, drain,
  retire, dead-replica replacement), and the scheduler and worker
  threads, all under one condition lock.
* :mod:`~repro.api.scheduling.resilience` — the pure fault-handling
  policy objects: :class:`RetryPolicy` (re-queue failed batches with
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
from .stats import ReplicaStats, ServingStats, StatsBoard

__all__ = [
    "AdmissionController",
    "Autoscaler",
    "AutoscaleDecision",
    "AutoscalerConfig",
    "BatchFormer",
    "CircuitBreakerConfig",
    "DeadlineExceededError",
    "FleetManager",
    "FormedBatch",
    "Pending",
    "QueueFullError",
    "ReplicaHealth",
    "ReplicaMember",
    "ReplicaStats",
    "RetryPolicy",
    "ServerClosedError",
    "ServingFuture",
    "ServingStats",
    "StatsBoard",
]
