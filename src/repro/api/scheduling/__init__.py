"""The serving scheduler: a pure core on caller-supplied time.

Serving a queue takes admission, batch coalescing, dispatch, stats and
lifecycle; this package gives each policy a seam of its own.  The
scheduling state and its policies hold no thread, lock or clock (the
request futures aside):

* :mod:`~repro.api.scheduling.admission` — request validation, the
  bounded backlog, deadlines, and the request-level exception types.
* :mod:`~repro.api.scheduling.former` — the coalescing window and
  length-grouped batch formation (it carries the float64 parity
  guarantee).
* :mod:`~repro.api.scheduling.fleet` — the core that composes them: one
  state machine whose transitions (submit, form, take, settle, add, drain,
  retire, close) take ``now`` and return what to do — the batch to
  dispatch, the futures to resolve, when to wake.  It keeps the one ready
  queue every member takes from (replicas serve the same frozen model, so
  nothing routes); a retried batch waits out its backoff on that queue
  with a not-before time, never in a sleeping worker.
* :mod:`~repro.api.scheduling.resilience` — the pure fault-handling
  policy objects: :class:`RetryPolicy` (re-queue failed batches behind
  an exponential backoff under a per-window budget),
  :class:`CircuitBreakerConfig` and the per-replica
  :class:`ReplicaHealth` ledger/breaker state machine the fleet drives.
* :mod:`~repro.api.scheduling.stats` — the frozen
  :class:`ServingStats`/:class:`ReplicaStats` snapshots and the mutable
  board behind them.

``repro.api.server.ServingQueue`` runs the core: it owns the condition
lock every transition runs under, the scheduler and worker threads, the
replica forwards and the futures; import it (and the pools) from
:mod:`repro.api`.
"""

from .admission import (
    AdmissionController,
    DeadlineExceededError,
    Pending,
    QueueFullError,
    ServerClosedError,
    ServingFuture,
)
from .fleet import Fleet, FormedBatch, ReplicaMember
from .former import BatchFormer
from .resilience import CircuitBreakerConfig, ReplicaHealth, RetryPolicy
from .stats import ReplicaStats, ServingStats, StatsBoard

__all__ = [
    "AdmissionController",
    "BatchFormer",
    "CircuitBreakerConfig",
    "DeadlineExceededError",
    "Fleet",
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
