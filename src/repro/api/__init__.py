"""Serving-grade entry point: declarative specs -> prepared sessions.

The two halves of the API:

* :class:`BackendSpec` + :func:`build_backend` — a serializable description
  of how each Transformer non-linearity is approximated (method x precision
  x entries x calibration), realised into a runnable backend.
* :class:`SessionConfig` + :class:`InferenceSession` — model family, size,
  seed and quantised-linear engine, prepared once into a session that serves
  ragged request lists with dynamic micro-batching and offers the built-in
  dataset-free :meth:`~InferenceSession.calibrate` workflow.
* :class:`SessionPool` + :class:`ServingQueue` — the concurrent serving
  layer: replica sessions over one shared frozen model, plus a
  batch-coalescing scheduler with deadlines, overload rejection, one
  ready queue every replica pulls from, live fleet membership and latency
  statistics (facade in :mod:`repro.api.server`; the scheduler seams in
  :mod:`repro.api.scheduling`).
* :class:`ShardedPool` — the same :class:`ReplicaPool` protocol served from
  worker *processes* over shared-memory weights, lifting the GIL ceiling on
  multi-core machines (see :mod:`repro.api.sharding`), with one
  :class:`WorkerTransport` per worker for the request/response channel — a
  pickle pipe, plus shared-memory rings for the hot-path bodies when given
  capacity (see :mod:`repro.api.transport`).
* Resilience & chaos testing — :class:`RetryPolicy` /
  :class:`CircuitBreakerConfig` harden a :class:`ServingQueue` against
  replica failure (retries with backoff, per-replica breakers, in-flight
  deadline propagation, checksummed ring frames surfacing
  :class:`TransportIntegrityError`), and :class:`FaultPlan` /
  :func:`inject` arm deterministic fault schedules at the serving seams
  to *prove* it (see :mod:`repro.api.faults`).

Every experiment, example and benchmark in the repo goes through this
surface.
"""

from .batching import MicroBatch, RequestBatcher
from .faults import FaultInjector, FaultPlan, InjectedFaultError, inject
from .scheduling import (
    CircuitBreakerConfig,
    ReplicaStats,
    RetryPolicy,
)
from .server import (
    DeadlineExceededError,
    QueueFullError,
    ReplicaPool,
    ServerClosedError,
    ServingFuture,
    ServingQueue,
    ServingStats,
    SessionPool,
)
from .session import (
    MODEL_FAMILIES,
    InferenceSession,
    SessionConfig,
    attach_weight_state,
    calibrate_primitive_luts,
    export_weight_state,
)
from .sharding import ShardedPool, SharedWeightStore, WorkerDiedError
from .transport import TransportError, TransportIntegrityError, WorkerTransport
from .spec import (
    METHODS,
    OPERATOR_PRIMITIVES,
    PRECISIONS,
    SPEC_SCHEMA_VERSION,
    BackendSpec,
    OperatorSpec,
    build_backend,
)

__all__ = [
    "SPEC_SCHEMA_VERSION",
    "METHODS",
    "PRECISIONS",
    "OPERATOR_PRIMITIVES",
    "OperatorSpec",
    "BackendSpec",
    "build_backend",
    "MicroBatch",
    "RequestBatcher",
    "MODEL_FAMILIES",
    "SessionConfig",
    "InferenceSession",
    "calibrate_primitive_luts",
    "export_weight_state",
    "attach_weight_state",
    "ReplicaPool",
    "SessionPool",
    "ShardedPool",
    "SharedWeightStore",
    "WorkerDiedError",
    "WorkerTransport",
    "TransportError",
    "TransportIntegrityError",
    "ServingQueue",
    "ServingFuture",
    "ServingStats",
    "ReplicaStats",
    "QueueFullError",
    "DeadlineExceededError",
    "ServerClosedError",
    "RetryPolicy",
    "CircuitBreakerConfig",
    "FaultPlan",
    "FaultInjector",
    "InjectedFaultError",
    "inject",
]
