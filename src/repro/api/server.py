"""Concurrent serving: replica pools and the queue that drives the scheduler.

Batched multi-sequence scheduling, one layer above
:class:`~repro.api.session.InferenceSession`:

* :class:`SessionPool` — N replica sessions over **one** shared frozen
  encoder.  ``InferenceSession`` construction makes every subsequent forward
  read-only (weights prepared eagerly; the pool warms the remaining lazy
  per-dtype caches), so replicas can serve simultaneously from threads.
  numpy's BLAS releases the GIL, which is where the thread parallelism comes
  from on multi-core machines; on a single core the win is batch density.
* :class:`ServingQueue` — client threads call
  :meth:`~ServingQueue.submit`/:meth:`~ServingQueue.serve`.  Every
  scheduling decision — admission control, ``max_wait_ms`` coalescing, one
  ready queue every replica worker takes from, retries, breakers, live
  membership — is a transition of the pure
  :class:`~repro.api.scheduling.fleet.Fleet` core, which takes the time as
  an argument.  The queue is the only code that runs it: the condition
  lock, the scheduler and worker threads, the replica forwards, the pool
  hooks and the futures live here.  Per-request deadlines and a bounded queue give
  overload behaviour a server can rely on; :meth:`ServingQueue.stats`
  reports p50/p99 latency — split into queue-wait vs service time — plus
  throughput, queue/batch shape, and per-replica scheduling state.

Both pools support *live membership*: :meth:`ReplicaPool.spawn_replica` /
:meth:`ReplicaPool.retire_replica` are the narrow hooks the queue calls to
grow and shrink its fleet while it serves.

Determinism and parity: every replica serves the *same* frozen model object
through an identically-built backend, and with exact-length bucketing
(``bucket_size=1``) a micro-batched forward reproduces the per-call forward
bit for bit on the float engines (the session's micro-batching guarantee).
Which replica serves a request therefore cannot change its result —
pooled/queued serving is
bitwise-equal to single-session serving under ``compute_dtype="float64"`` on
the ``fp32``/``fp16`` matmul engines.  :meth:`SessionPool.forward` goes
further and makes the *dispatch itself* deterministic (micro-batch ``j`` goes
to replica ``j % num_replicas``).  The queue does not pick replicas at all:
whichever worker is idle takes the oldest ready batch, so placement follows
timing and never matters to a result.  The ``int8`` engine keeps its
documented caveat: one activation scale per packed tensor means batch
*composition* (which requests share a batch) legitimately affects its
numerics — placement still does not.
"""

from __future__ import annotations

import threading
import time
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..core.registry import LutRegistry
from ..transformer.models import EncoderModel
from . import faults as _faults
from .scheduling.admission import (
    AdmissionController,
    DeadlineExceededError,
    Pending,
    QueueFullError,
    ServerClosedError,
    ServingFuture,
)
from .scheduling.fleet import Fleet, Outcome, ReplicaMember
from .scheduling.former import BatchFormer
from .scheduling.resilience import CircuitBreakerConfig, RetryPolicy
from .scheduling.stats import ReplicaStats, ServingStats
from .session import (
    InferenceSession,
    SessionConfig,
    adopted_model_config,
)
from .spec import BackendSpec

__all__ = [
    "QueueFullError",
    "DeadlineExceededError",
    "ServerClosedError",
    "ServingFuture",
    "ServingStats",
    "ReplicaStats",
    "RetryPolicy",
    "CircuitBreakerConfig",
    "ReplicaPool",
    "SessionPool",
    "ServingQueue",
]


class ReplicaPool:
    """The pool protocol: deterministic replica serving over N handles.

    This is the seam :class:`ServingQueue` (and any direct caller) programs
    against.  A concrete pool provides

    * ``sessions`` — one serving handle per replica, each exposing
      ``forward(requests, budgets_s) -> list`` (the one hot-path op; plus
      ``apply_lut_overrides`` for calibration broadcasts).  For
      :class:`SessionPool` these are in-process
      :class:`~repro.api.session.InferenceSession`\\ s; for
      :class:`~repro.api.sharding.ShardedPool` they are proxies to worker
      *processes*.
    * ``_template`` — a local :class:`InferenceSession` describing the pool
      (its pure ``RequestBatcher.plan`` drives the deterministic sharding;
      its model supplies shapes/dtypes and the pooler).
    * ``config`` / ``spec`` — the serializable session/backend description.

    ``forward`` shards micro-batches deterministically (batch ``j`` ->
    replica ``j % N``); ``pooled`` pools the rows ``forward`` returned on the
    caller's side.  Both are implemented once here, so every pool — threaded
    or multi-process — serves identically.

    Pools that support *live membership* additionally implement
    :meth:`spawn_replica`/:meth:`retire_replica`; a :class:`ServingQueue`
    only ever touches a pool's membership through these two hooks.
    """

    #: Replica serving handles (``forward`` duck type).
    sessions: List
    #: Local session describing the pool (planner + model metadata).
    _template: InferenceSession
    config: SessionConfig
    spec: BackendSpec

    @property
    def num_replicas(self) -> int:
        return len(self.sessions)

    @property
    def template(self) -> InferenceSession:
        """The local session describing this pool.

        Its (pure) batcher drives the deterministic sharding, its model
        supplies shapes/dtypes, and its backend is the per-call oracle the
        parity gates/benchmarks compare pooled serving against.
        """
        return self._template

    @property
    def model(self) -> EncoderModel:
        return self._template.model

    @property
    def max_sequence_length(self) -> int:
        return self._template.max_sequence_length

    # ------------------------------------------------------------------ #
    # Live membership hooks (optional per pool)
    # ------------------------------------------------------------------ #
    def spawn_replica(self):
        """Build, warm and adopt one more replica handle; return it.

        The handle is appended to ``sessions`` before returning, so direct
        pool serving and a queue's fleet see the same membership.
        """
        raise NotImplementedError(
            f"{type(self).__name__} does not support live replica addition"
        )

    def retire_replica(self, handle) -> None:
        """Release one replica handle and drop it from ``sessions``.

        Idempotent with respect to membership: retiring a handle that is no
        longer in ``sessions`` only releases its resources.
        """
        raise NotImplementedError(
            f"{type(self).__name__} does not support live replica retirement"
        )

    # ------------------------------------------------------------------ #
    # Deterministic sharded serving
    # ------------------------------------------------------------------ #
    def _shard(
        self, requests: Sequence[np.ndarray]
    ) -> List[List[Sequence[int]]]:
        """Micro-batch index groups per replica: batch ``j`` -> replica ``j % N``.

        The layout comes from the template batcher's (pure) ``plan``, so the
        assignment depends only on the request list — never on thread timing.
        """
        sessions = self.sessions
        plan = self._template._batcher.plan(
            [np.asarray(r).size for r in requests], self.max_sequence_length
        )
        shards: List[List[Sequence[int]]] = [[] for _ in sessions]
        for j, (_, indices) in enumerate(plan):
            shards[j % len(sessions)].append(indices)
        return shards

    def forward(self, requests: Sequence[np.ndarray]) -> List[np.ndarray]:
        """Hidden states per request, served across the replicas.

        Each replica runs ``session.forward`` over its shard's micro-batches
        on its own thread; results come back in request order regardless of
        sharding.  Bitwise-equal to :meth:`InferenceSession.forward` on the
        float engines with exact-length bucketing (see the module docstring).
        """
        requests = [np.asarray(r) for r in requests]
        outputs: List = [None] * len(requests)
        shards = self._shard(requests)
        errors: List[BaseException] = []

        def run(replica: int) -> None:
            session = self.sessions[replica]
            try:
                for indices in shards[replica]:
                    results = session.forward([requests[i] for i in indices])
                    for index, result in zip(indices, results):
                        outputs[index] = result
            except BaseException as exc:  # surface worker failures to caller
                errors.append(exc)

        live = [replica for replica in range(len(shards)) if shards[replica]]
        if len(live) <= 1:
            for replica in live:
                run(replica)
        else:
            threads = [
                threading.Thread(target=run, args=(replica,), daemon=True)
                for replica in live
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        if errors:
            raise errors[0]
        return outputs

    def pooled(self, requests: Sequence[np.ndarray]) -> np.ndarray:
        """First-token (``[CLS]``) representations, shape ``(n, hidden)``.

        Replica handles speak ``forward`` only; the (cheap) tanh pooler runs
        here, per sequence over the rows ``forward`` returned — the same
        composition as :meth:`InferenceSession.pooled`, so the same bits.
        """
        pool_hidden = self.model.pool_hidden
        rows = [pool_hidden(hidden[None])[0] for hidden in self.forward(requests)]
        if not rows:
            hidden_size = self.model.config.hidden_size
            return np.empty(
                (0, hidden_size), dtype=np.dtype(self.model.config.compute_dtype)
            )
        return np.stack(rows, axis=0)


class SessionPool(ReplicaPool):
    """N replica :class:`InferenceSession`\\ s over one shared frozen encoder.

    The pool builds (or adopts) the model once; every replica session adopts
    the same :class:`~repro.transformer.models.EncoderModel` instance, so the
    weight memory and the one-time preparation cost are paid once regardless
    of ``num_replicas``.  Each replica owns its *mutable* serving state — the
    batcher's packing buffers and the backend (with its recorder) — which is
    what makes replicas safe to run from concurrent threads.

    Construction ends with one tiny warm-up forward per replica: that fills
    every lazy per-dtype cache on the shared tables/parameters
    (``LookupTable`` parameter casts, norm-parameter casts), so concurrent
    traffic never races on a cache fill.  :meth:`spawn_replica` repeats the
    same recipe for live hot-adds.

    Parameters mirror :class:`InferenceSession`; ``model=`` adopts an
    existing encoder exactly like the session constructor does.
    """

    def __init__(
        self,
        config: SessionConfig | None = None,
        spec: BackendSpec | None = None,
        registry: LutRegistry | None = None,
        num_replicas: int = 2,
        model: EncoderModel | None = None,
    ) -> None:
        if num_replicas < 1:
            raise ValueError(f"num_replicas must be >= 1, got {num_replicas}")
        primary = InferenceSession(
            config=config, spec=spec, registry=registry, model=model
        )
        self._template = primary
        self.sessions: List[InferenceSession] = [primary]
        for _ in range(num_replicas - 1):
            self.sessions.append(primary.clone_for_serving())
        self.config = primary.config
        self.spec = primary.spec
        warmup = [np.zeros(1, dtype=np.int64)]
        for session in self.sessions:
            session.forward(warmup)

    @classmethod
    def from_model(
        cls,
        model: EncoderModel,
        spec: BackendSpec | None = None,
        registry: LutRegistry | None = None,
        num_replicas: int = 2,
        max_batch_size: int = 32,
        bucket_size: int = 1,
    ) -> "SessionPool":
        """Pool over an already-built encoder (its engine settings win)."""
        config = adopted_model_config(
            model, max_batch_size=max_batch_size, bucket_size=bucket_size
        )
        return cls(config=config, spec=spec, registry=registry,
                   num_replicas=num_replicas, model=model)

    def calibrate(
        self, samples: Sequence[np.ndarray], operators=None
    ) -> Dict[str, object]:
        """Dataset-free calibration for the whole pool.

        Runs :meth:`InferenceSession.calibrate` on the primary replica and
        installs the calibrated tables into every other replica, so the pool
        keeps serving one consistent backend.
        """
        calibrated = self.sessions[0].calibrate(samples, operators=operators)
        for session in self.sessions[1:]:
            session.apply_lut_overrides(calibrated)
        return calibrated

    # ------------------------------------------------------------------ #
    # Live membership
    # ------------------------------------------------------------------ #
    def spawn_replica(self) -> InferenceSession:
        """One more warmed replica over the shared frozen encoder."""
        if _faults._ACTIVE is not None:
            _faults._ACTIVE.on_spawn()
        replica = self._template.clone_for_serving()
        replica.forward([np.zeros(1, dtype=np.int64)])
        self.sessions.append(replica)
        return replica

    def retire_replica(self, handle: InferenceSession) -> None:
        """Drop a replica session; the shared model is untouched."""
        if handle in self.sessions:
            self.sessions.remove(handle)


def _resolve(outcomes: List[Outcome]) -> None:
    """Fulfil or fail each request's future (outside the lock: it wakes clients)."""
    for pending, outcome in outcomes:
        if isinstance(outcome, BaseException):
            pending.future._fail(outcome)
        else:
            pending.future._fulfill(outcome)


class ServingQueue:
    """Batch-coalescing serving queue over a :class:`ReplicaPool`.

    Client threads call :meth:`submit` (non-blocking, returns a
    :class:`ServingFuture`) or :meth:`serve_one` (blocking convenience).  A
    scheduler thread coalesces everything submitted within ``max_wait_ms`` of
    the oldest pending request — or sooner, once every replica has a full
    batch — groups the window by (bucketed) length exactly like
    :class:`~repro.api.batching.RequestBatcher`, and appends the formed
    batches to one ready queue; each replica's worker thread takes the
    oldest batch it may serve whenever it is idle.
    Every scheduling decision is a transition of the pure
    :class:`~repro.api.scheduling.fleet.Fleet` core on this queue's clock;
    the queue is the only code that runs it: it owns the condition lock the
    transitions run under, the threads, the replica forwards and the pool's
    spawn/retire hooks, and resolves futures outside the lock.

    Overload behaviour: :meth:`submit` raises :class:`QueueFullError` once
    ``max_queue_depth`` requests are in the system — pending, formed into
    batches, or in flight (admission control over the whole backlog, so the
    queue never grows unboundedly even when the scheduler keeps draining the
    pending deque into formed batches faster than workers serve them).  A
    request whose ``deadline_ms`` elapses before its forward *starts* fails
    with :class:`DeadlineExceededError` instead of wasting a forward on it —
    checked when a worker takes its batch.

    Live membership: :meth:`add_replica`, :meth:`drain_replica` and
    :meth:`retire_replica` grow and shrink the serving fleet while traffic
    flows (in-flight work always completes on the old member).  A replica
    that dies mid-service is retired automatically — the queued work was
    never its own, so the survivors simply keep taking it — and
    ``replace_dead_replicas=True`` additionally spawns a fresh replica in
    its place.

    Parameters
    ----------
    pool:
        Any :class:`ReplicaPool` — a threaded :class:`SessionPool`, a
        multi-process :class:`~repro.api.sharding.ShardedPool` — or a single
        :class:`InferenceSession` (served as a pool of one).
    max_wait_ms:
        Coalescing window measured from the oldest pending request.  Larger
        values trade tail latency for denser batches.
    max_batch_size:
        Rows per dispatched batch; defaults to the pool's session setting.
    max_queue_depth:
        Backlog bound (pending + formed + in-flight requests) above which
        :meth:`submit` rejects.
    start:
        Start the scheduler/worker threads immediately (default).  Tests and
        warm-up flows can pass ``False`` and call :meth:`start` later.
    replace_dead_replicas:
        Spawn a replacement (via the pool's :meth:`~ReplicaPool.spawn_replica`
        hook) whenever a replica dies mid-service.
    retry:
        Optional :class:`~repro.api.scheduling.resilience.RetryPolicy`.
        When given, batches hit by replica-level failures (worker death,
        request timeouts, transport faults) go back to the ready queue, not
        to be taken before an exponential backoff has passed (no worker
        waits it out), and are served by another replica when one can take
        them — safe because inference is pure (see the resilience module's
        retry-idempotency contract).  Default ``None``: failures propagate
        immediately.
    breaker:
        Optional :class:`~repro.api.scheduling.resilience.CircuitBreakerConfig`.
        When given, a replica accumulating consecutive batch failures stops
        taking new work and is re-admitted via a half-open probe once its
        cooldown elapses.  Default ``None``: no breaker.
    """

    def __init__(
        self,
        pool: ReplicaPool | InferenceSession,
        max_wait_ms: float = 2.0,
        max_batch_size: int | None = None,
        max_queue_depth: int = 1024,
        start: bool = True,
        replace_dead_replicas: bool = False,
        retry: RetryPolicy | None = None,
        breaker: CircuitBreakerConfig | None = None,
    ) -> None:
        if isinstance(pool, InferenceSession):
            source = pool
            pool = SessionPool.from_model(
                source.model, spec=source.spec, registry=source.registry,
                num_replicas=1,
                max_batch_size=source.config.max_batch_size,
                bucket_size=source.config.bucket_size,
            )
            if source.lut_overrides:
                # A calibrated session must keep serving its calibrated
                # tables through the queue, not a freshly-built backend.
                for session in pool.sessions:
                    session.apply_lut_overrides(source.lut_overrides)
        if not isinstance(pool, ReplicaPool):
            raise TypeError(
                f"pool must be a SessionPool, a ShardedPool (any ReplicaPool) "
                f"or an InferenceSession, got {type(pool).__name__}"
            )
        if max_wait_ms < 0:
            raise ValueError(f"max_wait_ms must be >= 0, got {max_wait_ms}")
        if max_queue_depth < 1:
            raise ValueError(f"max_queue_depth must be >= 1, got {max_queue_depth}")
        self.pool = pool
        self.max_wait_s = float(max_wait_ms) / 1000.0
        self.max_batch_size = int(
            pool.config.max_batch_size if max_batch_size is None else max_batch_size
        )
        if self.max_batch_size < 1:
            raise ValueError(f"max_batch_size must be >= 1, got {self.max_batch_size}")
        self.max_queue_depth = int(max_queue_depth)

        former = BatchFormer(
            max_batch_size=self.max_batch_size,
            bucket_size=pool.config.bucket_size,
            max_sequence_length=pool.max_sequence_length,
            max_wait_s=self.max_wait_s,
        )
        self._core = Fleet(
            pool.sessions, former, self.max_queue_depth,
            retry=retry, breaker=breaker, replace_dead=replace_dead_replicas,
        )
        #: The one lock in the scheduling stack: every core transition runs
        #: under it; forwards, pool hooks, joins and futures stay outside.
        self._lock = threading.Lock()
        self._cond = threading.Condition(self._lock)
        #: Worker threads by replica id, and the scheduler thread (set by
        #: start(), which is what "started" means).
        self._workers: Dict[int, threading.Thread] = {}
        self._scheduler: Optional[threading.Thread] = None
        if start:
            self.start()

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def start(self) -> "ServingQueue":
        """Start the scheduler and one worker thread per replica (idempotent)."""
        threads: List[threading.Thread] = []
        with self._cond:
            if self._core.closed:
                raise ServerClosedError("cannot start a closed ServingQueue")
            if self._scheduler is None:
                self._scheduler = threading.Thread(
                    target=self._schedule, name="serving-scheduler", daemon=True
                )
                threads = [self._scheduler] + [
                    self._new_worker(m) for m in self._core.members.values()
                ]
        for thread in threads:
            thread.start()
        return self

    def close(self, timeout: float = 5.0) -> None:
        """Stop serving.  In-flight batches finish; queued requests fail.

        Safe to call more than once.  Requests still waiting (pending or in
        formed-but-undispatched batches) receive :class:`ServerClosedError`.
        """
        with self._cond:
            outcomes = self._core.close("ServingQueue was closed")
            threads = [self._scheduler, *self._workers.values()]
            self._cond.notify_all()
        _resolve(outcomes)
        for thread in threads:
            if thread is not None and thread.is_alive():
                thread.join(timeout)

    def __enter__(self) -> "ServingQueue":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # Client surface
    # ------------------------------------------------------------------ #
    def submit(
        self, tokens: np.ndarray, deadline_ms: float | None = None
    ) -> ServingFuture:
        """Enqueue one request; returns its :class:`ServingFuture`.

        ``deadline_ms`` bounds the *queueing* delay: a request not dispatched
        within that many milliseconds of submission fails with
        :class:`DeadlineExceededError` (it is never half-served).
        """
        tokens = AdmissionController.validate(
            tokens, self.pool.max_sequence_length, deadline_ms
        )
        now = time.monotonic()
        future = ServingFuture()
        pending = Pending(
            tokens=tokens,
            future=future,
            submitted_at=now,
            deadline_at=None if deadline_ms is None else now + deadline_ms / 1000.0,
        )
        with self._cond:
            self._core.submit(pending)
            self._cond.notify_all()
        return future

    def serve_one(
        self,
        tokens: np.ndarray,
        deadline_ms: float | None = None,
        timeout: float | None = None,
    ) -> np.ndarray:
        """Blocking convenience: ``submit`` + ``result``."""
        return self.submit(tokens, deadline_ms=deadline_ms).result(timeout)

    def serve(
        self, requests: Sequence[np.ndarray], timeout: float | None = None
    ) -> List[np.ndarray]:
        """Submit a burst of requests and wait for all results (in order).

        ``timeout`` is one shared deadline for the *whole burst*, not a
        per-future allowance: waiting on result ``i`` consumes the same
        budget as results ``0..i-1`` did, so a burst of N requests against a
        stalled queue raises :class:`TimeoutError` after ~``timeout``
        seconds, never ``N * timeout``.
        """
        futures = [self.submit(tokens) for tokens in requests]
        if timeout is None:
            return [future.result(None) for future in futures]
        deadline = time.monotonic() + timeout
        return [
            future.result(max(0.0, deadline - time.monotonic()))
            for future in futures
        ]

    def drain(self, timeout: float = 30.0) -> None:
        """Block until nothing is pending, formed, or in flight.

        Raises :class:`ServerClosedError` if the queue is closed with
        backlog still present (or after close() discarded backlog while this
        call was waiting) — that backlog will never be served, so returning
        normally would falsely report it drained.  A close() that raced in
        *after* everything was genuinely served does not raise.
        """
        closed_error = ServerClosedError(
            "ServingQueue was closed while draining; the remaining "
            "backlog will never be served"
        )
        deadline = time.monotonic() + timeout
        with self._cond:
            while not self._core.idle:
                if self._core.closed:
                    raise closed_error
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise TimeoutError("ServingQueue did not drain in time")
                self._cond.wait(remaining)
            if self._core.closed and self._core.dropped_on_close:
                raise closed_error

    def reset_stats(self) -> None:
        """Zero the counters, latency digest and throughput span anchors.

        Long-lived servers call this to take per-window measurements: after a
        reset, :meth:`stats` describes only the traffic observed since.
        Backlog accounting (``queue_depth`` and the admission-control bound
        it feeds) is deliberately untouched — requests already in the system
        still count against ``max_queue_depth`` and still complete.  Those
        carried-over requests complete *into* the new window: their
        completions/latencies are counted here (a latency necessarily
        includes queueing time from before the reset), the high-water mark
        restarts from the current backlog, and the throughput span is
        anchored at the reset while any backlog remains.  Per-replica
        counters in ``stats().replicas`` are lifetime values and are not
        windowed.
        """
        with self._cond:
            self._core.board.reset(self._core.admission.backlog, time.monotonic())

    def stats(self) -> ServingStats:
        """A consistent snapshot of the queue's counters and latency digest."""
        with self._cond:
            return self._core.snapshot()

    # ------------------------------------------------------------------ #
    # Live membership
    # ------------------------------------------------------------------ #
    def add_replica(self) -> int:
        """Hot-add one replica (pool spawn + fleet adoption); returns its id."""
        handle = self.pool.spawn_replica()
        try:
            with self._cond:
                member = self._core.add(handle)
                started = self._scheduler is not None
                worker = self._new_worker(member) if started else None
                self._cond.notify_all()
        except BaseException:
            # The fleet refused (e.g. the queue closed between spawn and
            # adopt): don't leak a live replica outside the fleet.
            try:
                self.pool.retire_replica(handle)
            except Exception:
                pass
            raise
        if worker is not None:
            worker.start()
        return member.replica_id

    def drain_replica(self, replica_id: int) -> None:
        """Stop a replica taking new work; its in-flight batch completes.

        The member stays visible in :meth:`stats` as ``draining`` until
        :meth:`retire_replica` removes it.
        """
        with self._cond:
            self._core.drain(replica_id)
            self._cond.notify_all()

    def retire_replica(self, replica_id: int, timeout: float = 30.0) -> None:
        """Remove a replica from the fleet and release it from the pool.

        The batch the replica is currently serving completes on it before
        this call returns (in-flight work is never abandoned); queued work
        stays on the shared ready queue for the survivors.  Raises
        ``ValueError`` for an unknown id or when retirement would leave no
        live replica, ``TimeoutError`` when in-flight work outlives
        ``timeout``.
        """
        deadline = time.monotonic() + timeout
        with self._cond:
            member = self._core.retire(replica_id)
            self._cond.notify_all()
            while replica_id in self._core.members:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise TimeoutError(
                        f"replica {replica_id} did not finish its in-flight "
                        "work before the retire timeout"
                    )
                self._cond.wait(remaining)
        try:
            self.pool.retire_replica(member.session)
        except NotImplementedError:
            # A pool without live membership: the fleet no longer serves
            # through the handle, which is all the scheduler needs.
            pass

    # ------------------------------------------------------------------ #
    # Threads: the scheduler and one worker per member
    # ------------------------------------------------------------------ #
    def _new_worker(self, member: ReplicaMember) -> threading.Thread:
        """The member's worker thread, published but not started (lock held)."""
        thread = threading.Thread(
            target=self._work, args=(member,),
            name=f"serving-worker-{member.replica_id}", daemon=True,
        )
        self._workers[member.replica_id] = thread
        return thread

    def _wait_until(self, wake_at: Optional[float]) -> None:
        """Wait for a notify, or until ``wake_at`` when given (lock held).

        Breaker reopening and retry backoff are time-driven — nothing
        notifies when they elapse — so the core's ``wake_at`` bounds it.
        """
        self._cond.wait(
            None if wake_at is None else max(0.0, wake_at - time.monotonic())
        )

    def _schedule(self) -> None:
        with self._cond:
            while not self._core.closed:
                formed, wake_at = self._core.form(time.monotonic())
                if formed:
                    self._cond.notify_all()
                self._wait_until(wake_at)

    def _work(self, member: ReplicaMember) -> None:
        session = member.session
        while True:
            with self._cond:
                while True:
                    if self._core.closed or not member.routable:
                        return
                    batch, outcomes, wake_at = self._core.take(
                        member, time.monotonic()
                    )
                    if batch is not None or outcomes:
                        break
                    self._wait_until(wake_at)
                self._cond.notify_all()
            _resolve(outcomes)
            if batch is None:
                continue
            results = error = None
            try:
                # Deadline propagation: each request's remaining budget
                # (None = no deadline) goes with the batch, so a shard client
                # caps its transport wait and the replica skips requests that
                # expire in flight (returned as zero-length row blocks).
                results = session.forward(
                    [p.tokens for p in batch.requests],
                    [p.remaining_budget_s(batch.dispatched_at) for p in batch.requests],
                )
            except BaseException as exc:
                error = exc
            defunct = error is not None and getattr(session, "defunct", False)
            with self._cond:
                outcomes, replace = self._core.settle(
                    member, batch, time.monotonic(), results, error, defunct
                )
                self._cond.notify_all()
            _resolve(outcomes)
            if replace:
                try:
                    self.add_replica()
                except BaseException:
                    pass  # replacement is best-effort; the survivors serve on
