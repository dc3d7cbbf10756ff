"""Multi-process sharded serving: replica sessions in worker processes.

:class:`~repro.api.server.SessionPool` parallelises replicas with *threads*,
which only helps where numpy's BLAS releases the GIL — the Python half of a
forward (operator dispatch, LUT bookkeeping, batch packing) still serialises.
This module lifts that ceiling: :class:`ShardedPool` serves the same replica
protocol from **worker processes**, each running its own interpreter, so the
whole forward parallelises across cores.

The construction honours the repo's prepare-once discipline and the
serializability contract of ``SessionConfig`` / ``BackendSpec``:

* the parent builds (or, through ``from_model``, adopts) the frozen encoder
  once, copies every master weight array into
  :class:`multiprocessing.shared_memory` blocks via
  :class:`SharedWeightStore`, and rebinds its *own* model onto those blocks —
  one copy of the weights per machine, no matter how many replicas
  (:meth:`ShardedPool.close` hands the model private writable arrays back);
* each worker maps the weight blocks **read-only** into a model skeleton of
  the shipped architecture and serves it through
  :meth:`~repro.api.session.InferenceSession.from_model` with the template's
  batching knobs and the ``BackendSpec.to_dict()`` payload; it receives the
  parent's already-fitted LUT tables (plus any calibrated overrides) by
  pickle — no worker ever re-fits a primitive or re-initialises weights it
  then throws away;
* :class:`ShardedPool` extends the :class:`~repro.api.server.ReplicaPool`
  protocol, so ``forward`` shards micro-batches with the same deterministic
  ``j % N`` rule as the threaded pool (``pooled`` pools its rows
  on the parent — workers serve the one ``forward`` op), ``calibrate``
  re-fits on the parent's template and broadcasts the tables to every
  worker, and :class:`~repro.api.server.ServingQueue` runs on top of it
  unchanged;
* requests and results cross the process boundary through one
  :class:`~repro.api.transport.WorkerTransport` per worker, as
  ``(tag, seq, body)`` envelopes both ends read and write with one codec;
  the ``transport=`` knob sets its ring capacity: ``"pipe"`` allocates no
  rings and pickles every body over a ``multiprocessing.Pipe``;
  ``"shm_ring"`` sizes a request and a response ring for the largest
  ``forward`` envelope the pool sends — a full ``max_batch_size`` batch of
  maximum-length int64 token rows plus the budget row — and its reply, so
  the hot-path bodies go through shared memory and the pipe carries the
  envelopes, the control traffic and whatever outgrows the rings.

Parity: a worker's model is rebuilt from bit-identical weight bytes and its
backend from the very same fitted tables, so under ``compute_dtype="float64"``
with exact-length bucketing, sharded serving is **bitwise-equal** to
single-session serving — the same gate the threaded pool carries.

Failure behaviour: a worker that dies mid-request surfaces as
:class:`WorkerDiedError` on the caller (through a :class:`ServingQueue`, the
affected futures fail with a descriptive per-future error); the remaining
replicas keep serving direct per-replica traffic, and :meth:`ShardedPool.close`
always unlinks the shared-memory blocks — including when construction itself
fails halfway.

Which *process* serves a batch never changes its numerics, on any engine.
"""

from __future__ import annotations

import multiprocessing
import threading
import time
import traceback
import weakref
from multiprocessing import connection as mp_connection
from dataclasses import dataclass
from multiprocessing import shared_memory
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..core.lut import LookupTable
from ..core.registry import LutRegistry
from ..transformer.config import TransformerConfig
from ..transformer.models import EncoderModel, _one_slot_per_process
from . import faults as _faults
from .batching import _validate_request
from .faults import FaultPlan
from .server import ReplicaPool
from .session import (
    InferenceSession,
    SessionConfig,
    _adopted_config,
    _check_budgets,
    attach_weight_state,
    export_weight_state,
)
from .spec import OPERATOR_PRIMITIVES, BackendSpec
from .transport import (
    TransportError,
    WorkerEndpoint,
    WorkerTransport,
    _frame_bytes,
)

__all__ = [
    "WorkerDiedError",
    "SharedWeightStore",
    "ShardedPool",
]


class WorkerDiedError(RuntimeError):
    """A shard worker process exited while (or before) serving a request."""


#: How long the whole fleet (at construction) or one hot-added worker gets to
#: report ready.
_START_TIMEOUT_S = 120.0

#: A request whose every row carries a deadline waits this much past the
#: latest budget for the worker's reply before the call times out.
_DEADLINE_GRACE_S = 5.0

#: Manifest row: (array name, shm block name, shape, dtype string).
_ManifestRow = Tuple[str, str, Tuple[int, ...], str]


def _close_handles(handles: Sequence[shared_memory.SharedMemory]) -> None:
    """Close attached block handles, tolerating still-exported buffers."""
    for handle in handles:
        try:
            handle.close()
        except BufferError:
            pass


class SharedWeightStore:
    """Frozen weight arrays in named ``multiprocessing.shared_memory`` blocks.

    The creating process copies each array into its own block exactly once;
    any process holding the :meth:`manifest` can :meth:`attach` and get
    read-only numpy views onto the same physical pages.  N worker replicas
    therefore share *one* copy of the weights per machine.

    :meth:`unlink` is idempotent and safe to call with views still alive:
    the block names are removed immediately (no new process can attach), and
    the memory itself is released once the last mapping goes away.
    """

    def __init__(self, arrays: Mapping[str, np.ndarray]) -> None:
        self._blocks: Dict[str, shared_memory.SharedMemory] = {}
        self._manifest: List[_ManifestRow] = []
        self._unlinked = False
        try:
            for name, array in arrays.items():
                array = np.ascontiguousarray(array)
                block = shared_memory.SharedMemory(
                    create=True, size=max(1, array.nbytes)
                )
                view = np.ndarray(array.shape, dtype=array.dtype, buffer=block.buf)
                view[...] = array
                self._blocks[name] = block
                self._manifest.append(
                    (name, block.name, tuple(array.shape), array.dtype.str)
                )
        except BaseException:
            self.unlink()
            raise

    def manifest(self) -> List[_ManifestRow]:
        """The attachment recipe: picklable, no array data."""
        return list(self._manifest)

    @property
    def total_bytes(self) -> int:
        """Bytes of weight data shared through the blocks."""
        return sum(
            int(np.prod(shape)) * np.dtype(dtype).itemsize
            for _, _, shape, dtype in self._manifest
        )

    def arrays(self) -> Dict[str, np.ndarray]:
        """Read-only views onto the blocks in the *creating* process."""
        out: Dict[str, np.ndarray] = {}
        for name, _, shape, dtype in self._manifest:
            view = np.ndarray(
                shape, dtype=np.dtype(dtype), buffer=self._blocks[name].buf
            )
            view.flags.writeable = False
            out[name] = view
        return out

    @staticmethod
    def attach(
        manifest: Sequence[_ManifestRow],
    ) -> Tuple[Dict[str, np.ndarray], List[shared_memory.SharedMemory]]:
        """Map the manifest's blocks read-only in this (worker) process.

        Returns the arrays plus the open block handles — the caller must
        keep the handles alive as long as the arrays are in use and
        ``close()`` them on shutdown.  Attaching registers the name with the
        resource tracker again (CPython registers attachments and creations
        alike), which is harmless here: shard workers are spawned children
        of the creating process, so they share its tracker and the
        registration set just re-adds an existing entry — the owner's
        ``unlink`` remains the single cleanup point.
        """
        arrays: Dict[str, np.ndarray] = {}
        handles: List[shared_memory.SharedMemory] = []
        try:
            for name, shm_name, shape, dtype in manifest:
                block = shared_memory.SharedMemory(name=shm_name)
                handles.append(block)
                view = np.ndarray(shape, dtype=np.dtype(dtype), buffer=block.buf)
                view.flags.writeable = False
                arrays[name] = view
        except BaseException:
            _close_handles(handles)
            raise
        return arrays, handles

    def unlink(self) -> None:
        """Remove every block name (idempotent; safe with live views).

        Mappings still held by this or other processes stay valid until
        they are closed; ``BufferError`` from closing a block whose views
        are still exported is tolerated — the OS reclaims the memory when
        the last mapping disappears.
        """
        if self._unlinked:
            return
        self._unlinked = True
        for block in self._blocks.values():
            try:
                block.unlink()
            except FileNotFoundError:
                pass
            try:
                block.close()
            except BufferError:
                # The creating process still holds views (e.g. the parent
                # model was rebound onto the blocks); the mapping stays open
                # but the name is gone, which is what unlink guarantees.
                pass

    @property
    def unlinked(self) -> bool:
        return self._unlinked


@dataclass
class _WorkerInit:
    """Everything a worker needs to reconstruct its replica, all picklable."""

    transformer_config: TransformerConfig
    #: The template's (max_batch_size, bucket_size).
    batching: Tuple[int, int]
    spec: Dict[str, object]  # BackendSpec.to_dict()
    manifest: List[_ManifestRow]
    #: (primitive name, num_entries) -> fitted table, shipped so workers
    #: never re-fit registry primitives.
    tables: Dict[Tuple[str, int], LookupTable]
    #: Fault schedule armed in the worker (chaos testing); None = no faults.
    fault_plan: Optional[FaultPlan] = None


class _ShippedRegistry:
    """A read-only stand-in for :class:`LutRegistry` inside a worker.

    Serves exactly the fitted tables the parent shipped; anything else is a
    deployment bug (a worker silently re-fitting tables would both stall the
    replica and break bitwise parity with the parent's tables).
    """

    def __init__(self, tables: Mapping[Tuple[str, int], LookupTable]) -> None:
        self._tables = dict(tables)

    def lut(self, function_name: str, num_entries: int = 16) -> LookupTable:
        try:
            return self._tables[(function_name, int(num_entries))]
        except KeyError:
            raise RuntimeError(
                f"primitive {function_name!r} with {num_entries} entries was "
                "not shipped to this shard worker; workers never fit tables"
            ) from None

    def get(self, function_name: str, num_entries: int = 16):
        raise RuntimeError(
            "shard workers hold LUT tables only (no fitted networks); run "
            "calibration on the ShardedPool itself — it re-fits on the parent "
            "and broadcasts the calibrated tables to every worker"
        )


def _build_worker_session(
    init: _WorkerInit,
) -> Tuple[InferenceSession, List[shared_memory.SharedMemory]]:
    """Reconstruct one replica session from the shipped description."""
    arrays, handles = SharedWeightStore.attach(init.manifest)
    try:
        model = EncoderModel.skeleton(init.transformer_config)
        attach_weight_state(model, arrays)
        max_batch_size, bucket_size = init.batching
        session = InferenceSession.from_model(
            model,
            spec=BackendSpec.from_dict(init.spec),
            registry=_ShippedRegistry(init.tables),
            max_batch_size=max_batch_size,
            bucket_size=bucket_size,
        )
        # Warm every lazy per-dtype cache before serving, like SessionPool.
        session.forward([np.zeros(1, dtype=np.int64)])
    except BaseException:
        _close_handles(handles)
        raise
    return session, handles


def _worker_main(
    endpoint: WorkerEndpoint, init: _WorkerInit, worker_index: int = 0
) -> None:
    """Entry point of one shard worker process (spawn-safe, module level)."""
    # Workers are the pool's parallelism, sized one per core: a worker's
    # forward never borrows a second core from its siblings.
    _one_slot_per_process()
    injector = None
    if init.fault_plan is not None:
        # Arm worker-side faults before the session warmup runs (the
        # warmup's session.forward ticks the session_forward counter).
        injector = _faults.install(init.fault_plan, worker_index=worker_index)
    try:
        session, handles = _build_worker_session(init)
    except BaseException:
        try:
            endpoint.send("error", traceback.format_exc())
        except (BrokenPipeError, OSError):
            pass
        endpoint.close()
        return
    endpoint.send("ready", None)
    try:
        while True:
            try:
                op, payload = endpoint.recv()
            except (EOFError, OSError):
                return  # parent went away; nothing left to serve
            received_at = time.monotonic()
            if injector is not None:
                injector.on_worker_request(op)  # may stall or crash here
            if op == "close":
                endpoint.send("ok", None)
                return
            try:
                if op == "forward":
                    # The payload's last element is an int64 row of
                    # per-request remaining budgets in microseconds (-1 = no
                    # deadline), measured from this request's receipt.  A
                    # request whose budget already lapsed — e.g. after a
                    # stall between receipt and compute — is skipped and
                    # answered with a zero-length row block (a real request
                    # always has >= 1 token, so zero rows is an unambiguous
                    # expired-in-flight mark).
                    *requests, budgets_us = payload
                    now = time.monotonic()
                    expired = [
                        0 <= us and received_at + us / 1e6 <= now
                        for us in map(int, budgets_us)
                    ]
                    result = session.forward(
                        requests, [0.0 if gone else None for gone in expired]
                    )
                elif op == "apply_lut_overrides":
                    session.apply_lut_overrides(payload)
                    result = None
                else:
                    raise ValueError(f"unknown shard worker op {op!r}")
                endpoint.send("ok", result)
            except BaseException:
                endpoint.send("error", traceback.format_exc())
    finally:
        _close_handles(handles)
        endpoint.close()


class _ShardClient:
    """Parent-side handle to one worker replica.

    Duck-types the replica-handle half of :class:`InferenceSession`
    (``forward`` / ``apply_lut_overrides``), which is exactly what
    :class:`~repro.api.server.ReplicaPool` and
    :class:`~repro.api.server.ServingQueue` call on a pool's ``sessions``.
    One request is in flight per worker at a time (guarded by a lock); the
    transport wait releases the GIL, which is where the cross-process
    parallelism comes from.
    """

    def __init__(
        self,
        index: int,
        process,
        transport: WorkerTransport,
        request_timeout_s: float,
    ) -> None:
        self.index = index
        self.process = process
        self.transport = transport
        self._request_timeout_s = request_timeout_s
        self._lock = threading.Lock()
        #: Set when the channel can no longer be trusted (a request timed
        #: out with the worker still computing: its eventual reply would be
        #: returned to the *next* request).  A broken client never serves
        #: again.
        self._broken = False

    @property
    def defunct(self) -> bool:
        """True once this replica can never serve again (dead or poisoned)."""
        return self._broken or not self.process.is_alive()

    # ------------------------------------------------------------------ #
    # Wire protocol
    # ------------------------------------------------------------------ #
    def _death_message(self, context: str) -> str:
        return (
            f"shard worker {self.index} (pid {self.process.pid}) died "
            f"{context} (exitcode {self.process.exitcode}); its shard of the "
            "request cannot be served"
        )

    def _recv(self, timeout_s: float, context: str):
        # One blocking wait on {response channel, process sentinel} bounded
        # by the deadline — no repeated short polls, so a parent thread
        # waiting on a busy worker sleeps instead of burning CPU.  The
        # sentinel covers every death, including one so early the worker
        # never collected its end of the pipe (where no EOF would ever
        # arrive); a reply sent just before death is still drained first.
        ready = mp_connection.wait(
            [self.transport.wait_handle, self.process.sentinel],
            timeout=max(0.0, timeout_s),
        )
        if self.transport.wait_handle in ready or (
            ready and self.transport.poll(0)
        ):
            return self.transport.recv()
        if ready:  # only the sentinel fired: the worker is gone
            raise WorkerDiedError(self._death_message(context))
        raise TimeoutError(
            f"shard worker {self.index} did not answer within "
            f"{timeout_s:.1f} s"
        )

    def _call(self, op: str, payload, timeout_s: float | None = None):
        timeout_s = self._request_timeout_s if timeout_s is None else timeout_s
        with self._lock:
            if self._broken:
                raise WorkerDiedError(
                    f"shard worker {self.index} was terminated after a "
                    "timed-out request; it can no longer serve"
                )
            if not self.process.is_alive():
                raise WorkerDiedError(self._death_message(f"before {op!r}"))
            try:
                self.transport.send(op, payload)
                status, value = self._recv(timeout_s, f"while serving {op!r}")
            except TimeoutError:
                # Checked before OSError — TimeoutError subclasses it, and
                # the death branch below must not swallow timeouts.  The
                # worker may still answer this request later; reusing the
                # channel would hand that stale reply to the next caller.
                # Poison the client and put the worker down.
                self._broken = True
                self.process.terminate()
                raise
            except (BrokenPipeError, EOFError, OSError) as exc:
                raise WorkerDiedError(
                    self._death_message(f"while serving {op!r}")
                ) from exc
        return self._reply(status, value, "ok", f"while serving {op!r}")

    def wait_ready(self, timeout_s: float) -> None:
        with self._lock:
            try:
                status, value = self._recv(timeout_s, "during initialisation")
            except (BrokenPipeError, EOFError, OSError) as exc:
                # A hard death (segfault, OOM kill) surfaces as pipe EOF —
                # poll() reports EOF as readable, so recv() raises before
                # _recv's liveness branch can.  Map it to the descriptive
                # error like every other channel interaction.
                raise WorkerDiedError(
                    self._death_message("during initialisation")
                ) from exc
        self._reply(status, value, "ready", "during initialisation")

    def _reply(self, status: str, value, expected: str, context: str):
        """``value`` when the worker answered with the ``expected`` status;
        its traceback as a ``RuntimeError`` on ``"error"``."""
        if status == expected:
            return value
        if status == "error":
            raise RuntimeError(
                f"shard worker {self.index} raised {context}:\n{value}"
            )
        # Anything else is protocol drift between client and worker (stale
        # replies are the transport's TransportError) — say so instead of
        # presenting the payload as a worker traceback.
        raise RuntimeError(
            f"shard worker {self.index} sent unexpected status {status!r} "
            f"{context}"
        )

    # ------------------------------------------------------------------ #
    # InferenceSession serving surface
    # ------------------------------------------------------------------ #
    def forward(
        self,
        requests: Sequence[np.ndarray],
        budgets_s: Sequence[Optional[float]] | None = None,
    ) -> List[np.ndarray]:
        """Hidden states per request, under per-request deadline budgets.

        ``budgets_s[i]`` is request ``i``'s remaining time in seconds
        (``None`` = no deadline; no ``budgets_s`` = none anywhere).  The
        budgets always ship with the batch as one extra int64 microsecond
        row, so the worker can skip requests that expire in flight — those
        come back as zero-length row blocks.  The token rows ship as int64
        too (any integer dtype is accepted), so the whole envelope is one
        dtype and a ring can carry it.  When *every* request carries a
        deadline the transport wait is capped at the largest budget plus the
        grace window instead of the full request timeout; a worker that
        blows through the cap is treated exactly like a timed-out one
        (poisoned and terminated), since its eventual reply could no longer
        be delivered to anyone.
        """
        _check_budgets(requests, budgets_s)
        if budgets_s is None:
            budgets_s = [None] * len(requests)
        budget_us = np.asarray(
            [-1 if b is None else max(0, int(b * 1e6)) for b in budgets_s],
            dtype=np.int64,
        )
        payload = [
            _validate_request(r, None, i).astype(np.int64, copy=False)
            for i, r in enumerate(requests)
        ] + [budget_us]
        timeout_s = None
        if len(budget_us) and bool(np.all(budget_us >= 0)):
            timeout_s = min(
                self._request_timeout_s,
                float(budget_us.max()) / 1e6 + _DEADLINE_GRACE_S,
            )
        return self._call("forward", payload, timeout_s=timeout_s)

    def apply_lut_overrides(self, overrides: Mapping[str, LookupTable]) -> None:
        self._call("apply_lut_overrides", dict(overrides))

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def shutdown(self, timeout_s: float) -> None:
        """Ask the worker to exit; escalate to terminate/kill if it won't.

        The whole sequence is bounded by ``timeout_s`` per step: the client
        lock is acquired with a timeout (an in-flight request may hold it
        for up to ``request_timeout_s``), and if it cannot be had in time
        the polite close handshake is skipped and the worker is terminated.
        """
        acquired = self._lock.acquire(timeout=timeout_s)
        try:
            if acquired and not self._broken and self.process.is_alive():
                try:
                    self.transport.send("close", None)
                    self._recv(timeout_s, "during shutdown")
                except (WorkerDiedError, TimeoutError, TransportError,
                        BrokenPipeError, EOFError, OSError):
                    # A stale reply (e.g. an init report nobody awaited)
                    # included: the worker is escalated below either way.
                    pass
        finally:
            if acquired:
                self._lock.release()
        self.process.join(timeout_s)
        if self.process.is_alive():
            self.process.terminate()
            self.process.join(timeout_s)
        if self.process.is_alive():
            self.process.kill()
            self.process.join(timeout_s)
        # Closes the pipe ends and unlinks any shared-memory rings — the
        # transport's resources must never outlive the pool, dead worker
        # or not.
        self.transport.close()


def _required_tables(
    spec: BackendSpec, registry: LutRegistry
) -> Dict[Tuple[str, int], LookupTable]:
    """The fitted tables a worker's ``build_backend`` will ask a registry for.

    Only ``nn_lut`` operators consult the registry (``linear_lut`` tables are
    recomputed analytically, ``exact``/``ibert`` need none).  Every ``nn_lut``
    primitive ships its base table even when a calibrated override exists:
    the worker session builds the uncalibrated backend first and applies
    overrides after, exactly like the parent did.
    """
    tables: Dict[Tuple[str, int], LookupTable] = {}
    for op, op_spec in spec.operators().items():
        if op_spec.method != "nn_lut":
            continue
        for primitive in OPERATOR_PRIMITIVES[op]:
            key = (primitive, int(op_spec.num_entries))
            if key not in tables:
                tables[key] = registry.lut(
                    primitive, num_entries=op_spec.num_entries
                )
    return tables


def _restore_model_weights(model: EncoderModel) -> None:
    """Give a model serving off shared-memory views private arrays back.

    During a pool's life the parent model reads the shared blocks (one
    weight copy per machine).  At teardown those blocks are unlinked, so the
    model — possibly adopted from the caller, who may later edit weights in
    place — is rebound onto fresh private copies of the same bytes, exactly
    as writable as before the pool existed.
    """
    state = export_weight_state(model)
    restored = {
        name: array.copy()
        for name, array in state.items()
        if not array.flags.writeable
    }
    if restored:
        attach_weight_state(model, {**state, **restored})


def _release_pool_resources(
    store: SharedWeightStore,
    model: EncoderModel,
    transports: Sequence[WorkerTransport],
) -> None:
    """Teardown shared between close() and the GC safety-net finalizer.

    Closing the transports is idempotent (a normal ``close()`` already shut
    them down via the client shutdowns); on the GC path it is what unlinks
    the ring blocks and drops the pipe ends so orphaned workers see EOF.
    """
    try:
        _restore_model_weights(model)
    finally:
        store.unlink()
        for transport in transports:
            transport.close()


class ShardedPool(ReplicaPool):
    """Replica sessions in worker *processes* over shared-memory weights.

    Drop-in for :class:`~repro.api.server.SessionPool` (same construction
    signature, same ``forward``/``pooled``/``calibrate`` surface,
    same deterministic ``j % N`` sharding), with replicas that run in their
    own interpreters — the multi-core story the GIL denies the threaded pool.

    Cost model: weights are shipped once per machine (shared memory blocks;
    the parent's own model is rebound onto them, so there is exactly one
    copy), while request/response arrays cross the process boundary through
    the chosen ``transport`` — ``"pipe"`` pickles them per call,
    ``"shm_ring"`` moves the hot-path payloads through preallocated
    shared-memory rings (see :mod:`repro.api.transport`) and pickles only the
    control traffic and whatever outgrows the rings.  Sharding pays
    off when forward compute dominates — many rows, real depth — and the
    threaded pool stays preferable for tiny single-request traffic; the ring
    transport shrinks the boundary tax that trade-off prices.  Workers serve
    ``forward`` only, so ``pooled`` ships each request's full hidden rows
    back and pools them on the parent.

    The rings are sized for the largest ``forward`` envelope the pool itself
    sends (a full ``max_batch_size`` batch of maximum-length sequences plus
    its budget row) and its reply.  A :class:`~repro.api.server.ServingQueue`
    built with a larger ``max_batch_size`` than the pool's can outgrow them:
    such batches still serve correctly by the pickle pipe, visible in each
    client's ``transport.stats``.

    Workers are started with ``"spawn"``: it is the strictest start method
    (nothing is inherited, so it proves the replica truly reconstructs from
    the serializable spec — the same recipe a cross-machine shard would use)
    and the only one that is safe regardless of parent threads.

    Use as a context manager or call :meth:`close`, which shuts workers down
    and always unlinks the shared-memory blocks (weights and rings alike).
    """

    def __init__(
        self,
        config: SessionConfig | None = None,
        spec: BackendSpec | None = None,
        registry: LutRegistry | None = None,
        num_replicas: int = 2,
        request_timeout_s: float = 600.0,
        transport: str = "pipe",
    ) -> None:
        config = config or SessionConfig()
        # The masters go to shared memory, which keeps them resident anyway:
        # draw them unprepared, so none is released and the export in
        # _open() reads them instead of re-running the draw.
        model = EncoderModel._build(
            config.transformer_config(),
            np.random.default_rng(config.seed),
            prepare=False,
        )
        self._open(
            model, config, spec, registry, num_replicas, request_timeout_s, transport
        )

    @classmethod
    def from_model(
        cls,
        model: EncoderModel,
        spec: BackendSpec | None = None,
        registry: LutRegistry | None = None,
        num_replicas: int = 2,
        max_batch_size: int = 32,
        bucket_size: int = 1,
        **kwargs,
    ) -> "ShardedPool":
        """Sharded pool over an already-built encoder (its engine wins)."""
        config = _adopted_config(model, max_batch_size, bucket_size)
        pool = cls.__new__(cls)
        pool._open(model, config, spec, registry, num_replicas, **kwargs)
        return pool

    def _open(
        self,
        model: EncoderModel,
        config: SessionConfig,
        spec: BackendSpec | None,
        registry: LutRegistry | None,
        num_replicas: int,
        request_timeout_s: float = 600.0,
        transport: str = "pipe",
    ) -> None:
        """Share ``model``'s weights, serve a template over them, start workers.

        ``config`` is the pool's description; it supplies the batching knobs
        of the template and of every worker replica.
        """
        if num_replicas < 1:
            raise ValueError(f"num_replicas must be >= 1, got {num_replicas}")
        if transport not in ("pipe", "shm_ring"):
            raise ValueError(
                f"unknown worker transport {transport!r}; available "
                "transports: pipe, shm_ring"
            )
        self.transport_name = transport
        self.config = config
        self.sessions: List[_ShardClient] = []
        self._closed = False
        store = SharedWeightStore(export_weight_state(model))
        self._store = store
        self._transports: List[WorkerTransport] = []
        # Restore the model's private weights and unlink the blocks — weight
        # store and transport rings alike — even if the pool is never closed
        # (GC / interpreter exit).
        self._finalizer = weakref.finalize(
            self, _release_pool_resources, store, model, self._transports
        )
        try:
            # One copy of the weights per machine: the parent's model reads
            # the same blocks the workers map, and the template prepares its
            # linears once, on them.
            attach_weight_state(model, store.arrays())
            template = InferenceSession.from_model(
                model, spec, registry, config.max_batch_size, config.bucket_size
            )
            self._template = template
            self.spec = template.spec
            template.forward([np.zeros(1, dtype=np.int64)])
            # What _start_worker() needs, at construction and for each live
            # hot-add after it.
            self._worker_init = _WorkerInit(
                transformer_config=model.config,
                batching=(config.max_batch_size, config.bucket_size),
                spec=template.spec.to_dict(),
                manifest=store.manifest(),
                tables=_required_tables(template.spec, template.registry),
                # A fault plan armed in this process at construction time is
                # baked into every worker (they are spawned, not forked, so
                # the injector cannot be inherited).
                fault_plan=_faults.active_plan(),
            )
            self._context = multiprocessing.get_context("spawn")
            self._request_bytes, self._response_bytes = self._ring_sizes(
                template, transport
            )
            self._request_timeout_s = request_timeout_s
            self._next_worker_index = num_replicas
            for index in range(num_replicas):
                # Track before waiting so close() reaps it on any failure.
                self.sessions.append(self._start_worker(index))
            # One shared deadline across the fleet (not per worker): N slow
            # workers must not stack N full start timeouts.
            start_deadline = time.monotonic() + _START_TIMEOUT_S
            for client in self.sessions:
                client.wait_ready(max(0.0, start_deadline - time.monotonic()))
        except BaseException:
            self.close()
            raise

    @staticmethod
    def _ring_sizes(template: InferenceSession, transport: str) -> Tuple[int, int]:
        """Per-worker ring payload capacities (request, response) in bytes.

        ``"pipe"`` is zero capacity: no ring is allocated.  ``"shm_ring"``
        holds the largest envelope :meth:`_ShardClient.forward` sends — a
        full ``max_batch_size`` batch of maximum-length int64 token rows plus
        the int64 budget row — and its reply, that many maximum-length
        hidden-state row blocks in the compute dtype.
        """
        if transport == "pipe":
            return 0, 0
        rows = template.config.max_batch_size
        length = template.max_sequence_length
        model = template.model.config
        return (
            _frame_bytes([length] * rows + [rows], 0, 8),
            _frame_bytes(
                [length] * rows, model.hidden_size,
                np.dtype(model.compute_dtype).itemsize,
            ),
        )

    def _start_worker(self, index: int) -> "_ShardClient":
        """Fresh transport, spawned worker process over it, and its client.

        The transport is tracked as soon as its worker runs, so the GC
        finalizer unlinks this worker's ring blocks whatever fails later (the
        finalizer holds the list object, so appends stay visible to it).
        Waiting for readiness is the caller's.
        """
        worker_transport = WorkerTransport(
            self._context, self._request_bytes, self._response_bytes
        )
        try:
            process = self._context.Process(
                target=_worker_main,
                args=(worker_transport.endpoint(), self._worker_init, index),
                name=f"shard-worker-{index}",
                daemon=True,
            )
            process.start()
        except BaseException:
            # Not yet tracked by a client; close() cannot reap it.
            worker_transport.close()
            raise
        self._transports.append(worker_transport)
        worker_transport.on_worker_started()
        return _ShardClient(index, process, worker_transport, self._request_timeout_s)

    def forward(self, requests: Sequence[np.ndarray]) -> List[np.ndarray]:
        if self._closed:
            raise RuntimeError(
                "ShardedPool is closed; its workers and shared-memory "
                "weights are gone"
            )
        return super().forward(requests)

    def calibrate(
        self, samples: Sequence[np.ndarray], operators=None
    ) -> Dict[str, LookupTable]:
        if self._closed:
            raise RuntimeError(
                "ShardedPool is closed; there are no workers to calibrate"
            )
        return super().calibrate(samples, operators=operators)

    # ------------------------------------------------------------------ #
    # Live membership
    # ------------------------------------------------------------------ #
    def spawn_replica(self) -> "_ShardClient":
        """Start one more worker process and adopt it into the pool.

        Repeats the construction recipe for a single worker — fresh
        transport, spawned process over the *same* shared-memory weight
        blocks and serialized init — waits for readiness, and installs any
        tables calibrated since construction, so the newcomer serves the
        same backend as the incumbents.  The new client is appended to
        ``sessions`` before returning.
        """
        if self._closed:
            raise RuntimeError(
                "ShardedPool is closed; it cannot spawn a replica"
            )
        if _faults._ACTIVE is not None:
            _faults._ACTIVE.on_spawn()
        index = self._next_worker_index
        self._next_worker_index += 1
        client = self._start_worker(index)
        try:
            client.wait_ready(_START_TIMEOUT_S)
            if self._template.lut_overrides:
                # The pool was calibrated after construction; the baked init
                # predates those tables.
                client.apply_lut_overrides(self._template.lut_overrides)
        except BaseException:
            self._reap(client, 5.0)
            raise
        self.sessions.append(client)
        return client

    def retire_replica(self, handle: "_ShardClient") -> None:
        """Shut one worker down and drop it from ``sessions``.

        The worker's shared ring blocks are released by its transport close
        (via the client shutdown); the weight blocks stay — they belong to
        the pool, not the worker.
        """
        if handle in self.sessions:
            self.sessions.remove(handle)
        self._reap(handle, 10.0)

    def _reap(self, client: "_ShardClient", timeout_s: float) -> None:
        """Shut one worker down and forget its closed transport.

        Mutates the list the GC finalizer holds, so worker churn does not
        accumulate closed transports for the pool's life.
        """
        client.shutdown(timeout_s)
        if client.transport in self._transports:
            self._transports.remove(client.transport)

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def close(self, timeout: float = 10.0) -> None:
        """Stop the workers and release the shared-memory weights.

        Idempotent.  The blocks are unlinked even when a worker is already
        dead, refuses to exit (it gets terminated), or construction failed
        halfway — shared memory must never outlive the pool — and the
        template/adopted model gets private writable weight arrays back
        (see :func:`_restore_model_weights`).  Dropping the pool without
        closing triggers the same teardown from a GC finalizer.
        """
        if self._closed:
            return
        self._closed = True
        try:
            for client in self.sessions:
                client.shutdown(timeout)
        finally:
            self._finalizer()

    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def shared_weight_bytes(self) -> int:
        """Bytes of frozen-encoder weights held in the shared-memory blocks."""
        return self._store.total_bytes

    def __enter__(self) -> "ShardedPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
