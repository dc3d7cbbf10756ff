"""Runtime lock audit over the five locks in ``src/``.

While a :class:`LockAudit` is armed, each audited lock is an
:class:`AuditedLock` that knows which thread owns it, and three checks run
on top of that knowledge:

* **lock order** — no audited lock may be acquired by a thread that already
  holds another, except for the one nesting :data:`NESTING` lists;
* **guarded fields** — a field installed with :meth:`LockAudit.guard` may
  only be read or written by the thread owning the lock registered for its
  object with :meth:`LockAudit.own` (objects never registered, and the
  writes a constructor makes before registration, are not checked);
* **blocking under a lock** — every call wrapped with
  :meth:`LockAudit.blocking` asserts that the calling thread holds no audited
  lock, unless ``(caller, callee)`` is on :data:`ALLOWLIST`; nothing the
  allowlisted call does inside is checked again.  An allowlist or nesting
  entry that an armed run never uses is stale
  (:meth:`LockAudit.stale_allowlist`).  ``Condition.wait`` on a
  thread's own condition is exempt by construction: it releases the audited
  lock before it sleeps.

:func:`serving_audit` arms all of this over the serving stack: the
``ServingQueue`` condition lock (the one lock the scheduling core runs under),
the shard client lock, the fault injector lock, the native-kernel build
lock and the model's core-slot lock, the fields those locks guard — the
queue's threads, every field of the core's state and the slot count — and
the blocking calls the queue promises to make outside its lock.
``src/`` carries no hook for any of it; everything is monkeypatched here.
The ``lock_audit`` fixture in ``tests/conftest.py`` arms it per module.
"""

from __future__ import annotations

import functools
import inspect
import os
import queue
import subprocess
import sys
import threading
import time
from contextlib import contextmanager
from multiprocessing import connection as mp_connection
from multiprocessing import process as mp_process
from typing import Dict, Iterable, Iterator, List, Tuple

from repro.api import faults, server, sharding
from repro.api.scheduling import admission, fleet, resilience, stats
from repro.api.server import ReplicaPool
from repro.api.session import InferenceSession
from repro.core import kernels
from repro.transformer import models

__all__ = [
    "ALLOWLIST",
    "EXEMPT",
    "LOCK_SITES",
    "NESTING",
    "AuditedLock",
    "LockAudit",
    "serving_audit",
]

#: Every lock construction under ``src/`` (path under ``src/repro``, the
#: enclosing scope, the ``threading`` constructor) — each is replaced by
#: :func:`serving_audit`.  ``tests/test_lock_audit.py`` pins this set
#: against the source, so a sixth lock is a deliberate diff here.
LOCK_SITES = frozenset({
    ("api/faults.py", "FaultInjector.__init__", "Lock"),
    ("api/server.py", "ServingQueue.__init__", "Lock"),
    ("api/server.py", "ServingQueue.__init__", "Condition"),
    ("api/sharding.py", "_ShardClient.__init__", "Lock"),
    ("core/kernels.py", "<module>", "Lock"),
    # The process-wide count of forwards on the cores and the lazily made
    # helper that runs second halves: a split's check-then-take of a second
    # slot, and the helper's one construction, must not interleave with
    # another forward's.  Held for a few assignments; nothing blocks under it.
    ("transformer/models.py", "_CoreSlots.__init__", "Lock"),
})

#: Blocking calls deliberately made under a lock: ``(caller, callee)`` ->
#: why that is safe.
ALLOWLIST: Dict[Tuple[str, str], str] = {
    ("_ShardClient._call", "_recv"): (
        "Deliberate one-request-in-flight serialisation: the class contract "
        "is one outstanding request per worker, so _call holds self._lock "
        "across send+recv on purpose. The wait releases the GIL "
        "(mp_connection.wait), other *workers* proceed in parallel, and the "
        "wait is deadline-bounded by _recv's timeout, so a stuck worker "
        "cannot wedge contending threads forever."
    ),
    ("_ShardClient.wait_ready", "_recv"): (
        "Same one-in-flight contract as _call: wait_ready drains the "
        "worker's initialisation handshake under self._lock before any "
        "request may be issued. Bounded by its timeout_s and runs once, "
        "during pool construction, before serving threads exist."
    ),
    ("_ShardClient.shutdown", "_recv"): (
        "Same one-in-flight contract as _call: the close handshake must not "
        "interleave with an in-flight request. The lock itself is taken "
        "with a timeout and the reply wait is bounded by the same "
        "timeout_s, so shutdown cannot hang on a wedged worker."
    ),
    ("_load_native_lib", "_compile_library"): (
        "Build-once by design: _native_lock guards the one-time cc "
        "invocation that produces the shared library; contending threads "
        "*should* wait for the single compile rather than racing a second "
        "one. After the first call the cached handle is returned without "
        "blocking."
    ),
}

#: Locks taken under another: ``(held, acquired)`` -> why that cannot deadlock.
NESTING: Dict[Tuple[str, str], str] = {
    ("_ShardClient._lock", "FaultInjector._lock"): (
        "FaultInjector._lock exists only while a test or demo injects "
        "faults. The ring-corruption hook runs inside _ShardClient._call's "
        "receive, so under the client lock, and holds the counter lock for "
        "one increment with no call under it. Nothing takes "
        "_ShardClient._lock under FaultInjector._lock, so the order cannot "
        "invert."
    ),
}

#: Unguarded accesses that are correct: ``(accessor, "Class.field")`` -> why.
EXEMPT: Dict[Tuple[str, str], str] = {
    ("_ShardClient.defunct", "_ShardClient._broken"): (
        "Deliberate benign-racy read: defunct is a monitoring predicate "
        "polled by the parent while a request may be in flight; taking "
        "self._lock there would block the poll on the in-flight _call(). "
        "_broken is a monotonic bool (False->True once) and a stale False "
        "only delays detection by one poll."
    ),
}

_MISSING = object()


class AuditedLock:
    """A ``threading.Lock`` that knows its owner and reports lock nesting."""

    def __init__(self, audit: "LockAudit", name: str) -> None:
        self._audit = audit
        self._lock = threading.Lock()
        self._owner: int | None = None
        self.name = name

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        held = self._audit._held()
        for outer in held:
            self._audit._nested(outer, self)
        acquired = self._lock.acquire(blocking, timeout)
        if acquired:
            self._owner = threading.get_ident()
            held.append(self)
        return acquired

    def release(self) -> None:
        held = self._audit._held()
        if self in held:
            held.remove(self)
        self._owner = None
        self._lock.release()

    def locked(self) -> bool:
        return self._lock.locked()

    def _is_owned(self) -> bool:  # what threading.Condition asks
        return self._owner == threading.get_ident()

    def __enter__(self) -> bool:
        return self.acquire()

    def __exit__(self, *exc) -> None:
        self.release()

    def __repr__(self) -> str:
        return f"<AuditedLock {self.name}>"


class _GuardedField:
    """Data descriptor that checks the owner lock around one field."""

    def __init__(self, audit: "LockAudit", cls: type, name: str) -> None:
        self._audit = audit
        self._name = name
        self._label = f"{cls.__name__}.{name}"
        # A __slots__ member keeps storing the value; otherwise the
        # instance __dict__ does (this descriptor outranks it).
        self._slot = vars(cls).get(name)

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        self._audit._access(obj, self._label, "read")
        if self._slot is not None:
            return self._slot.__get__(obj, owner)
        try:
            return obj.__dict__[self._name]
        except KeyError:
            raise AttributeError(self._name) from None

    def __set__(self, obj, value) -> None:
        self._audit._access(obj, self._label, "write")
        if self._slot is not None:
            self._slot.__set__(obj, value)
        else:
            obj.__dict__[self._name] = value


def _site():
    """The nearest frame outside this module and ``threading``."""
    frame = sys._getframe(1)
    while frame.f_globals.get("__name__") in (__name__, "threading"):
        frame = frame.f_back
    return frame


def _where(frame) -> str:
    """``qualname (file:line) <- its caller (file:line)``."""
    def one(f) -> str:
        path = os.path.relpath(f.f_code.co_filename)
        return f"{f.f_code.co_qualname} ({path}:{f.f_lineno})"

    return one(frame) if frame.f_back is None else f"{one(frame)} <- {one(frame.f_back)}"


def _names(locks: Iterable[AuditedLock]) -> str:
    return ", ".join(lock.name for lock in locks)


class LockAudit:
    """Owner-tracking locks plus the three checks; see the module docstring.

    Use as a context manager: entering watches the standard blocking calls,
    leaving undoes every patch.  Findings collect in :attr:`findings`
    (message -> the test that was running) until :meth:`assert_clean`.
    """

    #: The blocking calls every armed audit watches: ``(owner, attribute)``.
    BLOCKING_CALLS = (
        (time, "sleep"),
        (threading.Thread, "join"),
        (mp_process.BaseProcess, "join"),
        (threading.Event, "wait"),
        (mp_connection, "wait"),
        (mp_connection._ConnectionBase, "recv"),
        (queue.Queue, "get"),
        (subprocess, "run"),
        (subprocess.Popen, "wait"),
        (subprocess.Popen, "communicate"),
    )

    def __init__(
        self,
        allowlist: Dict[Tuple[str, str], str] | None = None,
        nesting: Dict[Tuple[str, str], str] | None = None,
        exempt: Dict[Tuple[str, str], str] | None = None,
    ) -> None:
        self.allowlist = dict(allowlist or {})
        self.nesting = dict(nesting or {})
        self.exempt = dict(exempt or {})
        self.findings: Dict[str, str] = {}
        self.hits: set = set()
        self._owners: Dict[int, AuditedLock] = {}
        self._local = threading.local()
        self._undo: List[Tuple[object, str, object]] = []

    # -- arming --------------------------------------------------------- #
    def __enter__(self) -> "LockAudit":
        for owner, name in self.BLOCKING_CALLS:
            self.blocking(owner, name)
        return self

    def __exit__(self, *exc) -> None:
        while self._undo:
            target, name, original = self._undo.pop()
            if original is _MISSING:
                delattr(target, name)
            else:
                setattr(target, name, original)
        self._owners.clear()

    def patch(self, target, name: str, value) -> None:
        """``setattr(target, name, value)`` until the audit is left."""
        self._undo.append((target, name, vars(target).get(name, _MISSING)))
        setattr(target, name, value)

    def lock(self, name: str) -> AuditedLock:
        return AuditedLock(self, name)

    def own(self, obj, lock: AuditedLock) -> None:
        """From now on ``obj``'s guarded fields need ``lock``."""
        self._owners[id(obj)] = lock

    def guard(self, cls: type, fields: Iterable[str]) -> None:
        """Check every access to ``cls.<field>`` on owned instances."""
        for name in fields:
            self.patch(cls, name, _GuardedField(self, cls, name))
        # A new object can reuse a dead one's id: drop any ownership the id
        # still carries before the constructor writes a field.
        init = cls.__init__
        owners = self._owners

        @functools.wraps(init)
        def fresh_init(obj, *args, **kwargs):
            owners.pop(id(obj), None)
            init(obj, *args, **kwargs)

        self.patch(cls, "__init__", fresh_init)

    def blocking(self, owner, name: str) -> None:
        """Report calls of ``owner.<name>`` made while holding an audited lock."""
        original = vars(owner)[name]
        label = f"{getattr(owner, '__name__', owner)}.{name}"
        audit = self

        @functools.wraps(original)
        def watched(*args, **kwargs):
            local = audit._local
            held = audit._held()
            if not held or getattr(local, "inside_allowed", False):
                return original(*args, **kwargs)
            site = _site()
            caller = site.f_code.co_qualname
            if (caller, name) not in audit.allowlist:
                audit._record(
                    f"blocking-under-lock: {_where(site)} called {label} "
                    f"holding {_names(held)}"
                )
                return original(*args, **kwargs)
            audit.hits.add((caller, name))
            local.inside_allowed = True
            try:
                return original(*args, **kwargs)
            finally:
                local.inside_allowed = False

        self.patch(owner, name, watched)

    # -- reports -------------------------------------------------------- #
    def stale_allowlist(self) -> List[Tuple[str, str]]:
        """Allowlist and nesting entries no armed run has used."""
        return sorted((set(self.allowlist) | set(self.nesting)) - self.hits)

    def assert_clean(self) -> None:
        findings, self.findings = self.findings, {}
        assert not findings, "lock audit:\n" + "\n".join(
            f"  {message}  [during {test}]" for message, test in findings.items()
        )

    # -- internals ------------------------------------------------------ #
    def _held(self) -> List[AuditedLock]:
        try:
            return self._local.held
        except AttributeError:
            self._local.held = []
            return self._local.held

    def _record(self, message: str) -> None:
        test = os.environ.get("PYTEST_CURRENT_TEST", "?").split(" ")[0]
        self.findings.setdefault(message, test)

    def _nested(self, outer: AuditedLock, inner: AuditedLock) -> None:
        if (outer.name, inner.name) in self.nesting:
            self.hits.add((outer.name, inner.name))
            return
        self._record(
            f"lock-order: {inner.name} acquired in {_where(_site())} while "
            f"holding {outer.name}"
        )

    def _access(self, obj, label: str, kind: str) -> None:
        lock = self._owners.get(id(obj))
        if lock is None or lock._owner == threading.get_ident():
            return
        site = _site()
        if (site.f_code.co_qualname, label) in self.exempt:
            return
        self._record(
            f"unguarded-attr: {kind} of {label} in {_where(site)} "
            f"without {lock.name}"
        )


# ---------------------------------------------------------------------- #
# The serving stack
# ---------------------------------------------------------------------- #
#: Fields each lock guards, by class.  Left out on purpose: write-once
#: references set by constructors (``ReplicaMember.replica_id`` /
#: ``session`` / ``health``, ``ReplicaHealth.config``, the core's
#: collaborators), and a ``FormedBatch``, which only the core touches until
#: it is dispatched and only the dispatching worker reads afterwards.
GUARDED: Dict[type, Tuple[str, ...]] = {
    server.ServingQueue: ("_workers", "_scheduler"),
    fleet.Fleet: (
        "retry_rng", "members", "pending", "ready", "next_replica_id",
        "closed", "dropped_on_close",
    ),
    fleet.ReplicaMember: (
        "batch", "batches_served", "completed", "failed", "draining",
        "retired",
    ),
    resilience.ReplicaHealth: (
        "errors", "timeouts", "consecutive_failures", "service_ewma_ms",
        "state", "opened_at",
    ),
    stats.StatsBoard: (
        "submitted", "completed", "rejected", "expired", "failed", "batches",
        "batched_rows", "replicas_added", "replicas_retired",
        "retry_attempts", "retried_requests", "breaker_opens",
        "breaker_closes", "integrity_failures", "expired_in_flight",
        "max_depth_seen", "latencies_ms", "queue_waits_ms", "services_ms",
        "first_submit_at", "last_done_at",
    ),
    admission.AdmissionController: ("backlog",),
    sharding._ShardClient: ("_broken",),
    faults.FaultInjector: ("_counts",),
    models._CoreSlots: ("_busy", "_cores", "_helper"),
}


def _pool_classes(cls=ReplicaPool) -> Iterator[type]:
    yield cls
    for sub in cls.__subclasses__():
        if sub.__module__.startswith("repro."):
            yield from _pool_classes(sub)


def _after_init(audit: LockAudit, cls: type, adopt) -> None:
    """Run ``adopt(obj)`` right after each ``cls.__init__``."""
    init = vars(cls)["__init__"]

    @functools.wraps(init)
    def audited_init(obj, *args, **kwargs):
        init(obj, *args, **kwargs)
        adopt(obj)

    audit.patch(cls, "__init__", audited_init)


def _install(audit: LockAudit) -> None:
    for cls, fields in GUARDED.items():
        audit.guard(cls, fields)

    def own_member(member, lock):
        audit.own(member, lock)
        audit.own(member.health, lock)

    def adopt_own_lock(name):
        def adopt(obj):
            obj._lock = audit.lock(name)
            audit.own(obj, obj._lock)
        return adopt

    _after_init(audit, sharding._ShardClient, adopt_own_lock("_ShardClient._lock"))
    _after_init(audit, faults.FaultInjector, adopt_own_lock("FaultInjector._lock"))
    audit.patch(kernels, "_native_lock", audit.lock("kernels._native_lock"))
    slots = models._CORE_SLOTS
    audit.patch(slots, "_lock", audit.lock("_CoreSlots._lock"))
    audit.own(slots, slots._lock)

    # The queue's threads must start on the audited lock: build the queue
    # stopped, swap its lock, then start it if the caller asked to.
    init = vars(server.ServingQueue)["__init__"]
    signature = inspect.signature(init)

    @functools.wraps(init)
    def audited_queue_init(queue, *args, **kwargs):
        bound = signature.bind(queue, *args, **kwargs)
        start = bound.arguments.get("start", True)
        bound.arguments["start"] = False
        init(*bound.args, **bound.kwargs)
        queue._lock = audit.lock("ServingQueue._lock")
        queue._cond = threading.Condition(queue._lock)
        core = queue._core
        for member in core.members.values():
            own_member(member, queue._lock)
        for obj in (queue, core, core.board, core.admission):
            audit.own(obj, queue._lock)
        if start:
            queue.start()

    audit.patch(server.ServingQueue, "__init__", audited_queue_init)

    add = fleet.Fleet.add

    @functools.wraps(add)
    def audited_add(core, session):
        member = add(core, session)
        lock = audit._owners.get(id(core))
        if lock is not None:
            own_member(member, lock)
        return member

    audit.patch(fleet.Fleet, "add", audited_add)

    # What the queue promises to call outside its lock, and the two calls
    # the allowlist names.
    for owner, name in (
        (InferenceSession, "forward"),
        (sharding._ShardClient, "forward"),
        (admission.ServingFuture, "_fulfill"),
        (admission.ServingFuture, "_fail"),
        (sharding._ShardClient, "_recv"),
        (kernels, "_compile_library"),
    ):
        audit.blocking(owner, name)
    for cls in _pool_classes():
        for name in ("spawn_replica", "retire_replica"):
            if name in vars(cls):
                audit.blocking(cls, name)


@contextmanager
def serving_audit() -> Iterator[LockAudit]:
    """The audit armed over the five locks in ``src/`` (see module docstring)."""
    with LockAudit(ALLOWLIST, NESTING, EXEMPT) as audit:
        _install(audit)
        yield audit
