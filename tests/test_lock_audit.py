"""The runtime lock audit (``tests/lock_audit.py``): its self-tests, one probe
per watched blocking call, serving call and guarded field, the lock
inventory of ``src/``, and one armed run that uses every allowlist entry.

The serving suites (``tests/api/test_server.py``, ``test_scheduling.py``,
``test_chaos.py``, ``test_sharding.py``, ``test_parity.py``,
``test_fleet_machine.py``) run armed
through the ``lock_audit`` fixture; this module checks the audit itself.
"""

from __future__ import annotations

import ast
import multiprocessing
import os
import queue
import subprocess
import sys
import threading
import time
import types
from multiprocessing import connection as mp_connection
from pathlib import Path

import numpy as np
import pytest

from lock_audit import GUARDED, LOCK_SITES, AuditedLock, LockAudit, serving_audit
from repro.api import BackendSpec, ServingQueue, SessionConfig, ShardedPool, faults
from repro.api.faults import FaultInjector, FaultPlan
from repro.api.scheduling import AdmissionController
from repro.api.scheduling.admission import ServingFuture
from repro.api.scheduling.fleet import Fleet, ReplicaMember
from repro.api.scheduling.resilience import ReplicaHealth
from repro.api.scheduling.stats import StatsBoard
from repro.api.server import ReplicaPool, SessionPool
from repro.api.session import InferenceSession
from repro.api.sharding import _ShardClient
from repro.api.transport import TransportIntegrityError
from repro.core import kernels
from repro.transformer import models

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"
LOCK_CONSTRUCTORS = {"Lock", "RLock", "Condition", "Semaphore", "BoundedSemaphore"}

pytestmark = pytest.mark.usefixtures("shm_ledger")  # the pool below


def test_the_audit_fails_a_test_that_breaks_each_rule(pytester):
    pytester.makeconftest((Path(__file__).parent / "conftest.py").read_text())
    pytester.makepyfile(
        """
        import time
        import pytest

        pytestmark = pytest.mark.usefixtures("lock_audit")

        class Tally:
            def __init__(self):
                self.count = 0

        def test_toy(lock_audit):
            lock_audit.guard(Tally, ["count"])
            lock = lock_audit.lock("Tally._lock")
            other = lock_audit.lock("Other._lock")
            tally = Tally()
            lock_audit.own(tally, lock)
            with lock:
                tally.count += 1  # quiet: guarded
                time.sleep(0)
                with other:
                    pass
            tally.count = 2
            with other:
                pass  # quiet: nothing else held
        """
    )
    result = pytester.runpytest("-p", "no:cacheprovider")
    result.assert_outcomes(passed=1, errors=1)
    result.stdout.fnmatch_lines([
        "*blocking-under-lock: test_toy (*) called time.sleep holding Tally._lock*",
        "*lock-order: Other._lock acquired in test_toy (*) while holding Tally._lock*",
        "*unguarded-attr: write of Tally.count in test_toy (*) without Tally._lock*",
    ])
    result.stdout.no_fnmatch_line("*read of Tally.count*")  # the guarded += is quiet


class _Tally:
    def bump(self, lock) -> None:
        with lock:
            time.sleep(0)


def test_a_stale_allowlist_entry_is_reported():
    allowlist = {("_Tally.bump", "sleep"): "used", ("_Tally.flush", "join"): "stale"}
    with LockAudit(allowlist) as audit:
        _Tally().bump(audit.lock("_Tally._lock"))
    audit.assert_clean()
    assert audit.stale_allowlist() == [("_Tally.flush", "join")]


def _started(thread_or_process):
    thread_or_process.start()
    return thread_or_process


def _popen(**kwargs):
    return subprocess.Popen([sys.executable, "-c", ""], **kwargs)


def _pipe_with_message():
    receiver, sender = multiprocessing.Pipe(duplex=False)
    sender.send(1)
    return receiver


def _queue_with_item():
    q = queue.Queue()
    q.put(1)
    return q


def _set_event():
    event = threading.Event()
    event.set()
    return event


#: One cheap call per entry of ``LockAudit.BLOCKING_CALLS``: label -> a
#: factory that prepares the call (with nothing held) and returns it.
BLOCKING_PROBES = {
    "time.sleep": lambda: lambda: time.sleep(0),
    "Thread.join": lambda: _started(threading.Thread(target=int)).join,
    "BaseProcess.join": lambda: _started(
        multiprocessing.get_context("spawn").Process(target=os.getpid)
    ).join,
    "Event.wait": lambda: _set_event().wait,
    "multiprocessing.connection.wait": lambda: (
        lambda receiver: lambda: mp_connection.wait([receiver], timeout=0)
    )(_pipe_with_message()),
    "_ConnectionBase.recv": lambda: _pipe_with_message().recv,
    "Queue.get": lambda: _queue_with_item().get,
    "subprocess.run": lambda: lambda: subprocess.run([sys.executable, "-c", ""]),
    "Popen.wait": lambda: _popen().wait,
    "Popen.communicate": lambda: _popen(stdout=subprocess.PIPE).communicate,
}


def test_every_watched_blocking_call_has_a_probe():
    labels = {
        f"{getattr(owner, '__name__', owner)}.{name}"
        for owner, name in LockAudit.BLOCKING_CALLS
    }
    assert labels == set(BLOCKING_PROBES)


@pytest.mark.parametrize("label", sorted(BLOCKING_PROBES))
def test_a_watched_blocking_call_is_reported_only_under_a_lock(label):
    probe = BLOCKING_PROBES[label]
    with LockAudit() as audit:
        lock = audit.lock("Probe._lock")
        probe()()
        audit.assert_clean()  # nothing held: quiet
        call = probe()
        with lock:
            call()
    assert any(
        f"called {label} holding Probe._lock" in message
        and "test_a_watched_blocking_call_is_reported_only_under_a_lock" in message
        for message in audit.findings
    ), audit.findings


#: What the queue promises to call outside its lock, and the two calls
#: the allowlist names; every pool class's replica lifecycle hooks.
SERVING_CALLS = [
    (InferenceSession, "forward"),
    (_ShardClient, "forward"),
    (ServingFuture, "_fulfill"),
    (ServingFuture, "_fail"),
    (_ShardClient, "_recv"),
    (kernels, "_compile_library"),
] + [
    (pool, name)
    for pool in (ReplicaPool, SessionPool, ShardedPool)
    for name in ("spawn_replica", "retire_replica")
]


class _StubPool(ReplicaPool):
    """The pool surface a queue reads, over one replica that is never called."""

    max_sequence_length = 8

    def __init__(self) -> None:
        self.config = types.SimpleNamespace(max_batch_size=1, bucket_size=1)
        self.sessions = [object()]


def _queue():
    """A queue that never starts: its lock over a one-member core."""
    return ServingQueue(_StubPool(), start=False)


@pytest.mark.parametrize(
    "owner, name", SERVING_CALLS,
    ids=[f"{owner.__name__}.{name}" for owner, name in SERVING_CALLS],
)
def test_the_serving_audit_watches_each_call_the_queue_makes_outside_its_lock(
    owner, name, monkeypatch
):
    # The audit wraps whatever the attribute holds when it is armed, so a
    # stub stands in for the real (slow, side-effecting) call.
    monkeypatch.setattr(owner, name, lambda *args, **kwargs: None)
    with serving_audit() as audit:
        serving = _queue()
        getattr(owner, name)()
        audit.assert_clean()  # nothing held: quiet
        with serving._lock:
            getattr(owner, name)()
    label = f"{owner.__name__}.{name}"
    assert any(
        f"called {label} holding ServingQueue._lock" in message
        for message in audit.findings
    ), audit.findings


def _owned_instances():
    """One instance of each class in ``GUARDED``, with the lock that owns it."""
    serving = _queue()
    core, lock = serving._core, serving._lock
    with lock:
        member = core.add(object())
    client = _ShardClient(0, None, None, 1.0)
    injector = FaultInjector(FaultPlan())
    slots = models._CORE_SLOTS
    return {
        ServingQueue: (serving, lock),
        Fleet: (core, lock),
        ReplicaMember: (member, lock),
        ReplicaHealth: (member.health, lock),
        StatsBoard: (core.board, lock),
        AdmissionController: (core.admission, lock),
        _ShardClient: (client, client._lock),
        FaultInjector: (injector, injector._lock),
        models._CoreSlots: (slots, slots._lock),
    }


GUARDED_FIELDS = [(cls, field) for cls, fields in GUARDED.items() for field in fields]


@pytest.mark.parametrize(
    "cls, field", GUARDED_FIELDS,
    ids=[f"{cls.__name__}.{field}" for cls, field in GUARDED_FIELDS],
)
def test_every_guarded_field_exists_and_is_checked(cls, field):
    # A field renamed in src/ but not in GUARDED would leave the audit
    # blind to it: reading it on a live instance fails here instead.
    with serving_audit() as audit:
        obj, lock = _owned_instances()[cls]
        with lock:
            value = getattr(obj, field)
            setattr(obj, field, value)
        audit.assert_clean()  # under its lock: quiet
        setattr(obj, field, getattr(obj, field))
    where = "test_every_guarded_field_exists_and_is_checked"
    assert sorted(
        message.split(" in ")[0]
        for message in audit.findings
        if where in message and message.endswith(f"without {lock.name}")
    ) == [
        f"unguarded-attr: read of {cls.__name__}.{field}",
        f"unguarded-attr: write of {cls.__name__}.{field}",
    ], audit.findings


def test_defunct_reads_the_broken_flag_unguarded_by_exemption_only():
    with serving_audit() as audit:
        client = _ShardClient(0, None, None, 1.0)
        with client._lock:
            client._broken = True
        assert client.defunct  # exempt: the benign-racy monitoring read
        audit.assert_clean()
        client._broken = True
    assert [message.split(" (")[0] for message in audit.findings] == [
        "unguarded-attr: write of _ShardClient._broken in "
        "test_defunct_reads_the_broken_flag_unguarded_by_exemption_only"
    ]


def _lock_constructions():
    """``(path, scope, constructor)`` for every lock built under ``src/``."""
    found = set()

    def visit(node, path, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, path, scope + [child.name])
                continue
            if isinstance(child, ast.Call):
                func = child.func
                name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")
                if name in LOCK_CONSTRUCTORS:
                    found.add((path, ".".join(scope) or "<module>", name))
            visit(child, path, scope)

    for path in sorted(SRC.rglob("*.py")):
        visit(ast.parse(path.read_text()), path.relative_to(SRC).as_posix(), [])
    return found


def test_the_locks_in_src_are_the_audited_ones():
    # A sixth lock is a deliberate diff: LOCK_SITES and serving_audit's
    # install both have to learn about it.
    assert _lock_constructions() == LOCK_SITES
    with serving_audit():
        serving = _queue()
        locks = [
            serving._lock,
            _ShardClient(0, None, None, 1.0)._lock,
            FaultInjector(FaultPlan())._lock,
            kernels._native_lock,
            models._CORE_SLOTS._lock,
        ]
        assert serving._cond._lock is serving._lock
    assert all(isinstance(lock, AuditedLock) for lock in locks)
    assert len({lock.name for lock in locks}) == 5


def test_every_allowlist_entry_is_used_by_an_armed_run(
    fast_registry, monkeypatch, tmp_path
):
    # A fresh native build (the compile under _native_lock), a shard
    # worker's handshake, one request whose ring reply the fault injector
    # corrupts (its counter lock under the client lock), one served over the
    # pipe, and the close handshake.
    if kernels._find_compiler() is None:
        pytest.skip("no C compiler on this machine")
    monkeypatch.setenv("REPRO_KERNEL_CACHE_DIR", str(tmp_path))
    monkeypatch.setattr(kernels, "_native_state", dict(kernels._native_state, tried=False))
    request = np.arange(5)
    with serving_audit() as audit:
        assert kernels._load_native_lib() is not None
        with faults.inject(FaultPlan(corrupt_response_at=1)):
            pool = ShardedPool(
                SessionConfig(model_family="tiny", compute_dtype="float64"),
                spec=BackendSpec.nn_lut(), registry=fast_registry,
                num_replicas=1, transport="shm_ring",
            )
            try:
                client = pool.sessions[0]
                with pytest.raises(TransportIntegrityError):
                    client.forward([request])
                assert client.forward([request])[0].shape[0] == request.size
            finally:
                pool.close()
    assert list(tmp_path.glob("kernels_*.so"))
    audit.assert_clean()
    assert audit.stale_allowlist() == []
    reasons = {**audit.allowlist, **audit.nesting, **audit.exempt}
    assert all(len(reason) > 40 for reason in reasons.values()), reasons
