"""Float64 parity of every public serving entry point, found by ``inspect``.

The serving surface is every concrete :class:`ReplicaPool` subclass plus
:class:`InferenceSession` and :class:`ServingQueue`; its entry points are
the ``forward`` / ``forward_packed`` / ``pooled`` / ``serve`` / ``serve_one``
methods each class defines or inherits.  Every one of them runs in
:data:`CASES` against the per-call oracle — one single-session call per
request under ``compute_dtype="float64"`` — and must match it bitwise.
A new pool class, or a new entry point on an old one, fails
:func:`test_every_serving_entry_point_has_a_parity_case` until it is added
here.
"""

import threading

import numpy as np
import pytest

from repro.api import (
    BackendSpec,
    InferenceSession,
    ReplicaPool,
    ServingQueue,
    SessionConfig,
    SessionPool,
    ShardedPool,
)

pytestmark = pytest.mark.usefixtures("lock_audit", "shm_ledger")

CONFIG = SessionConfig(model_family="tiny", compute_dtype="float64", max_batch_size=3)
SPEC = BackendSpec.nn_lut()

#: How each server under test is built; every one builds its own model from
#: CONFIG, so all of them (and the oracle) hold the same weights.
SERVERS = {
    "InferenceSession": lambda registry: InferenceSession(
        CONFIG, spec=SPEC, registry=registry
    ),
    "SessionPool": lambda registry: SessionPool(
        CONFIG, spec=SPEC, registry=registry, num_replicas=2
    ),
    "ShardedPool[pipe]": lambda registry: ShardedPool(
        CONFIG, spec=SPEC, registry=registry, num_replicas=2, transport="pipe"
    ),
    "ShardedPool[shm_ring]": lambda registry: ShardedPool(
        CONFIG, spec=SPEC, registry=registry, num_replicas=2, transport="shm_ring"
    ),
    "ServingQueue": lambda registry: ServingQueue(
        SessionPool(CONFIG, spec=SPEC, registry=registry, num_replicas=2),
        max_wait_ms=5.0,
    ),
}


def _packed(server, requests):
    lengths, flat = server.forward_packed(requests)
    return np.split(flat, np.cumsum(lengths)[:-1])


def _serve_one_from_threads(queue, requests):
    results = [None] * len(requests)

    def client(i):
        results[i] = queue.serve_one(requests[i], timeout=60)

    threads = [threading.Thread(target=client, args=(i,)) for i in range(len(requests))]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return results


#: method -> (served results for the whole list, the oracle for one request)
RUNNERS = {
    "forward": (
        lambda server, requests: server.forward(requests),
        lambda oracle, request: oracle.forward([request])[0],
    ),
    "forward_packed": (
        _packed,
        lambda oracle, request: oracle.forward([request])[0],
    ),
    "pooled": (
        lambda server, requests: list(server.pooled(requests)),
        lambda oracle, request: oracle.pooled([request])[0],
    ),
    "serve": (
        lambda queue, requests: queue.serve(requests, timeout=60),
        lambda oracle, request: oracle.forward([request])[0],
    ),
    "serve_one": (
        _serve_one_from_threads,
        lambda oracle, request: oracle.forward([request])[0],
    ),
}
SERVING_METHODS = tuple(RUNNERS)

CASES = [
    (server, method)
    for server, methods in {
        "InferenceSession": ("forward", "forward_packed", "pooled"),
        "SessionPool": ("forward", "pooled"),
        "ShardedPool[pipe]": ("forward", "pooled"),
        "ShardedPool[shm_ring]": ("forward", "pooled"),
        "ServingQueue": ("serve", "serve_one"),
    }.items()
    for method in methods
]


def serving_classes():
    """Every concrete serving class: the package's ReplicaPool subclasses
    (recursively), InferenceSession and ServingQueue."""
    classes = [InferenceSession, ServingQueue]
    stack = [ReplicaPool]
    while stack:
        for sub in stack.pop().__subclasses__():
            if sub.__module__.startswith("repro."):
                classes.append(sub)
                stack.append(sub)
    return classes


def entry_points():
    """(class name, method) for every serving method a class defines or inherits."""
    return {
        (cls.__name__, method)
        for cls in serving_classes()
        for method in SERVING_METHODS
        if callable(getattr(cls, method, None))
    }


def uncovered(cases):
    """Entry points no case in ``cases`` runs."""
    covered = {(server.split("[")[0], method) for server, method in cases}
    return entry_points() - covered


def test_every_serving_entry_point_has_a_parity_case():
    assert {cls.__name__ for cls in serving_classes()} == {
        "InferenceSession", "ServingQueue", "SessionPool", "ShardedPool",
    }
    assert uncovered(CASES) == set()


def test_an_entry_point_left_out_is_reported():
    # The defect this registry exists for: a pool entry point shipped with
    # no parity test of its own.
    without = [case for case in CASES if case[1] != "pooled" or "Sharded" not in case[0]]
    assert uncovered(without) == {("ShardedPool", "pooled")}


@pytest.fixture(scope="module")
def mixed_requests():
    rng = np.random.default_rng(7)
    lengths = (5, 12, 5, 9, 30, 12, 7, 5, 9, 5)
    return [rng.integers(0, 100, size=length) for length in lengths]


@pytest.fixture(scope="module")
def oracle(fast_registry):
    return InferenceSession(CONFIG, spec=SPEC, registry=fast_registry)


@pytest.fixture(scope="module")
def server(request, fast_registry):
    built = SERVERS[request.param](fast_registry)
    yield built
    close = getattr(built, "close", None)
    if close is not None:
        close()


@pytest.mark.parametrize(
    "server, method", CASES, indirect=["server"], ids=[".".join(c) for c in CASES]
)
def test_float64_parity_with_per_call_serving(server, method, oracle, mixed_requests):
    run, per_call = RUNNERS[method]
    served = run(server, mixed_requests)
    assert len(served) == len(mixed_requests)
    for i, request in enumerate(mixed_requests):
        expected = per_call(oracle, request)
        assert np.array_equal(served[i], expected), f"request {i}"
