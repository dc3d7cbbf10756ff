"""Multi-process sharded serving: wire protocol, failure modes, shm hygiene.

The tier-1 gate mirrors tests/api/test_server.py: a tiny float64 model, two
worker *processes*, mixed-length traffic; ``ShardedPool``'s per-method
bitwise parity against single-session serving lives in ``test_parity.py``.
The failure-mode tests cover a worker dying mid-service (a descriptive
error, and the pool still closes cleanly) and shared-memory blocks unlinked
on ``close()`` even when construction itself fails halfway; the
``shm_ledger`` fixture checks that no block created here outlives the
module.
"""

import dataclasses
import gc
import pickle
import threading
import time
import types
from multiprocessing import shared_memory

import numpy as np
import pytest

from repro.api import (
    BackendSpec,
    InferenceSession,
    ServerClosedError,
    ServingQueue,
    SessionConfig,
    ShardedPool,
    SharedWeightStore,
    WorkerDiedError,
    attach_weight_state,
    export_weight_state,
)
from repro.api import sharding
from repro.core.kernels import native_available
from repro.transformer.config import tiny_test_config
from repro.transformer.models import EncoderModel

pytestmark = [
    pytest.mark.usefixtures("shm_ledger"),
    pytest.mark.filterwarnings("error::ResourceWarning"),
]


@pytest.fixture(scope="module", params=["pipe", "shm_ring"])
def sharded64(request, fast_registry):
    """Two worker processes, parametrised over both worker transports.

    Every parity/dispatch/queue test in this module therefore gates the
    shared-memory ring transport bitwise against single-session serving,
    exactly like the pickle pipe.
    """
    config = SessionConfig(
        model_family="tiny", compute_dtype="float64", max_batch_size=3
    )
    pool = ShardedPool(
        config, spec=BackendSpec.nn_lut(), registry=fast_registry,
        num_replicas=2, transport=request.param,
    )
    yield pool
    pool.close()


@pytest.fixture(scope="module")
def single64(sharded64, fast_registry):
    """Single-session serving over the same frozen model (the parity oracle)."""
    return InferenceSession.from_model(
        sharded64.model, spec=sharded64.spec, registry=fast_registry,
        max_batch_size=3,
    )


@pytest.fixture(scope="module")
def mixed_requests():
    rng = np.random.default_rng(7)
    lengths = (5, 12, 5, 9, 30, 12, 7, 5, 9, 5)
    return [rng.integers(0, 100, size=length) for length in lengths]


class TestWeightState:
    def test_export_covers_every_parameter(self):
        model = EncoderModel.initialize(tiny_test_config(), seed=3)
        state = export_weight_state(model)
        assert sum(a.size for a in state.values()) == model.num_parameters()
        assert len(set(state)) == len(state)

    def test_attach_reproduces_outputs_bitwise(self, fast_registry):
        config = tiny_test_config(compute_dtype="float64")
        source = EncoderModel.initialize(config, seed=3)
        target = EncoderModel.initialize(config, seed=9)  # different weights
        tokens = np.random.default_rng(0).integers(0, 100, size=(2, 8))
        assert not np.array_equal(source.forward(tokens), target.forward(tokens))
        attach_weight_state(target, export_weight_state(source))
        assert np.array_equal(source.forward(tokens), target.forward(tokens))

    def test_attach_rejects_missing_and_mismatched(self):
        model = EncoderModel.initialize(tiny_test_config(), seed=3)
        state = export_weight_state(model)
        partial = dict(state)
        partial.pop("pooler.weight")
        with pytest.raises(ValueError, match="missing"):
            attach_weight_state(model, partial)
        bad_shape = dict(state)
        bad_shape["pooler.weight"] = np.zeros((1, 1))
        with pytest.raises(ValueError, match="shape"):
            attach_weight_state(model, bad_shape)

    def test_store_roundtrip_and_readonly(self):
        model = EncoderModel.initialize(tiny_test_config(), seed=3)
        state = export_weight_state(model)
        store = SharedWeightStore(state)
        try:
            views = store.arrays()
            assert set(views) == set(state)
            for name, array in state.items():
                assert np.array_equal(views[name], array)
                with pytest.raises(ValueError):
                    views[name][...] = 0.0
            attached, handles = SharedWeightStore.attach(store.manifest())
            assert all(
                np.array_equal(attached[name], state[name]) for name in state
            )
            for handle in handles:
                handle.close()
        finally:
            store.unlink()
        assert store.unlinked
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=store.manifest()[0][1])


class TestShardedParity:
    def test_empty_request_list(self, sharded64):
        assert sharded64.forward([]) == []
        empty = sharded64.pooled([])
        assert empty.shape == (0, sharded64.model.config.hidden_size)
        assert empty.dtype == np.float64  # the compute dtype

    @pytest.mark.parametrize("server", ["session", "sharded client"])
    def test_forward_rejects_a_budget_row_of_the_wrong_length(
        self, server, sharded64, single64, mixed_requests
    ):
        """Regression: a short ``budgets_s`` with a spent budget in it used to
        drop the requests past its end (``zip`` truncation, on both sides of
        the worker boundary)."""
        target = single64 if server == "session" else sharded64.sessions[0]
        requests = mixed_requests[:3]
        for budgets in ([0.0, None], [0.0, None, None, None]):
            with pytest.raises(ValueError, match="budgets_s has . entries for 3"):
                target.forward(requests, budgets)
        answered = target.forward(requests, [0.0, None, None])
        assert [len(rows) for rows in answered] == [0, 12, 5]

    def test_parent_model_reads_the_shared_blocks(self, sharded64):
        """One copy of the weights per machine: parent rebound onto shm."""
        shared = sharded64._store.arrays()
        state = export_weight_state(sharded64.model)
        for name, array in state.items():
            assert np.shares_memory(array, shared[name]), name
            assert not array.flags.writeable

    def test_worker_init_survives_pickling(self, sharded64):
        """What every spawned worker is started from pickles field for field."""
        init = sharded64._worker_init
        clone = pickle.loads(pickle.dumps(init))
        for fld in dataclasses.fields(init):
            if fld.name != "tables":
                assert getattr(clone, fld.name) == getattr(init, fld.name), fld.name
        assert clone.tables.keys() == init.tables.keys()
        for key, table in init.tables.items():
            shipped = clone.tables[key]
            assert (shipped.name, shipped.metadata) == (table.name, table.metadata)
            for part in ("breakpoints", "slopes", "intercepts"):
                assert np.array_equal(getattr(shipped, part), getattr(table, part))

    def test_dispatch_is_deterministic(self, sharded64, mixed_requests):
        shards = sharded64._shard(mixed_requests)
        assert shards == sharded64._shard(mixed_requests)
        served = sorted(i for shard in shards for batch in shard for i in batch)
        assert served == list(range(len(mixed_requests)))

    def test_serving_queue_runs_unchanged_on_top(
        self, sharded64, single64, mixed_requests
    ):
        """ServingQueue treats the sharded pool exactly like SessionPool."""
        oracle = single64.forward(mixed_requests)
        with ServingQueue(sharded64, max_wait_ms=5.0) as queue:
            results: list = [None] * len(mixed_requests)

            def client(i: int) -> None:
                results[i] = queue.serve_one(mixed_requests[i], timeout=120)

            threads = [
                threading.Thread(target=client, args=(i,))
                for i in range(len(mixed_requests))
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            stats = queue.stats()
        for i, result in enumerate(results):
            assert np.array_equal(result, oracle[i]), f"request {i}"
        assert stats.completed == len(mixed_requests)
        assert stats.failed == 0

    def test_calibrate_broadcasts_to_workers(self, fast_registry):
        spec = BackendSpec.nn_lut().with_calibration("layernorm")
        config = SessionConfig(model_family="tiny", compute_dtype="float64")
        rng = np.random.default_rng(6)
        samples = [rng.integers(0, 100, size=length) for length in (8, 12, 8, 16)]
        with ShardedPool(
            config, spec=spec, registry=fast_registry, num_replicas=1
        ) as pool:
            calibrated = pool.calibrate(samples)
            assert "rsqrt" in calibrated
            # The parent template serves the calibrated backend; the worker
            # must serve the exact same tables, bit for bit.
            expected = pool._template.forward(samples)
            served = pool.forward(samples)
        for i, (a, b) in enumerate(zip(served, expected)):
            assert np.array_equal(a, b), f"sample {i}"


class _FakeTransport:
    """Client-side channel stub: records what the client sends."""

    def __init__(self):
        self.sent = []

    def send(self, op, payload):
        self.sent.append((op, payload))

    def close(self):
        pass


class _FakeProcess:
    pid = 4242
    exitcode = None
    alive = True

    def is_alive(self):
        return self.alive

    def join(self, timeout=None):
        self.alive = False  # the worker exits once the client hangs up


class _ScriptedEndpoint:
    """Worker-side channel stub: replays requests, records replies."""

    def __init__(self, requests):
        self._requests = list(requests)
        self.replies = []

    def recv(self):
        if not self._requests:
            raise EOFError
        return self._requests.pop(0)

    def send(self, status, value):
        self.replies.append((status, value))

    def begin_packed_response(self, lengths, trailing, dtype):
        return None  # no response ring: the generic reply path

    def close(self):
        pass


def _client(status="ok", value=None):
    """A shard client over stubs whose every wait returns ``(status, value)``."""
    client = sharding._ShardClient(0, _FakeProcess(), _FakeTransport(), 1.0)
    client._recv = lambda timeout_s, context: (status, value)
    return client


def _run_worker(monkeypatch, requests, session=None):
    """``_worker_main`` over a scripted endpoint: the replies it sent.

    ``session=None`` makes the worker's session build fail.
    """

    def build(init):
        if session is None:
            raise RuntimeError("session build failed")
        return session, []

    monkeypatch.setattr(sharding, "_build_worker_session", build)
    endpoint = _ScriptedEndpoint(requests)
    # With the build stubbed, the only field the worker reads is fault_plan.
    sharding._worker_main(endpoint, types.SimpleNamespace(fault_plan=None))
    return endpoint.replies


class TestWireProtocol:
    """Both directions of the parent <-> worker protocol, run for real.

    Every op the client sends is replayed into ``_worker_main`` and must
    reach a handler; every status the worker sends is fed back to the
    client and must be one it handles.  Only the channel is stubbed.
    """

    #: One call per public ``_ShardClient`` method: what drives each op.
    CLIENT_CALLS = {
        "forward": lambda c: c.forward([np.arange(5), np.arange(3)], [None, 1.0]),
        "apply_lut_overrides": lambda c: c.apply_lut_overrides({}),
        "wait_ready": lambda c: c.wait_ready(1.0),
        "shutdown": lambda c: c.shutdown(1.0),
    }

    @pytest.fixture(scope="class")
    def worker_session(self, fast_registry):
        return InferenceSession(
            SessionConfig(model_family="tiny", compute_dtype="float64"),
            spec=BackendSpec.nn_lut(),
            registry=fast_registry,
        )

    def _sent_by_client(self):
        public = {
            name
            for name, member in vars(sharding._ShardClient).items()
            if callable(member) and not name.startswith("_")
        }
        assert public == set(self.CLIENT_CALLS)
        sent = []
        for name, call in self.CLIENT_CALLS.items():
            client = _client("ready" if name == "wait_ready" else "ok")
            call(client)
            sent += client.transport.sent
        return sent

    def test_every_op_the_client_sends_reaches_a_worker_handler(
        self, monkeypatch, worker_session
    ):
        sent = self._sent_by_client()
        assert {op for op, _ in sent} == {"forward", "apply_lut_overrides", "close"}
        # "close" ends the worker loop, so it is replayed last.
        sent.sort(key=lambda message: message[0] == "close")
        replies = _run_worker(monkeypatch, sent, worker_session)
        assert replies[0] == ("ready", None)
        for (op, _), (status, value) in zip(sent, replies[1:], strict=True):
            assert status == "ok", f"{op!r} was answered {status!r}: {value}"

    def test_every_status_the_worker_sends_is_one_the_client_handles(
        self, monkeypatch, worker_session
    ):
        too_long = np.zeros(worker_session.max_sequence_length + 1, dtype=np.int64)
        requests = [
            ("forward", [np.arange(5), np.asarray([-1], dtype=np.int64)]),
            ("forward", [too_long, np.asarray([-1], dtype=np.int64)]),
        ]
        served = _run_worker(monkeypatch, requests, worker_session)
        failed_init = _run_worker(monkeypatch, requests, session=None)
        # Every status the worker has, in both phases: ready / error while
        # starting, ok / error while serving.
        assert [status for status, _ in served] == ["ready", "ok", "error"]
        assert [status for status, _ in failed_init] == ["error"]
        for status, value in [served[0], failed_init[0]]:
            self._assert_handled(lambda: _client(status, value).wait_ready(1.0))
        for status, value in served[1:]:
            self._assert_handled(lambda: _client(status, value)._call("forward", None))

    def test_an_op_without_a_worker_arm_is_answered_with_an_error(
        self, monkeypatch, worker_session
    ):
        # What the first test above reports when a client op loses its arm.
        replies = _run_worker(monkeypatch, [("apply_overrides", {})], worker_session)
        status, value = replies[1]
        assert status == "error" and "unknown shard worker op 'apply_overrides'" in value

    @staticmethod
    def _assert_handled(call):
        try:
            call()
        except RuntimeError as exc:
            assert "unexpected status" not in str(exc), exc

    def test_error_status_carries_the_worker_traceback(self):
        client = _client("error", "Traceback: boom")
        with pytest.raises(RuntimeError, match=r"raised while serving 'ping'"):
            client._call("ping", None)

    def test_unexpected_status_is_reported_as_protocol_drift(self):
        # A desynchronised channel must not present its payload as a worker
        # traceback — the status word itself is the diagnostic.
        client = _client("gibberish", None)
        with pytest.raises(RuntimeError, match=r"unexpected status 'gibberish'"):
            client._call("ping", None)

    def test_wait_ready_rejects_non_init_status(self):
        client = _client("ok", None)
        with pytest.raises(RuntimeError, match=r"unexpected status 'ok'"):
            client.wait_ready(1.0)


class TestShardedFailureModes:
    def test_rejects_bad_replica_count(self, fast_registry):
        with pytest.raises(ValueError, match="num_replicas"):
            ShardedPool(
                SessionConfig(model_family="tiny"),
                registry=fast_registry,
                num_replicas=0,
            )

    def test_worker_death_mid_service(self, fast_registry, mixed_requests):
        config = SessionConfig(
            model_family="tiny", compute_dtype="float64", max_batch_size=3
        )
        pool = ShardedPool(
            config, spec=BackendSpec.nn_lut(), registry=fast_registry,
            num_replicas=2,
        )
        try:
            victim = pool.sessions[1]
            victim.process.kill()
            victim.process.join(10)
            with pytest.raises(WorkerDiedError, match="shard worker 1"):
                pool.forward(mixed_requests)
            # The surviving replica keeps serving direct traffic.
            survivor = pool.sessions[0]
            result = survivor.forward(mixed_requests[:2])
            assert [r.shape[0] for r in result] == [
                r.size for r in mixed_requests[:2]
            ]
            manifest = pool._store.manifest()
        finally:
            pool.close()
        # close() after a worker death still unlinks every block.
        for _, shm_name, _, _ in manifest:
            with pytest.raises(FileNotFoundError):
                shared_memory.SharedMemory(name=shm_name)
        with pytest.raises(RuntimeError, match="closed"):
            pool.forward(mixed_requests[:1])

    def test_healthy_replica_keeps_serving_the_queue_after_a_death(
        self, fast_registry, mixed_requests
    ):
        # Regression: the queue worker thread bound to a dead replica kept
        # popping batches from the shared queue and failing them instantly,
        # outracing (and starving) the healthy replica.  It must stop
        # consuming once its replica is defunct.
        config = SessionConfig(
            model_family="tiny", compute_dtype="float64", max_batch_size=3
        )
        pool = ShardedPool(
            config, spec=BackendSpec.nn_lut(), registry=fast_registry,
            num_replicas=2,
        )
        try:
            pool.sessions[1].process.kill()
            pool.sessions[1].process.join(10)
            assert pool.sessions[1].defunct
            failures = successes = 0
            with ServingQueue(pool, max_wait_ms=0.0) as queue:
                for _ in range(4):
                    try:
                        queue.serve_one(mixed_requests[0], timeout=60)
                        successes += 1
                    except WorkerDiedError:
                        failures += 1
            # The dead replica's thread fails at most the one batch it pops
            # before exiting; everything after is served by the survivor.
            assert failures <= 1 and successes >= 3
        finally:
            pool.close()

    def test_queue_futures_fail_descriptively_on_worker_death(
        self, fast_registry, mixed_requests
    ):
        config = SessionConfig(
            model_family="tiny", compute_dtype="float64", max_batch_size=3
        )
        pool = ShardedPool(
            config, spec=BackendSpec.nn_lut(), registry=fast_registry,
            num_replicas=1,
        )
        try:
            pool.sessions[0].process.kill()
            pool.sessions[0].process.join(10)
            with ServingQueue(pool, max_wait_ms=0.0) as queue:
                future = queue.submit(mixed_requests[0])
                with pytest.raises(WorkerDiedError, match="shard worker 0"):
                    future.result(timeout=30)
                assert queue.stats().failed == 1
                # With its whole fleet dead, the queue must fail fast rather
                # than silently accept requests nothing will ever serve.
                deadline = time.monotonic() + 10
                while True:
                    try:
                        late = queue.submit(mixed_requests[0])
                    except ServerClosedError:
                        break  # queue closed itself
                    with pytest.raises((WorkerDiedError, ServerClosedError)):
                        late.result(timeout=30)
                    assert time.monotonic() < deadline, (
                        "queue never closed itself after its last replica died"
                    )
        finally:
            pool.close()

    def test_close_restores_private_writable_weights(self, fast_registry):
        # Regression: close() left an adopted model rebound onto read-only
        # (and by then unlinked) shared-memory views, breaking later
        # in-place weight edits the caller is entitled to make.
        model = EncoderModel.initialize(
            tiny_test_config(compute_dtype="float64"), seed=3
        )
        before = {
            name: array.copy()
            for name, array in export_weight_state(model).items()
        }
        pool = ShardedPool.from_model(
            model, spec=BackendSpec.nn_lut(), registry=fast_registry,
            num_replicas=1,
        )
        assert not model.pooler.weight.flags.writeable  # serving off shm
        pool.close()
        after = export_weight_state(model)
        for name, array in after.items():
            assert array.flags.writeable, name
            assert np.array_equal(array, before[name]), name
        model.pooler.weight[0, 0] += 1.0  # in-place edits work again

    def test_gc_without_close_restores_weights_and_unlinks(self, fast_registry):
        # The GC safety net must do everything close() does to the shared
        # resources: a caller who drops the pool still gets their model's
        # private writable weights back, and the shm names must not leak.
        model = EncoderModel.initialize(
            tiny_test_config(compute_dtype="float64"), seed=3
        )
        pool = ShardedPool.from_model(
            model, spec=BackendSpec.nn_lut(), registry=fast_registry,
            num_replicas=1,
        )
        manifest = pool._store.manifest()
        process = pool.sessions[0].process
        assert not model.pooler.weight.flags.writeable
        del pool
        gc.collect()
        assert model.pooler.weight.flags.writeable
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=manifest[0][1])
        process.join(10)  # the worker exits on pipe EOF
        assert not process.is_alive()

    def test_calibrate_on_closed_pool_raises_before_refitting(
        self, fast_registry
    ):
        spec = BackendSpec.nn_lut().with_calibration("layernorm")
        pool = ShardedPool(
            SessionConfig(model_family="tiny", compute_dtype="float64"),
            spec=spec, registry=fast_registry, num_replicas=1,
        )
        pool.close()
        with pytest.raises(RuntimeError, match="closed"):
            pool.calibrate([np.arange(4)])

    def test_construction_failure_unlinks_shared_memory(
        self, fast_registry, monkeypatch
    ):
        stores = []
        real_store = sharding.SharedWeightStore

        class SpyStore(real_store):
            def __init__(self, arrays):
                super().__init__(arrays)
                stores.append(self)

        def exploding_wait_ready(self, timeout_s):
            raise RuntimeError("boom: simulated worker init failure")

        monkeypatch.setattr(sharding, "SharedWeightStore", SpyStore)
        monkeypatch.setattr(sharding._ShardClient, "wait_ready", exploding_wait_ready)
        with pytest.raises(RuntimeError, match="boom"):
            ShardedPool(
                SessionConfig(model_family="tiny", compute_dtype="float64"),
                spec=BackendSpec.nn_lut(),
                registry=fast_registry,
                num_replicas=1,
            )
        (store,) = stores
        assert store.unlinked
        for _, shm_name, _, _ in store.manifest():
            with pytest.raises(FileNotFoundError):
                shared_memory.SharedMemory(name=shm_name)


class TestWorkerTransports:
    """The transport seam: knob validation, ring routing, degradation."""

    def test_unknown_transport_rejected_before_spawning(self, fast_registry):
        with pytest.raises(ValueError, match="carrier_pigeon"):
            ShardedPool(
                SessionConfig(model_family="tiny"),
                registry=fast_registry,
                transport="carrier_pigeon",
            )

    def test_negative_ring_bytes_rejected(self, fast_registry):
        with pytest.raises(ValueError, match="ring_bytes"):
            ShardedPool(
                SessionConfig(model_family="tiny"),
                registry=fast_registry,
                transport="shm_ring",
                ring_bytes=-1,
            )

    def test_hot_path_routes_through_the_rings(self, sharded64, mixed_requests):
        if sharded64.transport_name != "shm_ring":
            pytest.skip("ring-routing stats only exist on the shm transport")
        before = [dict(c.transport.stats) for c in sharded64.sessions]
        sharded64.forward(mixed_requests)
        for client, b in zip(sharded64.sessions, before):
            stats = client.transport.stats
            sent = stats["ring_requests"] - b["ring_requests"]
            answered = stats["ring_responses"] - b["ring_responses"]
            assert sent >= 1, "forward batches should ride the request ring"
            assert answered == sent, "every ring request got a ring response"
            assert stats["pipe_requests"] == b["pipe_requests"]

    def test_pipe_pool_allocates_no_rings(self, sharded64):
        # "pipe" is the same transport at zero ring capacity: nothing to
        # allocate, every message pickled.  "shm_ring" owns a pair per worker.
        rings = 0 if sharded64.transport_name == "pipe" else 2
        for client in sharded64.sessions:
            assert len(client.transport.shm_names()) == rings
            if not rings:
                assert client.transport.stats["ring_requests"] == 0

    def test_capacity_overflow_falls_back_to_pipe_bitwise(
        self, fast_registry, mixed_requests
    ):
        # Rings too small for any batch: the transport must degrade to the
        # pickle pipe — same results, no error, routing visible in stats.
        config = SessionConfig(
            model_family="tiny", compute_dtype="float64", max_batch_size=3
        )
        with ShardedPool(
            config, spec=BackendSpec.nn_lut(), registry=fast_registry,
            num_replicas=1, transport="shm_ring", ring_bytes=16,
        ) as pool:
            single = InferenceSession.from_model(
                pool.model, spec=pool.spec, registry=fast_registry,
                max_batch_size=3,
            )
            served = pool.forward(mixed_requests)
            oracle = single.forward(mixed_requests)
            for i, (a, b) in enumerate(zip(served, oracle)):
                assert np.array_equal(a, b), f"request {i}"
            stats = pool.sessions[0].transport.stats
            assert stats["ring_requests"] == 0
            assert stats["pipe_requests"] >= 1

    def test_worker_death_releases_slots_and_close_unlinks_rings(
        self, fast_registry, mixed_requests
    ):
        config = SessionConfig(
            model_family="tiny", compute_dtype="float64", max_batch_size=3
        )
        pool = ShardedPool(
            config, spec=BackendSpec.nn_lut(), registry=fast_registry,
            num_replicas=2, transport="shm_ring",
        )
        try:
            ring_names = [
                name
                for client in pool.sessions
                for name in client.transport.shm_names()
            ]
            assert len(ring_names) == 4  # request+response ring per worker
            victim = pool.sessions[1]
            victim.process.kill()
            victim.process.join(10)
            with pytest.raises(WorkerDiedError, match="shard worker 1"):
                pool.forward(mixed_requests)
        finally:
            pool.close()
        # close() unlinks the ring blocks (alongside the weight blocks),
        # dead worker or not.
        for name in ring_names:
            with pytest.raises(FileNotFoundError):
                shared_memory.SharedMemory(name=name)

    def test_replica_churn_does_not_accumulate_transports(self, fast_registry):
        # Autoscaler churn: every retired worker's transport must leave the
        # list the GC finalizer holds, and its rings must be gone at once —
        # not at pool close.
        config = SessionConfig(model_family="tiny", compute_dtype="float64")
        with ShardedPool(
            config, spec=BackendSpec.nn_lut(), registry=fast_registry,
            num_replicas=1, transport="shm_ring",
        ) as pool:
            retired_rings = []
            for _ in range(3):
                client = pool.spawn_replica()
                retired_rings += client.transport.shm_names()
                pool.retire_replica(client)
                assert len(pool._transports) == pool.num_replicas == 1
            assert len(retired_rings) == 6
            for name in retired_rings:
                with pytest.raises(FileNotFoundError):
                    shared_memory.SharedMemory(name=name)
            assert pool._transports == [pool.sessions[0].transport]

    def test_gc_without_close_unlinks_rings(self, fast_registry):
        # The GC safety net must reap the ring blocks exactly like the
        # weight blocks: dropping a pool without close() leaks nothing.
        model = EncoderModel.initialize(
            tiny_test_config(compute_dtype="float64"), seed=3
        )
        pool = ShardedPool.from_model(
            model, spec=BackendSpec.nn_lut(), registry=fast_registry,
            num_replicas=1, transport="shm_ring",
        )
        names = pool.sessions[0].transport.shm_names()
        process = pool.sessions[0].process
        del pool
        gc.collect()
        for name in names:
            with pytest.raises(FileNotFoundError):
                shared_memory.SharedMemory(name=name)
        process.join(10)  # the worker exits on pipe EOF
        assert not process.is_alive()


class TestNativeKernelSharding:
    """The compiled-kernel knob survives the config round trip into workers.

    ``SessionConfig(kernel="native")`` must reach every spawned replica
    through the serialized session config and still serve
    bitwise-identically to the parent template session — on both worker
    transports.
    """

    @pytest.mark.skipif(
        not native_available(), reason="compiled native kernel unavailable"
    )
    @pytest.mark.parametrize("transport", ["pipe", "shm_ring"])
    def test_sharded_native_parity(self, transport, fast_registry, mixed_requests):
        config = SessionConfig(
            model_family="tiny", compute_dtype="float64", max_batch_size=3,
            kernel="native",
        )
        pool = ShardedPool(
            config, spec=BackendSpec.nn_lut(), registry=fast_registry,
            num_replicas=2, transport=transport,
        )
        try:
            # The session knob is the engine's one kernel setting: it feeds
            # the model config every replica rebuilds from.
            assert pool.model.config.kernel == "native"
            oracle = InferenceSession.from_model(
                pool.model, spec=pool.spec, registry=fast_registry,
                max_batch_size=3,
            )
            sharded = pool.forward(mixed_requests)
            single = oracle.forward(mixed_requests)
            for i, (a, b) in enumerate(zip(sharded, single)):
                assert np.array_equal(a, b), f"request {i}"
            assert np.array_equal(
                pool.pooled(mixed_requests), oracle.pooled(mixed_requests)
            )
        finally:
            pool.close()
