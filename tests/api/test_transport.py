"""Worker-transport tests: ring codec, frame fuzzing, the one envelope.

The ring codec tests run in-process against :class:`_ShmRing` directly.  The
round-trip tests serve ``transport.endpoint()`` from a thread of the test
process — the same pipe and rings a worker process would use, no model.  A
property test sends generated envelope bodies both ways at both capacities
(``0`` is what ``ShardedPool(transport="pipe")`` builds), and hand-picked
cases cover the degradation paths: payloads beyond the preallocated ring
capacity fall back to the pickle pipe in either direction.  What only a real
process can show (worker death, unlink after it) lives in
``test_sharding.py::TestWorkerTransports``.
"""

import multiprocessing
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.api.transport import (
    _HEADER_BYTES,
    _KIND_RAGGED,
    TransportError,
    TransportIntegrityError,
    WorkerTransport,
    _frame_bytes,
    _ShmRing,
)

pytestmark = [
    pytest.mark.usefixtures("shm_ledger"),
    pytest.mark.filterwarnings("error::ResourceWarning"),
]


class TestShmRingCodec:
    def _ring(self, payload_bytes=4096):
        return _ShmRing.create(payload_bytes)

    def test_ragged_1d_roundtrip(self):
        ring = self._ring()
        try:
            items = [np.arange(5, dtype=np.int64), np.arange(9, dtype=np.int64)]
            assert ring.try_encode(items, seq=3)
            decoded = ring.decode(3, copy=True)
            assert all(np.array_equal(a, b) for a, b in zip(decoded, items))
            views = ring.decode(3, copy=False)
            assert not views[0].flags.writeable
        finally:
            ring.unlink()
            ring.close()

    def test_ragged_rows_roundtrip(self):
        ring = self._ring()
        try:
            rng = np.random.default_rng(0)
            items = [
                rng.normal(size=(4, 3)).astype(np.float32),
                rng.normal(size=(2, 3)).astype(np.float32),
            ]
            assert ring.try_encode(items, seq=1)
            decoded = ring.decode(1, copy=True)
            assert all(
                a.dtype == b.dtype and np.array_equal(a, b)
                for a, b in zip(decoded, items)
            )
        finally:
            ring.unlink()
            ring.close()

    def test_corrupt_payload_byte_raises_integrity_error(self):
        # A single flipped payload byte — what FaultInjector.on_ring_response
        # does — must surface as TransportIntegrityError, not bad data.
        ring = self._ring()
        try:
            items = [np.arange(7, dtype=np.int64), np.arange(4, dtype=np.int64)]
            assert ring.try_encode(items, seq=11)
            ring.decode(11, copy=True)  # sealed frame verifies clean
            # salt 5 flips a byte in the ragged lengths prefix (implausible
            # header); salt 40 flips token data (checksum mismatch) — both
            # must surface as the typed integrity error.
            ring.corrupt_payload(salt=40)
            with pytest.raises(TransportIntegrityError, match="checksum"):
                ring.decode(11, copy=True)
            assert ring.try_encode(items, seq=12)
            ring.corrupt_payload(salt=5)
            with pytest.raises(TransportIntegrityError, match="corrupt"):
                ring.decode(12, copy=True)
        finally:
            ring.unlink()
            ring.close()

    def test_corrupt_header_raises_integrity_error(self):
        # An implausible header (e.g. a dtype code no encoder writes) is
        # caught before the payload is even touched.
        ring = self._ring()
        try:
            assert ring.try_encode([np.arange(6, dtype=np.float64)], seq=4)
            ring._header()[3] = 99  # no such dtype code
            with pytest.raises(TransportIntegrityError, match="impossible"):
                ring.decode(4, copy=True)
        finally:
            ring.unlink()
            ring.close()

    def test_rejects_unsupported_and_oversized(self):
        ring = self._ring(payload_bytes=64)
        try:
            assert not ring.try_encode({"not": "packable"}, seq=1)
            assert not ring.try_encode([], seq=1)
            # A frame is always ragged rows: a bare array takes the pipe.
            assert not ring.try_encode(np.arange(4, dtype=np.int64), seq=1)
            assert not ring.try_encode(
                [np.array(["a", "b"])], seq=1
            )  # unsupported dtype
            # An envelope carries int64 ids, float32/float64 rows: no int32.
            assert not ring.try_encode([np.arange(3, dtype=np.int32)], seq=1)
            # (n, 0) row blocks would be header-ambiguous with 1-D items.
            assert not ring.try_encode([np.empty((3, 0)), np.empty((2, 0))], seq=1)
            assert not ring.try_encode([np.arange(100, dtype=np.int64)], seq=1)
        finally:
            ring.unlink()
            ring.close()

    def test_stale_seq_raises(self):
        ring = self._ring()
        try:
            assert ring.try_encode([np.arange(3, dtype=np.int64)], seq=5)
            with pytest.raises(TransportError, match="seq"):
                ring.decode(6, copy=True)
        finally:
            ring.unlink()
            ring.close()


_RING_DTYPES = [np.dtype(code) for code in ("<i8", "<f4", "<f8")]
_FUZZ_CAPACITY = 1024
_INT64 = st.integers(-(2**63), 2**63 - 1)


@st.composite
def _payloads(draw):
    """A ring-packable payload: a ragged batch of 1-D items or row blocks."""
    dtype = draw(st.sampled_from(_RING_DTYPES))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def block(shape):
        return np.asarray(rng.integers(-100, 100, size=shape)).astype(dtype)

    trailing = draw(st.integers(0, 4))  # 0 = 1-D items
    lengths = draw(st.lists(st.integers(0, 5), min_size=1, max_size=4))
    return [block((n, trailing) if trailing else (n,)) for n in lengths]


#: One corruption: header slots overwritten (small values are the plausible
#: kind/count/dtype codes, the full range everything else), one payload
#: byte XOR-ed with a non-zero mask, or the kind slot set to anything but
#: ragged *and the frame re-sealed* — a checksum-valid frame of a kind the
#: ring does not have.
_corruptions = st.one_of(
    st.tuples(
        st.just("resealed_kind"),
        st.one_of(st.integers(-2, 9), _INT64).filter(lambda k: k != _KIND_RAGGED),
    ),
    st.tuples(
        st.just("header"),
        st.dictionaries(
            st.integers(0, 15), st.one_of(st.integers(-2, 9), _INT64),
            min_size=1, max_size=2,
        ),
    ),
    st.tuples(
        st.just("payload"),
        st.tuples(st.integers(0, _FUZZ_CAPACITY - 1), st.integers(1, 255)),
    ),
)


def _blocks(payload):
    return [(b.dtype, b.shape, b.tobytes()) for b in payload]


# The corruptions a payload-only CRC let through: each keeps the payload
# byte count, so the frame verified and decoded as another tensor.
@example(  # dtype code <i8 -> <f8: float64 blocks of denormals
    [np.arange(6, dtype=np.int64).reshape(2, 3)], ("header", {3: 5})
)
@example(  # trailing 0 -> 1 on 1-D items: (n, 1) blocks
    [np.arange(4, dtype=np.int64), np.arange(2, dtype=np.int64)],
    ("header", {4: 1}),
)
@example(  # kind 2 was the single-array frame: a sealed one is now corrupt
    [np.arange(6, dtype=np.int64).reshape(2, 3)], ("resealed_kind", 2)
)
@settings(max_examples=200, deadline=None)
@given(_payloads(), _corruptions)
def test_corrupted_frame_decodes_to_the_original_or_a_typed_error(
    payload, corruption
):
    # The transport's contract under corruption: the correct tensor or a
    # TransportError — never another tensor, never IndexError/ValueError —
    # and a header kind other than ragged is always the integrity error,
    # checksum-valid or not: there is no other frame to decode it as.
    ring = _ShmRing.create(_FUZZ_CAPACITY)
    try:
        assert ring.try_encode(payload, seq=1)
        kind, detail = corruption
        if kind == "header":
            for slot, value in detail.items():
                ring._header()[slot] = value
        elif kind == "payload":
            offset, mask = detail
            ring._shm.buf[_HEADER_BYTES + offset] ^= mask
        else:
            ring._header()[1] = detail
            ring.seal()
        if int(ring._header()[0]) == 1 and int(ring._header()[1]) != _KIND_RAGGED:
            with pytest.raises(TransportIntegrityError):
                ring.decode(1, copy=True)
            return
        try:
            decoded = ring.decode(1, copy=True)
        except TransportError:
            return
        assert type(decoded) is list
        assert _blocks(decoded) == _blocks(payload)
    finally:
        ring.unlink()
        ring.close()


# --------------------------------------------------------------------------- #
# Round trips: transport.endpoint() served from a thread, same pipe + rings
# --------------------------------------------------------------------------- #
ROWS, MAX_LEN, HIDDEN = 3, 6, 4
#: The ring capacity sized for the generated bodies, as ShardedPool sizes its
#: rings: the largest is a float64 reply of ROWS maximum-length row blocks.
SIZED = _frame_bytes([MAX_LEN] * ROWS, HIDDEN, 8)
CAPACITIES = pytest.mark.parametrize("capacity", [0, SIZED], ids=["pipe", "shm_ring"])


def _rows(tokens):
    """The serving-shaped answer to one request: a (length, HIDDEN) block."""
    return np.repeat(tokens[:, None], HIDDEN, axis=1).astype(np.float64)


def _echo_serve(endpoint):
    """The shape of ``_worker_main``'s loop with the model left out.

    ``"rows"`` answers each token row with its row block, as ``forward``
    does; ``"echo"`` answers with the payload itself; ``"stale"`` echoes it
    stamped with the previous request's sequence number.
    """
    try:
        while True:
            try:
                op, payload = endpoint.recv()
            except (EOFError, OSError):
                return
            if op == "close":
                endpoint.send("ok", None)
                return
            if op == "stale":
                endpoint._seq -= 1
            endpoint.send(
                "ok", [_rows(t) for t in payload] if op == "rows" else payload
            )
    finally:
        endpoint.close()


def _serve(request_bytes, response_bytes):
    transport = WorkerTransport(multiprocessing, request_bytes, response_bytes)
    thread = threading.Thread(
        target=_echo_serve, args=(transport.endpoint(),), daemon=True
    )
    thread.start()
    return transport, thread


def _shutdown(transport, thread):
    """Close handshake first, so the serving thread never blocks on a pipe
    end that ``transport.close()`` shuts under it."""
    transport.send("close", None)
    assert transport.recv() == ("ok", None)
    thread.join(10)
    assert not thread.is_alive()
    transport.close()


def _call(transport, op, payload):
    transport.send(op, payload)
    assert transport.poll(60)
    status, value = transport.recv()
    assert status == "ok"
    return value


TOKENS = [np.arange(6, dtype=np.int64), np.arange(11, dtype=np.int64)]


@st.composite
def _bodies(draw):
    """One envelope body of every kind the serving path sends: a forward
    request (int64 token rows plus the int64 budget row), a reply of
    float32 / float64 row blocks (zero-row blocks are expired requests),
    or a control dict."""
    kind = draw(st.sampled_from(["forward", "float32", "float64", "control"]))
    if kind == "control":
        return draw(st.dictionaries(
            st.text(max_size=8), st.none() | st.integers(), max_size=3
        ))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = draw(st.integers(1, ROWS))
    if kind == "forward":
        tokens = [
            rng.integers(0, 100, size=draw(st.integers(1, MAX_LEN)))
            for _ in range(rows)
        ]
        budgets = draw(st.lists(
            st.integers(-1, 2**62), min_size=rows, max_size=rows
        ))
        return tokens + [np.asarray(budgets, dtype=np.int64)]
    return [
        rng.standard_normal((draw(st.integers(0, MAX_LEN)), HIDDEN)).astype(kind)
        for _ in range(rows)
    ]


@pytest.fixture(scope="module")
def echo_transports(shm_ledger):
    """An echo-served transport per capacity, shared by the examples."""
    served = {capacity: _serve(capacity, capacity) for capacity in (0, SIZED)}
    yield {capacity: transport for capacity, (transport, _) in served.items()}
    for transport, thread in served.values():
        _shutdown(transport, thread)


@settings(max_examples=150, deadline=None)
@given(body=_bodies(), capacity=st.sampled_from([0, SIZED]))
def test_every_body_round_trips_bitwise_on_the_carrier_it_fits(
    echo_transports, body, capacity
):
    # One envelope, both directions: the body goes to the worker and comes
    # back bit for bit, in the ring exactly when there is one and the body
    # is a ragged batch (all of them fit the sized capacity), else pickled.
    transport = echo_transports[capacity]
    before = dict(transport.stats)
    echoed = _call(transport, "echo", body)
    if isinstance(body, dict):
        assert echoed == body
    else:
        assert type(echoed) is list and _blocks(echoed) == _blocks(body)
    carrier = "ring" if capacity and not isinstance(body, dict) else "pipe"
    counted = {key: transport.stats[key] - before[key] for key in before}
    assert counted == {
        "ring_requests": 0, "pipe_requests": 0, "ring_responses": 0,
        "pipe_responses": 0, "integrity_failures": 0,
        f"{carrier}_requests": 1, f"{carrier}_responses": 1,
    }


@CAPACITIES
def test_echo_roundtrip(capacity):
    # The forward shape end to end: token rows in, one float64 row block per
    # request back, both on the ring when there is one, else both pickled.
    transport, thread = _serve(capacity, capacity)
    try:
        assert len(transport.shm_names()) == (2 if capacity else 0)
        for _ in range(2):
            value = _call(transport, "rows", TOKENS)
            assert len(value) == len(TOKENS)
            assert all(
                v.dtype == np.float64 and np.array_equal(v, _rows(t))
                for v, t in zip(value, TOKENS)
            )
        on_ring = 2 if capacity else 0
        assert transport.stats["ring_requests"] == on_ring
        assert transport.stats["ring_responses"] == on_ring
        assert transport.stats["pipe_requests"] == 2 - on_ring
        assert transport.stats["pipe_responses"] == 2 - on_ring
    finally:
        _shutdown(transport, thread)


@CAPACITIES
def test_a_reply_stamped_with_a_stale_seq_raises_on_either_carrier(capacity):
    transport, thread = _serve(capacity, capacity)
    try:
        transport.send("stale", TOKENS[:1])
        assert transport.poll(60)
        with pytest.raises(TransportError, match="seq"):
            transport.recv()
        assert transport.stats["ring_requests"] == (1 if capacity else 0)
        # The next reply carries the next request's seq: the channel serves on.
        value = _call(transport, "rows", TOKENS[:1])
        assert np.array_equal(value[0], _rows(TOKENS[0]))
    finally:
        _shutdown(transport, thread)


def test_shm_ring_capacity_fallback_still_serves():
    # Rings too small for any payload: every message must degrade to the
    # pickle pipe and still round-trip correctly.
    transport, thread = _serve(8, 8)
    try:
        value = _call(transport, "rows", TOKENS[:1])
        assert np.array_equal(value[0], _rows(TOKENS[0]))
        assert transport.stats["ring_requests"] == 0
        assert transport.stats["pipe_requests"] == 1
    finally:
        _shutdown(transport, thread)


@pytest.mark.parametrize("response_bytes", [8, 0])
def test_shm_ring_response_fallback_when_only_response_overflows(response_bytes):
    # Request fits its ring but the serving-shaped response does not (or
    # has no ring at all): the reply alone must take the pipe.
    transport, thread = _serve(1 << 16, response_bytes)
    try:
        value = _call(transport, "rows", TOKENS[:1])
        assert np.array_equal(value[0], _rows(TOKENS[0]))
        assert transport.stats["ring_requests"] == 1
        assert transport.stats["ring_responses"] == 0
        assert transport.stats["pipe_responses"] == 1
    finally:
        _shutdown(transport, thread)


def test_shm_ring_request_fallback_when_only_request_overflows():
    # A request that took the pipe is answered by pipe, roomy response ring
    # or not: a reply rides the ring only when its request did, which is how
    # a parent that dropped its rings keeps being answered by pipe.
    transport, thread = _serve(8, 1 << 16)
    try:
        value = _call(transport, "rows", TOKENS[:1])
        assert np.array_equal(value[0], _rows(TOKENS[0]))
        assert transport.stats["ring_requests"] == 0
        assert transport.stats["ring_responses"] == 0
    finally:
        _shutdown(transport, thread)


def test_corrupt_response_frame_drops_the_rings_and_keeps_serving():
    # What ShardedPool's chaos scenario shows end to end, on the channel
    # alone: a bad frame raises, the rings are unlinked, the pipe serves on.
    transport, thread = _serve(1 << 16, 1 << 16)
    try:
        transport.send("rows", TOKENS)
        assert transport.poll(60)
        transport._response_ring.corrupt_payload(salt=200)
        with pytest.raises(TransportIntegrityError, match="checksum"):
            transport.recv()
        assert transport.degraded and transport.shm_names() == []
        assert transport.stats["integrity_failures"] == 1
        value = _call(transport, "rows", TOKENS)
        assert np.array_equal(value[1], _rows(TOKENS[1]))
        assert transport.stats["pipe_requests"] == 1
        assert transport.stats["pipe_responses"] == 1
    finally:
        _shutdown(transport, thread)


@CAPACITIES
def test_send_after_close_raises_transport_error(capacity):
    # A closed channel is a programming error, not a worker fault.
    transport, thread = _serve(capacity, capacity)
    try:
        _call(transport, "rows", TOKENS[:1])
    finally:
        _shutdown(transport, thread)
    with pytest.raises(TransportError, match="closed"):
        transport.send("rows", TOKENS[:1])


@CAPACITIES
def test_close_is_idempotent(capacity):
    transport, thread = _serve(capacity, capacity)
    _shutdown(transport, thread)
    transport.close()  # second close: no-op
    assert transport.shm_names() == []


def test_shm_ledger_fails_a_module_that_leaves_a_block_linked(pytester):
    pytester.makeconftest((Path(__file__).parents[1] / "conftest.py").read_text())
    pytester.makepyfile(
        """
        import pytest
        from multiprocessing import shared_memory

        pytestmark = pytest.mark.usefixtures("shm_ledger")

        def test_closes_but_never_unlinks():
            shared_memory.SharedMemory(create=True, size=64).close()
        """
    )
    result = pytester.runpytest()
    result.assert_outcomes(passed=1, errors=1)
    result.stdout.fnmatch_lines(["*1 of 1 shared-memory blocks created here outlived*"])
