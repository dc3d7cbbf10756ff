"""Worker-transport tests: ring codec, frame fuzzing, fallback, round trips.

The ring codec tests run in-process against :class:`_ShmRing` directly.  The
round-trip tests serve ``transport.endpoint()`` from a thread of the test
process — the same pipe and rings a worker process would use, no model —
at both capacities (``0`` is what ``ShardedPool(transport="pipe")`` builds),
including the degradation paths: payloads beyond the preallocated ring
capacity fall back to the pickle pipe in either direction.  What only a real
process can show (worker death, unlink after it) lives in
``test_sharding.py::TestWorkerTransports``.
"""

import multiprocessing
import threading

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
    _ShmRing,
)


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
            assert all(np.array_equal(a, b) for a, b in zip(decoded, items))
        finally:
            ring.unlink()
            ring.close()

    def test_write_into_ring_reservation(self):
        # reserve_ragged hands out the ring's own memory: filling the view
        # IS the packing step the response path uses.  The caller seals the
        # frame once it is done writing (commit_packed_response does this).
        ring = self._ring()
        try:
            flat = ring.reserve_ragged([2, 3], trailing=4, dtype=np.float64, seq=9)
            assert flat.shape == (5, 4)
            flat[...] = np.arange(20).reshape(5, 4)
            ring.seal()
            decoded = ring.decode(9, copy=True)
            assert np.array_equal(decoded[0], flat[:2])
            assert np.array_equal(decoded[1], flat[2:])
        finally:
            ring.unlink()
            ring.close()

    def test_unsealed_reservation_fails_verification(self):
        # Decoding a reservation that was never sealed must not hand back
        # whatever bytes happen to be in the payload region.
        ring = self._ring()
        try:
            flat = ring.reserve_ragged([2], trailing=4, dtype=np.float64, seq=2)
            flat[...] = 1.0
            with pytest.raises(TransportIntegrityError, match="checksum"):
                ring.decode(2, copy=True)
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
            # (n, 0) row blocks would be header-ambiguous with 1-D items.
            assert not ring.try_encode([np.empty((3, 0)), np.empty((2, 0))], seq=1)
            assert not ring.try_encode([np.arange(100, dtype=np.int64)], seq=1)
            assert ring.reserve_ragged([100], 4, np.float64, seq=1) is None
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


_RING_DTYPES = [np.dtype(code) for code in ("<i8", "<i4", "<f2", "<f4", "<f8")]
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
HIDDEN = 4
CAPACITIES = pytest.mark.parametrize(
    "ring_bytes", [0, 1 << 16], ids=["pipe", "shm_ring"]
)


def _rows(tokens):
    """The serving-shaped answer to one request: a (length, HIDDEN) block."""
    return np.repeat(tokens[:, None], HIDDEN, axis=1).astype(np.float64)


def _echo_serve(endpoint):
    """The shape of ``_worker_main``'s loop with the model left out.

    ``"echo"`` answers through ``send``; ``"echo_packed"`` writes its rows
    into the response ring when the endpoint hands one out, as ``forward``
    does.
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
            if op == "echo_packed":
                flat = endpoint.begin_packed_response(
                    [t.shape[0] for t in payload], HIDDEN, np.dtype(np.float64)
                )
                if flat is not None:
                    flat[...] = np.concatenate([_rows(t) for t in payload])
                    endpoint.commit_packed_response()
                    continue
            endpoint.send("ok", [_rows(t) for t in payload])
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


@CAPACITIES
def test_echo_roundtrip(ring_bytes):
    transport, thread = _serve(ring_bytes, ring_bytes)
    try:
        assert len(transport.shm_names()) == (2 if ring_bytes else 0)
        for op in ("echo", "echo_packed"):
            value = _call(transport, op, TOKENS)
            assert all(
                v.dtype == np.float64 and np.array_equal(v, _rows(t))
                for v, t in zip(value, TOKENS)
            )
        on_ring = 2 if ring_bytes else 0
        assert transport.stats["ring_requests"] == on_ring
        assert transport.stats["ring_responses"] == on_ring
        assert transport.stats["pipe_requests"] == 2 - on_ring
        assert transport.stats["pipe_responses"] == 2 - on_ring
    finally:
        _shutdown(transport, thread)


def test_shm_ring_capacity_fallback_still_serves():
    # Rings too small for any payload: every message must degrade to the
    # pickle pipe and still round-trip correctly.
    transport, thread = _serve(8, 8)
    try:
        value = _call(transport, "echo_packed", TOKENS[:1])
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
        for op in ("echo", "echo_packed"):
            value = _call(transport, op, TOKENS[:1])
            assert np.array_equal(value[0], _rows(TOKENS[0]))
        assert transport.stats["ring_requests"] == 2
        assert transport.stats["ring_responses"] == 0
        assert transport.stats["pipe_responses"] == 2
    finally:
        _shutdown(transport, thread)


def test_shm_ring_request_fallback_when_only_request_overflows():
    # The request has to take the pipe, so there is no seq to stamp a ring
    # response with: the reply takes the pipe too, roomy response ring or not.
    transport, thread = _serve(8, 1 << 16)
    try:
        value = _call(transport, "echo_packed", TOKENS[:1])
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
        transport.send("echo", TOKENS)
        assert transport.poll(60)
        transport._response_ring.corrupt_payload(salt=200)
        with pytest.raises(TransportIntegrityError, match="checksum"):
            transport.recv()
        assert transport.degraded and transport.shm_names() == []
        assert transport.stats["integrity_failures"] == 1
        value = _call(transport, "echo_packed", TOKENS)
        assert np.array_equal(value[1], _rows(TOKENS[1]))
        assert transport.stats["pipe_requests"] == 1
        assert transport.stats["pipe_responses"] == 1
    finally:
        _shutdown(transport, thread)


@CAPACITIES
def test_send_after_close_raises_transport_error(ring_bytes):
    # A closed channel is a programming error, not a worker fault.
    transport, thread = _serve(ring_bytes, ring_bytes)
    try:
        _call(transport, "echo", TOKENS[:1])
    finally:
        _shutdown(transport, thread)
    with pytest.raises(TransportError, match="closed"):
        transport.send("echo", TOKENS[:1])


@CAPACITIES
def test_close_is_idempotent(ring_bytes):
    transport, thread = _serve(ring_bytes, ring_bytes)
    _shutdown(transport, thread)
    transport.close()  # second close: no-op
    assert transport.shm_names() == []
