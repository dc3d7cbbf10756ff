"""The parent<->worker channel of multi-process sharded serving.

In the paper's integer-deployment setting the per-token compute is cheap, so
the process boundary of :class:`~repro.api.sharding.ShardedPool` is a
first-order serving cost.  One channel crosses it:

* :class:`WorkerTransport` — the parent half the pool's shard clients hold
  (``send``/``poll``/``recv``/``close``), paired with the picklable
  :class:`WorkerEndpoint` the worker process serves from.  Control traffic
  (init handshake, calibration broadcast, close) and hot-path traffic
  (``forward`` batches and their results) both flow through it.
* Every message, either way, is one ``(tag, seq, body)`` envelope written
  by :func:`_encode` and read by :func:`_decode` — the only codec both
  halves use.  ``tag`` is the op (parent to worker) or the status (worker to
  parent); ``seq`` is the parent's request counter, echoed by the reply, so
  the parent checks every reply's sequence number whatever carried it.
* A duplex ``multiprocessing.Pipe`` always exists: it carries every
  envelope, and it is the liveness signal — a dead worker's end-of-file
  wakes any blocking ``poll``, which is what lets the client wait without a
  busy loop.
* A request and a response :class:`_ShmRing` exist when their byte capacity
  is > 0.  A body that is a ragged batch — token-id rows in, hidden-state
  row blocks out — and fits the preallocated
  ``multiprocessing.shared_memory`` block is packed there behind a fixed
  int64 dtype/shape header, and its envelope on the pipe carries
  :data:`_IN_RING` in place of the body.  Anything else — control dicts,
  oversized batches, every message of a transport built with zero capacity
  (``transport="pipe"``) — is pickled inside the envelope (counted in
  :attr:`WorkerTransport.stats`).  A reply uses the response ring only when
  its request came by ring, so a parent that dropped its rings is answered
  by pipe.  Every ring frame carries a CRC32 of its header fields and
  payload; a frame that fails the check at decode raises
  :class:`TransportIntegrityError` and the transport drops its rings for
  good, so corruption never decodes as truth.

The wire discipline is strictly one request in flight per worker (the shard
client serialises calls under a lock), so each direction needs exactly one
message slot, with the envelope sequence numbers guarding against stale
messages.
"""

from __future__ import annotations

import zlib
from multiprocessing import shared_memory
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import faults as _faults
from .batching import RequestBatcher

__all__ = [
    "TransportError",
    "TransportIntegrityError",
    "WorkerTransport",
    "WorkerEndpoint",
]


class TransportError(RuntimeError):
    """A transport-level protocol violation (stale or misrouted envelope)."""


class TransportIntegrityError(TransportError):
    """A ring frame failed its checksum (or describes an impossible payload).

    Raised by the parent-side decode so corruption surfaces as a typed
    error instead of garbage results.  The transport degrades to the pickle
    pipe for the rest of its life (the ring memory is suspect); the
    scheduler's retry policy treats this as a replica-channel fault and
    re-routes the batch.
    """


#: The body of an envelope whose payload is the frame in the sending side's
#: ring, stamped with the envelope's ``seq`` (no real body is ``...``).
_IN_RING = ...

#: Ring header: int64[16] at the start of each block.
#: [0] seq  [1] kind (always ``_KIND_RAGGED``; anything else is corruption)
#: [2] n (ragged items)  [3] dtype code
#: [4] trailing dim (ragged rows; 0 = 1-D items)  [5..12] unused
#: [13] CRC32 of slots 1-12 and the payload bytes they describe (sealed at
#: encode time, verified at decode time — see
#: :class:`TransportIntegrityError`); slot 0 has its own check in ``decode``.
_HEADER_SLOTS = 16
_HEADER_BYTES = _HEADER_SLOTS * 8
_CRC_SLOT = 13

_KIND_RAGGED = 1

#: numpy dtypes the fixed-shape header can describe — what an envelope
#: carries: int64 token ids and budgets, float32 / float64 hidden states.
#: Anything else falls back to the pickle pipe.
_DTYPE_CODES: Dict[str, int] = {"<i8": 1, "<f4": 4, "<f8": 5}
_CODE_DTYPES: Dict[int, np.dtype] = {
    code: np.dtype(s) for s, code in _DTYPE_CODES.items()
}


def _ragged_spec(
    payload: object,
) -> Optional[Tuple[np.dtype, int, List[int]]]:
    """``(dtype, trailing, lengths)`` if ``payload`` is a ring-packable ragged
    batch — a non-empty list of uniform-dtype 1-D arrays (``trailing == 0``)
    or 2-D row blocks sharing their trailing dimension — else ``None``.
    """
    if not isinstance(payload, (list, tuple)) or not payload:
        return None
    first = payload[0]
    if not isinstance(first, np.ndarray) or first.dtype.str not in _DTYPE_CODES:
        return None
    ndim = first.ndim
    if ndim not in (1, 2):
        return None
    trailing = int(first.shape[1]) if ndim == 2 else 0
    if ndim == 2 and trailing == 0:
        # A (n, 0) block would be indistinguishable from 1-D items in the
        # header (trailing == 0 marks 1-D); route it through the pipe.
        return None
    lengths: List[int] = []
    for item in payload:
        if (
            not isinstance(item, np.ndarray)
            or item.dtype != first.dtype
            or item.ndim != ndim
            or (ndim == 2 and int(item.shape[1]) != trailing)
        ):
            return None
        lengths.append(int(item.shape[0]))
    return first.dtype, trailing, lengths


def _frame_bytes(lengths: Sequence[int], trailing: int, itemsize: int) -> int:
    """Ring payload bytes of a ragged frame: the length table, then the
    items' elements (``trailing`` per row, 1 for 1-D items)."""
    return len(lengths) * 8 + sum(lengths) * max(1, trailing) * itemsize


class _ShmRing:
    """One direction of the ring carrier: a single-message shm buffer.

    The serving protocol keeps at most one request in flight per worker, so
    each direction needs exactly one slot; the request/response ring pair
    plus the envelope sequence numbers make the buffers safe to reuse call
    after call.  Layout: an int64[16] header (see module
    constants), then ``int64[n]`` lengths, then the concatenated payload
    elements.
    """

    def __init__(self, shm: shared_memory.SharedMemory) -> None:
        self._shm = shm
        self._closed = False

    @classmethod
    def create(cls, payload_bytes: int) -> "_ShmRing":
        size = _HEADER_BYTES + max(0, int(payload_bytes))
        return cls(shared_memory.SharedMemory(create=True, size=size))

    @classmethod
    def attach(cls, name: str) -> "_ShmRing":
        return cls(shared_memory.SharedMemory(name=name))

    @property
    def name(self) -> str:
        return self._shm.name

    @property
    def payload_capacity(self) -> int:
        """Bytes available for one message's lengths + elements."""
        return self._shm.size - _HEADER_BYTES

    def _header(self) -> np.ndarray:
        return np.ndarray((_HEADER_SLOTS,), dtype=np.int64, buffer=self._shm.buf)

    def _view(self, count: int, dtype: np.dtype, byte_offset: int) -> np.ndarray:
        return np.ndarray(
            (count,), dtype=dtype, buffer=self._shm.buf,
            offset=_HEADER_BYTES + byte_offset,
        )

    def _stacked(
        self, n: int, total: int, trailing: int, dtype: np.dtype
    ) -> np.ndarray:
        """The items of an ``n``-item frame stacked along axis 0: ``(total,)``
        for 1-D items, ``(total, trailing)`` for row blocks."""
        flat = self._view(total * max(1, trailing), dtype, n * 8)
        return flat.reshape((total, trailing)) if trailing else flat

    # ------------------------------------------------------------------ #
    # Integrity
    # ------------------------------------------------------------------ #
    def _described_payload_nbytes(self, header: np.ndarray) -> int:
        """Payload bytes the header claims follow it, or ``-1`` when the
        header itself is implausible (corrupt shape/length fields would
        otherwise send the checksum — or the decode — out of bounds)."""
        dtype = _CODE_DTYPES.get(int(header[3]))
        if int(header[1]) != _KIND_RAGGED or dtype is None:
            return -1
        n = int(header[2])
        trailing = int(header[4])
        if n < 1 or trailing < 0 or n * 8 > self.payload_capacity:
            return -1
        total = 0
        for value in self._view(n, np.dtype(np.int64), 0):
            length = int(value)
            if length < 0:
                return -1
            total += length
        nbytes = n * 8 + total * max(1, trailing) * dtype.itemsize
        return nbytes if nbytes <= self.payload_capacity else -1

    def _frame_crc(self, header: np.ndarray, nbytes: int) -> int:
        # Seeded with the descriptive header fields: a corrupted dtype code
        # or shape that keeps the payload byte count must not verify.
        return zlib.crc32(
            self._shm.buf[_HEADER_BYTES:_HEADER_BYTES + nbytes],
            zlib.crc32(header[1:_CRC_SLOT]),
        )

    def seal(self) -> None:
        """Stamp the current message's CRC32 into the header (the last step
        of :meth:`try_encode`)."""
        header = self._header()
        nbytes = self._described_payload_nbytes(header)
        header[_CRC_SLOT] = self._frame_crc(header, max(0, nbytes))

    def verify(self) -> None:
        """Raise :class:`TransportIntegrityError` unless the frame is intact."""
        header = self._header()
        nbytes = self._described_payload_nbytes(header)
        if nbytes < 0:
            raise TransportIntegrityError(
                "ring frame header describes an impossible payload; the "
                "frame is corrupt"
            )
        actual = self._frame_crc(header, nbytes)
        if actual != int(header[_CRC_SLOT]) & 0xFFFFFFFF:
            raise TransportIntegrityError(
                f"ring frame checksum mismatch (stored "
                f"{int(header[_CRC_SLOT]) & 0xFFFFFFFF:#010x}, computed "
                f"{actual:#010x}); the frame is corrupt"
            )

    def corrupt_payload(self, salt: int) -> None:
        """Flip one payload byte in place (fault injection / tests only)."""
        header = self._header()
        nbytes = self._described_payload_nbytes(header)
        if nbytes <= 0:
            return
        offset = _HEADER_BYTES + (salt % nbytes)
        self._shm.buf[offset] ^= 0xFF

    # ------------------------------------------------------------------ #
    # Encode
    # ------------------------------------------------------------------ #
    def try_encode(self, payload: object, seq: int) -> bool:
        """Pack ``payload`` into the ring if its shape/dtype/size allow.

        Returns ``False`` (ring untouched as far as the reader is concerned)
        when the payload is not a ragged batch (see :func:`_ragged_spec`) or
        does not fit the preallocated capacity — the caller then falls back
        to the pickle pipe.
        """
        spec = _ragged_spec(payload)
        if spec is None:
            return False
        dtype, trailing, lengths = spec
        n, total = len(lengths), sum(lengths)
        if _frame_bytes(lengths, trailing, dtype.itemsize) > self.payload_capacity:
            return False
        header = self._header()
        header[0] = seq
        header[1] = _KIND_RAGGED
        header[2] = n
        header[3] = _DTYPE_CODES[dtype.str]
        header[4] = trailing
        self._view(n, np.dtype(np.int64), 0)[...] = lengths
        RequestBatcher.pack_ragged(
            payload, self._stacked(n, total, trailing, dtype)  # type: ignore[arg-type]
        )
        self.seal()
        return True

    # ------------------------------------------------------------------ #
    # Decode
    # ------------------------------------------------------------------ #
    def decode(self, expected_seq: int, copy: bool) -> object:
        """The ring's current message; views when ``copy=False``.

        Views are only valid until the next message lands; the worker (which
        consumes a request fully before its response is produced) reads
        views, the parent (which hands results to callers) copies.
        """
        header = self._header()
        if int(header[0]) != expected_seq:
            raise TransportError(
                f"shared-memory ring message is stamped seq {int(header[0])}, "
                f"expected {expected_seq}; the channel is out of sync"
            )
        self.verify()  # also rejects any kind but ragged and unknown dtypes
        dtype = _CODE_DTYPES[int(header[3])]
        n = int(header[2])
        trailing = int(header[4])
        lengths = [int(v) for v in self._view(n, np.dtype(np.int64), 0)]
        flat = self._stacked(n, sum(lengths), trailing, dtype)
        items = RequestBatcher.unpack_ragged(flat, lengths)
        if copy:
            return [item.copy() for item in items]
        for item in items:
            item.flags.writeable = False
        return items

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def close(self) -> None:
        """Close this process's mapping (idempotent, view-tolerant)."""
        if self._closed:
            return
        self._closed = True
        try:
            self._shm.close()
        except BufferError:
            # Views handed out by decode() may still be alive; the mapping
            # is released when they go away.
            pass

    def unlink(self) -> None:
        """Remove the block name (owner only; idempotent)."""
        try:
            self._shm.unlink()
        except FileNotFoundError:
            pass


def _encode(
    conn, ring: Optional[_ShmRing], tag: str, seq: int, body: object
) -> bool:
    """Send one ``(tag, seq, body)`` envelope over ``conn``.

    The body goes into ``ring`` when there is one and the body fits it (the
    envelope then carries :data:`_IN_RING`), else it is pickled with the
    envelope.  Returns whether the ring carried it.
    """
    in_ring = ring is not None and ring.try_encode(body, seq)
    conn.send((tag, seq, _IN_RING if in_ring else body))
    return in_ring


def _decode(envelope: tuple, ring: Optional[_ShmRing], copy: bool) -> tuple:
    """``(tag, seq, body)`` of a received envelope, the body read from
    ``ring`` when the envelope says it is there (views when ``copy=False``,
    see :meth:`_ShmRing.decode`)."""
    tag, seq, body = envelope
    if body is _IN_RING:
        if ring is None:
            raise TransportError(
                f"envelope {seq} puts its body in a ring this end does not "
                "have; the channel is out of sync"
            )
        body = ring.decode(seq, copy=copy)
    return tag, seq, body


class WorkerEndpoint:
    """Worker-process half of the channel: picklable, serve-loop facing.

    Carries the child pipe end and the ring *names* (``None`` = no ring in
    that direction); the rings are attached on the first ring-borne request.
    """

    def __init__(
        self, conn, request_name: Optional[str], response_name: Optional[str]
    ) -> None:
        self._conn = conn
        self._request_name = request_name
        self._response_name = response_name
        self._request_ring: Optional[_ShmRing] = None
        self._response_ring: Optional[_ShmRing] = None
        #: Sequence number of the request in hand (0 before the first: the
        #: init report the parent awaits before sending anything).
        self._seq = 0
        #: The ring the reply may use: the response ring when the request in
        #: hand came by ring, else none — so a parent that dropped its rings
        #: (and therefore sends by pipe) is answered by pipe.
        self._reply_ring: Optional[_ShmRing] = None

    def recv(self) -> Tuple[str, object]:
        """Block for the next ``(op, payload)`` request from the parent."""
        envelope = self._conn.recv()
        in_ring = envelope[2] is _IN_RING
        if in_ring and self._request_ring is None and self._request_name:
            self._request_ring = _ShmRing.attach(self._request_name)
            if self._response_name is not None:
                self._response_ring = _ShmRing.attach(self._response_name)
        op, self._seq, payload = _decode(envelope, self._request_ring, copy=False)
        self._reply_ring = self._response_ring if in_ring else None
        return op, payload

    def send(self, status: str, value: object) -> None:
        """Ship ``(status, value)`` back to the parent, stamped with the
        sequence number of the request it answers."""
        _encode(self._conn, self._reply_ring, status, self._seq, value)

    def close(self) -> None:
        """Release the endpoint's handles (pipe end, ring mappings)."""
        try:
            self._conn.close()
        except OSError:
            pass
        for ring in (self._request_ring, self._response_ring):
            if ring is not None:
                ring.close()


class WorkerTransport:
    """Parent-side half of one worker's message channel.

    One transport instance serves exactly one worker; the shard client holds
    it for the worker's lifetime and serialises calls, so at most one request
    is outstanding.  Serving-shaped bodies (ragged token batches in, ragged
    hidden-state rows out) are packed into the request/response ring — a
    fixed int64 header describing dtype and shape, then the lengths and
    elements — and their envelope on the pipe says so.  Everything the rings
    cannot hold is pickled into the envelope itself: unsupported payloads
    (calibration dicts), batches beyond the preallocated capacity, and every
    message when a direction's capacity is 0 and no ring was allocated for it
    (see :attr:`stats` for how traffic actually routed).

    Worker death is the pipe's end-of-file, so a blocking ``poll`` wakes
    immediately.
    """

    def __init__(
        self, context, request_bytes: int, response_bytes: int
    ) -> None:
        #: Message-routing counters: how many requests/responses used the
        #: shared-memory rings vs the pickle pipe, and how many ring frames
        #: failed their integrity check.
        self.stats: Dict[str, int] = {
            "ring_requests": 0,
            "pipe_requests": 0,
            "ring_responses": 0,
            "pipe_responses": 0,
            "integrity_failures": 0,
        }
        #: Whether an integrity failure demoted this channel to pipe-only.
        self.degraded = False
        self._request_ring: Optional[_ShmRing] = None
        self._response_ring: Optional[_ShmRing] = None
        self._seq = 0
        self._closed = False
        self._parent_conn, self._child_conn = context.Pipe(duplex=True)
        try:
            if request_bytes > 0:
                self._request_ring = _ShmRing.create(request_bytes)
            if response_bytes > 0:
                self._response_ring = _ShmRing.create(response_bytes)
        except BaseException:
            self.close()
            raise

    def endpoint(self) -> WorkerEndpoint:
        """The picklable worker half (pass as a ``Process`` argument)."""
        request, response = self._request_ring, self._response_ring
        return WorkerEndpoint(
            self._child_conn,
            None if request is None else request.name,
            None if response is None else response.name,
        )

    def on_worker_started(self) -> None:
        """Drop the parent's copy of the child pipe end after ``start()``."""
        self._child_conn.close()

    def send(self, op: str, payload: object) -> None:
        """Ship ``(op, payload)`` to the worker (ring when possible)."""
        # Raise instead of letting a send hit a dropped pipe end.  With live
        # retirement the pool can close a worker's transport while some other
        # holder of the client still tries to talk to it; an OSError on a
        # closed ``Connection`` is indistinguishable from a worker death, so
        # surface the lifecycle error explicitly.
        if self._closed:
            raise TransportError(
                "transport is closed; its worker was retired or the pool "
                "shut down"
            )
        self._seq += 1
        in_ring = _encode(
            self._parent_conn, self._request_ring, op, self._seq, payload
        )
        self.stats["ring_requests" if in_ring else "pipe_requests"] += 1

    @property
    def wait_handle(self):
        """The parent-side readable ``Connection`` a response arrives on.

        Exposed so callers can block on ``multiprocessing.connection.wait``
        over *several* wakeup sources at once — typically this handle plus
        the worker's process sentinel — instead of polling in a loop.
        """
        return self._parent_conn

    def poll(self, timeout_s: float) -> bool:
        """Block up to ``timeout_s`` for a response (or worker EOF)."""
        return self._parent_conn.poll(max(0.0, timeout_s))

    def recv(self) -> Tuple[str, object]:
        """The worker's ``(status, value)`` response; raises ``EOFError`` on
        a dead worker's closed pipe and :class:`TransportError` on a reply
        stamped with any sequence number but the last request's."""
        envelope = self._parent_conn.recv()
        if envelope[1] != self._seq:
            raise TransportError(
                f"reply carries seq {envelope[1]}, expected {self._seq}; the "
                "channel is out of sync"
            )
        ring, in_ring = self._response_ring, envelope[2] is _IN_RING
        try:
            if in_ring and ring is not None and _faults._ACTIVE is not None:
                _faults._ACTIVE.on_ring_response(ring)
            status, _, value = _decode(envelope, ring, copy=True)
        except TransportIntegrityError:
            # The ring memory is suspect: drop to the no-ring state, so every
            # later message takes the pipe, and let the caller's retry policy
            # re-route the batch.
            self.degraded = True
            self.stats["integrity_failures"] += 1
            self._drop_rings()
            raise
        self.stats["ring_responses" if in_ring else "pipe_responses"] += 1
        return status, value

    def shm_names(self) -> List[str]:
        """Names of the shared-memory blocks this transport owns (if any)."""
        return [
            ring.name
            for ring in (self._request_ring, self._response_ring)
            if ring is not None
        ]

    def _drop_rings(self) -> None:
        """Unlink and close both rings; mappings still held by the worker
        stay valid until it exits."""
        for ring in (self._request_ring, self._response_ring):
            if ring is not None:
                ring.unlink()
                ring.close()
        self._request_ring = self._response_ring = None

    def close(self) -> None:
        """Close the pipe ends; unlink and close the rings (idempotent).

        The rings must never outlive the transport — unlink happens here
        even when the worker died or never started.
        """
        if self._closed:
            return
        self._closed = True
        for conn in (self._parent_conn, self._child_conn):
            try:
                conn.close()  # a no-op on an already closed Connection
            except OSError:
                pass
        self._drop_rings()
