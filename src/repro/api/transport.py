"""The parent<->worker channel of multi-process sharded serving.

In the paper's integer-deployment setting the per-token compute is cheap, so
the process boundary of :class:`~repro.api.sharding.ShardedPool` is a
first-order serving cost.  One channel crosses it:

* :class:`WorkerTransport` — the parent half the pool's shard clients hold
  (``send``/``poll``/``recv``/``close``), paired with the picklable
  :class:`WorkerEndpoint` the worker process serves from.  Control traffic
  (init handshake, calibration broadcast, close) and hot-path traffic
  (``forward`` batches and their results) both flow through it.
* A duplex ``multiprocessing.Pipe`` always exists: it pickles whatever it is
  given, and it is the liveness signal — a dead worker's end-of-file wakes
  any blocking ``poll``, which is what lets the client wait without a busy
  loop.
* A request and a response :class:`_ShmRing` exist when their byte capacity
  is > 0.  Payloads that match the serving shape — ragged rows: token-id
  batches in, hidden-state row blocks out — are packed into these
  preallocated ``multiprocessing.shared_memory`` blocks behind a fixed int64
  dtype/shape header, and the pipe carries only a tiny doorbell.  Anything a
  ring cannot describe or hold — control dicts, oversized batches, every
  message of a transport built with zero capacity (``transport="pipe"``) —
  is pickled over the pipe instead (counted in :attr:`WorkerTransport.stats`).
  Every ring frame carries a CRC32 of its header fields and payload; a frame
  that fails the check at decode raises :class:`TransportIntegrityError` and
  the transport drops its rings for good, so corruption never decodes as
  truth.

The wire discipline is strictly one request in flight per worker (the shard
client serialises calls under a lock), so each direction needs exactly one
message slot, with doorbell sequence numbers guarding against stale messages.
"""

from __future__ import annotations

# staticcheck: pickle-boundary -- payloads here must survive pickling into spawned workers

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
    """A transport-level protocol violation (stale doorbell, bad reserve)."""


class TransportIntegrityError(TransportError):
    """A ring frame failed its checksum (or describes an impossible payload).

    Raised by the parent-side decode so corruption surfaces as a typed
    error instead of garbage results.  The transport degrades to the pickle
    pipe for the rest of its life (the ring memory is suspect); the
    scheduler's retry policy treats this as a replica-channel fault and
    re-routes the batch.
    """


#: Doorbell tag: a pipe message ``(_SHM_TAG, seq, op_or_status)`` means "the
#: payload is in the shared-memory ring, stamped with ``seq``".
_SHM_TAG = "__shm__"

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

#: numpy dtypes the fixed-shape header can describe; anything else falls
#: back to the pickle pipe.
_DTYPE_CODES: Dict[str, int] = {
    "<i8": 1,
    "<i4": 2,
    "<f2": 3,
    "<f4": 4,
    "<f8": 5,
}
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


class _ShmRing:
    """One direction of the zero-copy channel: a single-message shm buffer.

    The serving protocol keeps at most one request in flight per worker, so
    each direction needs exactly one slot; the request/response ring pair
    plus doorbell sequence numbers over the pipe make the buffers safe to
    reuse call after call.  Layout: an int64[16] header (see module
    constants), then ``int64[n]`` lengths, then the concatenated payload
    elements.
    """

    def __init__(self, shm: shared_memory.SharedMemory, owner: bool) -> None:
        self._shm = shm
        self._owner = owner
        self._closed = False

    @classmethod
    def create(cls, payload_bytes: int) -> "_ShmRing":
        size = _HEADER_BYTES + max(0, int(payload_bytes))
        return cls(shared_memory.SharedMemory(create=True, size=size), owner=True)

    @classmethod
    def attach(cls, name: str) -> "_ShmRing":
        return cls(shared_memory.SharedMemory(name=name), owner=False)

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
        """Stamp the current message's CRC32 into the header.

        Every encode path ends here — ``try_encode`` for whole payloads,
        and the packed-response commit for results written directly into a
        :meth:`reserve_ragged` view (the reservation cannot seal: the
        caller writes the payload *after* reserving).
        """
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
        flat = self.reserve_ragged(lengths, trailing, dtype, seq)
        if flat is None:
            return False
        RequestBatcher.pack_ragged(payload, flat)  # type: ignore[arg-type]
        self.seal()
        return True

    def reserve_ragged(
        self,
        lengths: Sequence[int],
        trailing: int,
        dtype: np.dtype,
        seq: int,
    ) -> Optional[np.ndarray]:
        """Write a ragged-message header + lengths; return the flat view.

        The returned array — ``(total,)`` for 1-D items, ``(total,
        trailing)`` for row blocks — is the ring's own memory: writing
        results into it *is* the packing step (no intermediate buffer, no
        pickle).  Returns ``None`` if the message would not fit.
        """
        dtype = np.dtype(dtype)
        if dtype.str not in _DTYPE_CODES or not lengths:
            return None
        n = len(lengths)
        total = int(sum(lengths))
        elements = total * max(1, trailing)
        needed = n * 8 + elements * dtype.itemsize
        if needed > self.payload_capacity:
            return None
        header = self._header()
        header[0] = seq
        header[1] = _KIND_RAGGED
        header[2] = n
        header[3] = _DTYPE_CODES[dtype.str]
        header[4] = trailing
        self._view(n, np.dtype(np.int64), 0)[...] = lengths
        flat = self._view(elements, dtype, n * 8)
        return flat.reshape((total, trailing)) if trailing else flat

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
        elements = sum(lengths) * max(1, trailing)
        flat = self._view(elements, dtype, n * 8)
        if trailing:
            flat = flat.reshape((sum(lengths), trailing))
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
            # Views handed out by decode()/reserve_ragged() may still be
            # alive; the mapping is released when they go away.
            pass

    def unlink(self) -> None:
        """Remove the block name (owner only; idempotent)."""
        try:
            self._shm.unlink()
        except FileNotFoundError:
            pass


def _is_doorbell(msg: object) -> bool:
    return isinstance(msg, tuple) and len(msg) == 3 and msg[0] == _SHM_TAG


class WorkerEndpoint:
    """Worker-process half of the channel: picklable, serve-loop facing.

    Carries the child pipe end and the ring *names* (``None`` = no ring in
    that direction); the rings are attached on the first doorbell.
    """

    def __init__(
        self, conn, request_name: Optional[str], response_name: Optional[str]
    ) -> None:
        self._conn = conn
        self._request_name = request_name
        self._response_name = response_name
        self._request_ring: Optional[_ShmRing] = None
        self._response_ring: Optional[_ShmRing] = None
        #: Sequence number of the in-hand ring request (None once answered,
        #: or when the request arrived by pipe — responses then have no seq
        #: to stamp and use the pipe too).
        self._seq: Optional[int] = None
        self._reserved_seq: Optional[int] = None

    def _attach(self) -> None:
        if self._request_ring is None:
            assert self._request_name is not None  # a doorbell implies a ring
            self._request_ring = _ShmRing.attach(self._request_name)
            if self._response_name is not None:
                self._response_ring = _ShmRing.attach(self._response_name)

    def recv(self) -> Tuple[str, object]:
        """Block for the next ``(op, payload)`` request from the parent."""
        msg = self._conn.recv()
        self._reserved_seq = None  # any stale reservation is now abandoned
        if _is_doorbell(msg):
            _, seq, op = msg
            self._attach()
            payload = self._request_ring.decode(seq, copy=False)  # type: ignore[union-attr]
            self._seq = seq
            return op, payload
        self._seq = None
        return msg

    def send(self, status: str, value: object) -> None:
        """Ship ``(status, value)`` back to the parent."""
        self._reserved_seq = None  # a generic reply abandons any reservation
        seq, self._seq = self._seq, None
        if (
            seq is not None
            and self._response_ring is not None
            and self._response_ring.try_encode(value, seq)
        ):
            self._conn.send((_SHM_TAG, seq, status))
            return
        self._conn.send((status, value))

    def begin_packed_response(
        self, lengths: Sequence[int], trailing: int, dtype: np.dtype
    ) -> Optional[np.ndarray]:
        """Reserve the response ring and return the flat array to write into.

        ``None`` when the request did not come by ring, there is no response
        ring, or the message would not fit; the caller then materialises its
        result normally and uses :meth:`send`.
        """
        if self._seq is None or self._response_ring is None:
            return None
        flat = self._response_ring.reserve_ragged(
            lengths, trailing, dtype, self._seq
        )
        if flat is None:
            return None
        self._reserved_seq = self._seq
        return flat

    def commit_packed_response(self, status: str = "ok") -> None:
        """Publish a response written via :meth:`begin_packed_response`."""
        if self._reserved_seq is None:
            raise TransportError(
                "no packed response was reserved on this endpoint"
            )
        seq, self._reserved_seq, self._seq = self._reserved_seq, None, None
        self._response_ring.seal()  # type: ignore[union-attr]
        self._conn.send((_SHM_TAG, seq, status))

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
    is outstanding.  Serving-shaped payloads (ragged token batches in, ragged
    hidden-state rows out) are written straight into the request/response
    ring — a fixed int64 header describing dtype and shape, then the lengths
    and elements — and announced with a tiny doorbell over the pipe.
    The pipe remains the control channel and the path for everything the
    rings cannot hold: unsupported payloads (calibration dicts), batches
    beyond the preallocated capacity, and every message when a direction's
    capacity is 0 and no ring was allocated for it (see :attr:`stats` for how
    traffic actually routed).

    Worker death is the pipe's end-of-file, so a blocking ``poll`` wakes
    immediately.
    """

    def __init__(
        self, context, request_bytes: int, response_bytes: int
    ) -> None:
        #: Message-routing counters: how many requests/responses used the
        #: zero-copy rings vs the pickle pipe, and how many ring frames
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
        if self._request_ring is not None and self._request_ring.try_encode(
            payload, self._seq
        ):
            self.stats["ring_requests"] += 1
            self._parent_conn.send((_SHM_TAG, self._seq, op))
        else:
            self.stats["pipe_requests"] += 1
            self._parent_conn.send((op, payload))

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
        a dead worker's closed pipe."""
        msg = self._parent_conn.recv()
        if not _is_doorbell(msg):
            self.stats["pipe_responses"] += 1
            return msg
        _, seq, status = msg
        if seq != self._seq:
            raise TransportError(
                f"response doorbell carries seq {seq}, expected "
                f"{self._seq}; the channel is out of sync"
            )
        assert self._response_ring is not None
        try:
            if _faults._ACTIVE is not None:
                _faults._ACTIVE.on_ring_response(self._response_ring)
            value = self._response_ring.decode(seq, copy=True)
        except TransportIntegrityError:
            # The ring memory is suspect: drop to the no-ring state, so every
            # later message takes the pipe, and let the caller's retry policy
            # re-route the batch.
            self.degraded = True
            self.stats["integrity_failures"] += 1
            self._drop_rings()
            raise
        self.stats["ring_responses"] += 1
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
