"""Dynamic micro-batching over ragged request lists.

Serving traffic arrives as a list of variable-length token sequences.  The
:class:`RequestBatcher` turns that ragged list into dense micro-batches:

* lengths are rounded up to a multiple of ``bucket_size`` and requests are
  grouped by bucketed length (a stable sort, so arrival order breaks ties);
* each group is chunked into micro-batches of at most ``max_batch_size``
  rows;
* rows shorter than the bucket length are padded with token id 0 and an
  attention mask marks the real tokens.

With the default ``bucket_size=1`` only *identical* lengths share a batch, so
no padding (and no mask) ever enters the computation — the batched forward
is the same arithmetic as the per-request forward, which is what lets the
float64 engine reproduce per-call outputs bit for bit (the ``int8`` matmul
engine included: its activation scales are per token row, so co-batched
requests never share a quantisation grid).  Larger buckets trade exactness of
that equivalence for fewer, denser batches.

The padded token and mask buffers are allocated once and reused across
micro-batches (they grow geometrically to the largest shape seen), so steady
state serving does no per-batch allocation for inputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Sequence, Tuple

import numpy as np

__all__ = ["MicroBatch", "RequestBatcher"]


@dataclass
class MicroBatch:
    """One dense batch: request indices plus packed inputs.

    With ``iter_batches(..., copy=False)``, ``tokens`` (and ``mask``, when
    padding occurred) are views into the batcher's reusable buffers —
    consume them before pulling the next batch; by default each batch owns
    its arrays.
    """

    indices: Tuple[int, ...]
    lengths: Tuple[int, ...]
    tokens: np.ndarray
    mask: np.ndarray | None


def _validate_request(
    request: np.ndarray, max_length: int | None, index: int | None = None
) -> np.ndarray:
    """The request contract: 1-D, non-empty, integer, within the model.

    The one validator — ``iter_batches`` and the serving queue's admission
    both reject a malformed request here (``index`` names it in a list).
    """
    tokens = np.asarray(request)
    if tokens.ndim != 1:
        problem = f"must be a 1-D token id sequence, got shape {tokens.shape}"
    elif tokens.size == 0:
        problem = "is empty"
    elif not np.issubdtype(tokens.dtype, np.integer):
        problem = f"must contain integer token ids, got {tokens.dtype}"
    elif max_length is not None and tokens.size > max_length:
        problem = (
            f"has length {tokens.size}, exceeding the model's maximum "
            f"sequence length {max_length}"
        )
    else:
        return tokens
    label = "request" if index is None else f"request {index}"
    raise ValueError(f"{label} {problem}")


class RequestBatcher:
    """Length-bucketing micro-batch planner with reusable input buffers.

    Besides the padded-batch planning, this class owns the repo's *packed*
    ragged layout — ``int64[n]`` lengths plus the items concatenated along
    their first axis — which is how request batches and result rows travel
    through the shared-memory transport rings
    (:mod:`repro.api.transport`): :meth:`pack_ragged` writes a ragged list
    straight into a caller-provided (ring) buffer, :meth:`unpack_ragged`
    rebuilds the list as zero-copy views.
    """

    def __init__(self, max_batch_size: int = 32, bucket_size: int = 1) -> None:
        if max_batch_size < 1:
            raise ValueError(f"max_batch_size must be >= 1, got {max_batch_size}")
        if bucket_size < 1:
            raise ValueError(f"bucket_size must be >= 1, got {bucket_size}")
        self.max_batch_size = int(max_batch_size)
        self.bucket_size = int(bucket_size)
        self._buffers: Dict[str, np.ndarray] = {}

    def _buffer(self, name: str, rows: int, cols: int, dtype: np.dtype) -> np.ndarray:
        existing = self._buffers.get(name)
        if existing is None or existing.shape[0] < rows or existing.shape[1] < cols:
            # Rows are bounded by max_batch_size, so allocate them all at
            # once; columns double so reallocations stay logarithmic in the
            # longest padded length seen.
            grown_rows = max(rows, self.max_batch_size)
            grown_cols = cols if existing is None else max(cols, 2 * existing.shape[1])
            existing = np.empty((grown_rows, grown_cols), dtype=dtype)
            self._buffers[name] = existing
        return existing[:rows, :cols]

    def plan(
        self, lengths: Sequence[int], max_length: int | None = None
    ) -> List[Tuple[int, Tuple[int, ...]]]:
        """Micro-batch layout: ``[(padded_length, request_indices), ...]``.

        Stable: requests with equal bucketed length stay in arrival order.
        Bucketed lengths are capped at ``max_length`` so a bucket size that
        does not divide the model's maximum never pads a valid request past
        the limit.
        """
        bucketed = [
            -(-int(length) // self.bucket_size) * self.bucket_size for length in lengths
        ]
        if max_length is not None:
            bucketed = [min(length, max_length) for length in bucketed]
        order = sorted(range(len(bucketed)), key=lambda i: (bucketed[i], i))
        batches: List[Tuple[int, Tuple[int, ...]]] = []
        start = 0
        while start < len(order):
            padded = bucketed[order[start]]
            end = start
            while (
                end < len(order)
                and bucketed[order[end]] == padded
                and end - start < self.max_batch_size
            ):
                end += 1
            batches.append((padded, tuple(order[start:end])))
            start = end
        return batches

    # ------------------------------------------------------------------ #
    # Packed ragged layout (lengths + first-axis concatenation)
    # ------------------------------------------------------------------ #
    @staticmethod
    def pack_ragged(items: Sequence[np.ndarray], out: np.ndarray) -> np.ndarray:
        """Concatenate ``items`` along axis 0 directly into ``out``.

        ``out`` must already have the stacked shape — ``(total,)`` for 1-D
        items, ``(total, trailing)`` for row blocks — and a dtype the items
        can be copied into exactly.  Writing into a caller-provided buffer
        is the point: the shared-memory transport passes a ring view here,
        so packing a batch *is* shipping it (no pickle, no staging copy).
        """
        offset = 0
        for i, item in enumerate(items):
            rows = item.shape[0]
            if offset + rows > out.shape[0]:
                raise ValueError(
                    f"packed items hold more than the buffer's {out.shape[0]} "
                    f"rows (overflow at item {i})"
                )
            out[offset : offset + rows] = item
            offset += rows
        if offset != out.shape[0]:
            raise ValueError(
                f"packed items fill only {offset} of the buffer's "
                f"{out.shape[0]} rows"
            )
        return out

    @staticmethod
    def unpack_ragged(
        flat: np.ndarray, lengths: Sequence[int]
    ) -> List[np.ndarray]:
        """Split a first-axis concatenation back into per-item views.

        The inverse of :meth:`pack_ragged`: zero-copy slices of ``flat``,
        one per length.  Callers that outlive the buffer (ring reuse!) must
        copy; callers that consume immediately need not.
        """
        total = int(sum(lengths))
        if total != flat.shape[0]:
            raise ValueError(
                f"lengths sum to {total} rows but the flat buffer holds "
                f"{flat.shape[0]}"
            )
        items: List[np.ndarray] = []
        offset = 0
        for length in lengths:
            items.append(flat[offset : offset + int(length)])
            offset += int(length)
        return items

    def iter_batches(
        self,
        requests: Sequence[np.ndarray],
        max_length: int | None = None,
        copy: bool = True,
    ) -> Iterator[MicroBatch]:
        """Yield packed micro-batches for a ragged request list.

        By default every batch owns its ``tokens``/``mask`` arrays, so the
        whole iterator can be materialised safely.  ``copy=False`` yields
        views into the reusable packing buffers instead — zero per-batch
        allocation, but each batch is only valid until the next one is
        pulled (the serving hot path consumes batches immediately and opts
        in to this).
        """
        sequences = [
            _validate_request(request, max_length, i)
            for i, request in enumerate(requests)
        ]
        for padded_length, indices in self.plan([s.size for s in sequences], max_length):
            rows = len(indices)
            lengths = tuple(sequences[i].size for i in indices)
            tokens = self._buffer("tokens", rows, padded_length, np.dtype(np.int64))
            needs_padding = any(length != padded_length for length in lengths)
            mask: np.ndarray | None = None
            if needs_padding:
                tokens[:] = 0
                mask = self._buffer("mask", rows, padded_length, np.dtype(np.int64))
                mask[:] = 0
            for row, index in enumerate(indices):
                sequence = sequences[index]
                tokens[row, : sequence.size] = sequence
                if mask is not None:
                    mask[row, : sequence.size] = 1
            if copy:
                tokens = tokens.copy()
                mask = None if mask is None else mask.copy()
            yield MicroBatch(indices=indices, lengths=lengths, tokens=tokens, mask=mask)
